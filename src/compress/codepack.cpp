#include "compress/codepack.hpp"

#include "common/bitops.hpp"
#include "compress/bitstream.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace buscrypt::compress {

namespace {

/// Most frequent 16-bit halves, up to 256, most frequent first.
std::vector<u16> build_dict(const std::unordered_map<u16, u64>& freq) {
  std::vector<std::pair<u16, u64>> entries(freq.begin(), freq.end());
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  std::vector<u16> dict;
  dict.reserve(std::min<std::size_t>(entries.size(), 256));
  for (std::size_t i = 0; i < entries.size() && i < 256; ++i)
    dict.push_back(entries[i].first);
  return dict;
}

std::unordered_map<u16, u16> invert_dict(const std::vector<u16>& dict) {
  std::unordered_map<u16, u16> inv;
  inv.reserve(dict.size());
  for (std::size_t i = 0; i < dict.size(); ++i) inv.emplace(dict[i], static_cast<u16>(i));
  return inv;
}

void emit_half(bit_writer& bw, u16 half, const std::unordered_map<u16, u16>& inv) {
  const auto it = inv.find(half);
  if (it != inv.end()) {
    bw.put(0, 1);
    bw.put(it->second, 8);
  } else {
    bw.put(1, 1);
    bw.put(half, 16);
  }
}

u16 read_half(bit_reader& br, const std::vector<u16>& dict) {
  if (br.get_bit()) return static_cast<u16>(br.get(16));
  const u32 idx = br.get(8);
  if (idx >= dict.size()) throw std::invalid_argument("codepack: bad dict index");
  return dict[idx];
}

} // namespace

codepack::codepack(std::size_t group_bytes) : group_bytes_(group_bytes) {
  if (group_bytes_ == 0 || group_bytes_ % 4 != 0)
    throw std::invalid_argument("codepack: group_bytes must be a multiple of 4");
}

codepack_image codepack::compress_image(std::span<const u8> code) const {
  if (code.size() % 4 != 0)
    throw std::invalid_argument("codepack: code image must be whole words");

  codepack_image img;
  img.original_size = code.size();
  img.group_bytes = group_bytes_;

  std::unordered_map<u16, u64> hi_freq;
  std::unordered_map<u16, u64> lo_freq;
  for (std::size_t off = 0; off < code.size(); off += 4) {
    const u32 w = load_le32(&code[off]);
    ++hi_freq[static_cast<u16>(w >> 16)];
    ++lo_freq[static_cast<u16>(w)];
  }
  img.hi_dict = build_dict(hi_freq);
  img.lo_dict = build_dict(lo_freq);
  const auto hi_inv = invert_dict(img.hi_dict);
  const auto lo_inv = invert_dict(img.lo_dict);

  bit_writer bw;
  for (std::size_t off = 0; off < code.size(); off += 4) {
    if (off % group_bytes_ == 0)
      img.group_bit_offsets.push_back(static_cast<u32>(bw.bit_count()));
    const u32 w = load_le32(&code[off]);
    emit_half(bw, static_cast<u16>(w >> 16), hi_inv);
    emit_half(bw, static_cast<u16>(w), lo_inv);
  }
  img.payload = std::move(bw).take();
  return img;
}

bytes codepack::decompress_group(const codepack_image& img, std::size_t group) const {
  if (group >= img.group_bit_offsets.size())
    throw std::out_of_range("codepack: group index out of range");
  const std::size_t group_base = group * img.group_bytes;
  bytes out(std::min(img.group_bytes, img.original_size - group_base));
  decompress_chunk(img.payload, img.group_bit_offsets[group], out, img);
  return out;
}

void codepack::decompress_chunk(std::span<const u8> chunk, std::size_t bit_offset,
                                std::span<u8> out, const codepack_image& dicts) const {
  if (out.size() % 4 != 0)
    throw std::invalid_argument("codepack: chunk output must be whole words");
  bit_reader br(chunk);
  br.seek_bit(bit_offset);
  for (std::size_t off = 0; off < out.size(); off += 4) {
    const u16 hi = read_half(br, dicts.hi_dict);
    const u16 lo = read_half(br, dicts.lo_dict);
    store_le32(&out[off], (u32{hi} << 16) | lo);
  }
}

bytes codepack::decompress_all(const codepack_image& img) const {
  bytes out;
  out.reserve(img.original_size);
  for (std::size_t g = 0; g < img.group_bit_offsets.size(); ++g) {
    const bytes grp = decompress_group(img, g);
    out.insert(out.end(), grp.begin(), grp.end());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Flat codec adapter. Wire format:
// [u32 orig][u32 group_bytes][u16 nhi][u16 nlo][hi dict][lo dict]
// [u32 ngroups][u32 offsets...][payload]
// ---------------------------------------------------------------------------

bytes codepack_codec::compress(std::span<const u8> in) const {
  // Pad to a whole word; remember the true length in the header.
  bytes padded(in.begin(), in.end());
  while (padded.size() % 4 != 0) padded.push_back(0);

  const codepack engine(64);
  const codepack_image img = engine.compress_image(padded);

  bytes out(4 + 4 + 2 + 2);
  store_le32(out.data(), static_cast<u32>(in.size()));
  store_le32(out.data() + 4, static_cast<u32>(img.group_bytes));
  out[8] = static_cast<u8>(img.hi_dict.size());
  out[9] = static_cast<u8>(img.hi_dict.size() >> 8);
  out[10] = static_cast<u8>(img.lo_dict.size());
  out[11] = static_cast<u8>(img.lo_dict.size() >> 8);
  auto push_u16 = [&out](u16 v) {
    out.push_back(static_cast<u8>(v));
    out.push_back(static_cast<u8>(v >> 8));
  };
  for (u16 v : img.hi_dict) push_u16(v);
  for (u16 v : img.lo_dict) push_u16(v);
  bytes tail(4);
  store_le32(tail.data(), static_cast<u32>(img.group_bit_offsets.size()));
  out.insert(out.end(), tail.begin(), tail.end());
  for (u32 off : img.group_bit_offsets) {
    bytes tmp(4);
    store_le32(tmp.data(), off);
    out.insert(out.end(), tmp.begin(), tmp.end());
  }
  out.insert(out.end(), img.payload.begin(), img.payload.end());
  return out;
}

bytes codepack_codec::decompress(std::span<const u8> in) const {
  if (in.size() < 16) throw std::invalid_argument("codepack: truncated header");
  codepack_image img;
  const u32 original = load_le32(in.data());
  img.group_bytes = load_le32(in.data() + 4);
  const std::size_t nhi = in[8] | (std::size_t{in[9]} << 8);
  const std::size_t nlo = in[10] | (std::size_t{in[11]} << 8);
  std::size_t pos = 12;
  if (in.size() < pos + (nhi + nlo) * 2 + 4)
    throw std::invalid_argument("codepack: truncated dictionaries");
  for (std::size_t i = 0; i < nhi; ++i, pos += 2)
    img.hi_dict.push_back(static_cast<u16>(in[pos] | (u16{in[pos + 1]} << 8)));
  for (std::size_t i = 0; i < nlo; ++i, pos += 2)
    img.lo_dict.push_back(static_cast<u16>(in[pos] | (u16{in[pos + 1]} << 8)));
  const u32 ngroups = load_le32(&in[pos]);
  pos += 4;
  if (in.size() < pos + ngroups * 4)
    throw std::invalid_argument("codepack: truncated index");
  for (u32 g = 0; g < ngroups; ++g, pos += 4)
    img.group_bit_offsets.push_back(load_le32(&in[pos]));
  img.payload.assign(in.begin() + static_cast<std::ptrdiff_t>(pos), in.end());
  img.original_size = (original + 3) / 4 * 4;

  const codepack engine(img.group_bytes);
  bytes padded = engine.decompress_all(img);
  padded.resize(original);
  return padded;
}

} // namespace buscrypt::compress
