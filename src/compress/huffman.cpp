#include "compress/huffman.hpp"

#include "common/bitops.hpp"
#include "compress/bitstream.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace buscrypt::compress {

namespace {

struct node {
  u64 weight;
  int left = -1;   // node index, or -1 for leaf
  int right = -1;
  int symbol = -1; // valid for leaves
};

void assign_depths(const std::vector<node>& nodes, int idx, u8 depth,
                   std::vector<u8>& lengths) {
  const node& nd = nodes[static_cast<std::size_t>(idx)];
  if (nd.symbol >= 0) {
    lengths[static_cast<std::size_t>(nd.symbol)] = depth == 0 ? 1 : depth;
    return;
  }
  assign_depths(nodes, nd.left, static_cast<u8>(depth + 1), lengths);
  assign_depths(nodes, nd.right, static_cast<u8>(depth + 1), lengths);
}

} // namespace

std::vector<u8> huffman_code_lengths(std::span<const u64> freq) {
  const std::size_t n = freq.size();
  std::vector<u8> lengths(n, 0);

  std::vector<node> nodes;
  auto cmp = [&nodes](int a, int b) {
    return nodes[static_cast<std::size_t>(a)].weight >
           nodes[static_cast<std::size_t>(b)].weight;
  };
  std::priority_queue<int, std::vector<int>, decltype(cmp)> heap(cmp);

  for (std::size_t s = 0; s < n; ++s) {
    if (freq[s] == 0) continue;
    nodes.push_back({freq[s], -1, -1, static_cast<int>(s)});
    heap.push(static_cast<int>(nodes.size() - 1));
  }
  if (nodes.empty()) return lengths;
  if (heap.size() == 1) {
    lengths[static_cast<std::size_t>(nodes[0].symbol)] = 1;
    return lengths;
  }

  while (heap.size() > 1) {
    const int a = heap.top();
    heap.pop();
    const int b = heap.top();
    heap.pop();
    nodes.push_back({nodes[static_cast<std::size_t>(a)].weight +
                         nodes[static_cast<std::size_t>(b)].weight,
                     a, b, -1});
    heap.push(static_cast<int>(nodes.size() - 1));
  }
  assign_depths(nodes, heap.top(), 0, lengths);
  return lengths;
}

std::vector<u32> canonical_codes(std::span<const u8> lengths) {
  // Sort symbols by (length, symbol) and hand out consecutive codes.
  std::vector<int> order;
  for (std::size_t s = 0; s < lengths.size(); ++s)
    if (lengths[s] != 0) order.push_back(static_cast<int>(s));
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const u8 la = lengths[static_cast<std::size_t>(a)];
    const u8 lb = lengths[static_cast<std::size_t>(b)];
    return la != lb ? la < lb : a < b;
  });

  std::vector<u32> codes(lengths.size(), 0);
  u32 code = 0;
  u8 prev_len = 0;
  for (int s : order) {
    const u8 len = lengths[static_cast<std::size_t>(s)];
    code <<= (len - prev_len);
    codes[static_cast<std::size_t>(s)] = code;
    ++code;
    prev_len = len;
  }
  return codes;
}

bytes huffman_codec::compress(std::span<const u8> in) const {
  std::array<u64, 256> freq{};
  for (u8 b : in) ++freq[b];

  const auto lengths = huffman_code_lengths(freq);
  const auto codes = canonical_codes(lengths);

  bytes out(4 + 256);
  store_le32(out.data(), static_cast<u32>(in.size()));
  for (std::size_t s = 0; s < 256; ++s) out[4 + s] = lengths[s];

  bit_writer bw;
  for (u8 b : in) bw.put(codes[b], lengths[b]);
  const bytes payload = std::move(bw).take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

bytes huffman_codec::decompress(std::span<const u8> in) const {
  if (in.size() < 4 + 256) throw std::invalid_argument("huffman: truncated header");
  const u32 original = load_le32(in.data());
  std::vector<u8> lengths(256);
  for (std::size_t s = 0; s < 256; ++s) lengths[s] = in[4 + s];

  // Decode with a (length -> first code, symbol table) canonical walker.
  std::vector<int> order;
  for (int s = 0; s < 256; ++s)
    if (lengths[static_cast<std::size_t>(s)] != 0) order.push_back(s);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const u8 la = lengths[static_cast<std::size_t>(a)];
    const u8 lb = lengths[static_cast<std::size_t>(b)];
    return la != lb ? la < lb : a < b;
  });
  if (order.empty()) {
    if (original != 0) throw std::invalid_argument("huffman: empty code, nonempty data");
    return {};
  }

  // Canonical decode tables: for each code length, the numeric value of
  // the first code, the number of codes, and where its symbols start in
  // canonical order.
  constexpr unsigned k_max_len = 64;
  std::array<u64, k_max_len + 1> first_code{};
  std::array<u32, k_max_len + 1> count{};
  std::array<u32, k_max_len + 1> first_idx{};
  for (int s : order) ++count[lengths[static_cast<std::size_t>(s)]];
  {
    u64 code = 0;
    u32 idx = 0;
    for (unsigned len = 1; len <= k_max_len; ++len) {
      code <<= 1;
      first_code[len] = code;
      first_idx[len] = idx;
      code += count[len];
      idx += count[len];
    }
  }

  bit_reader br(in.subspan(4 + 256));
  bytes out;
  out.reserve(original);
  while (out.size() < original) {
    u64 code = 0;
    unsigned len = 0;
    for (;;) {
      code = (code << 1) | u64{br.get_bit()};
      ++len;
      if (len > k_max_len) throw std::invalid_argument("huffman: code too long");
      if (count[len] != 0 && code - first_code[len] < count[len]) {
        const u32 idx = first_idx[len] + static_cast<u32>(code - first_code[len]);
        out.push_back(static_cast<u8>(order[idx]));
        break;
      }
    }
  }
  return out;
}

} // namespace buscrypt::compress
