#include "crypto/modes.hpp"

#include "common/bitops.hpp"
#include "crypto/des_bitslice.hpp"

#include <array>
#include <stdexcept>

namespace buscrypt::crypto {

namespace {

void check_blocked(const block_cipher& c, std::span<const u8> in,
                   std::span<const u8> out) {
  if (in.size() != out.size())
    throw std::invalid_argument("mode: in/out size mismatch");
  if (in.size() % c.block_size() != 0)
    throw std::invalid_argument("mode: data not a multiple of the block size");
}

/// Bytes one windowed pass (a cbc_decrypt_chains window, a window of CTR
/// pads) runs through one bulk call: enough DES blocks for the widest
/// bitsliced lane group.
constexpr std::size_t k_window = 4096;
static_assert(k_window / 8 >= 8 * bitslice::k_des_lanes);

/// \p c's block size once \p buf is whole chains of \p chain_len bytes,
/// each a whole number of blocks, with one IV block per chain in \p ivs.
std::size_t check_chains(const block_cipher& c, std::span<const u8> ivs,
                         std::span<const u8> buf, std::size_t chain_len) {
  const std::size_t bs = c.block_size();
  if (bs > max_block)
    throw std::invalid_argument("cbc: cipher block wider than max_block");
  if (chain_len == 0 || chain_len % bs != 0 || buf.size() % chain_len != 0)
    throw std::invalid_argument("cbc: data not whole chains of whole blocks");
  if (ivs.size() != buf.size() / chain_len * bs)
    throw std::invalid_argument("cbc: need one iv block per chain");
  return bs;
}

/// Checks one explicit-IV chain and copies \p in to \p out for the
/// in-place pass; false when the chain is empty.
bool stage_chain(const block_cipher& c, std::span<const u8> iv, std::span<const u8> in,
                 std::span<u8> out) {
  check_blocked(c, in, out);
  if (iv.size() != c.block_size())
    throw std::invalid_argument("cbc: iv size != block size");
  if (in.data() != out.data()) std::copy(in.begin(), in.end(), out.begin());
  return !in.empty();
}

/// E_K(counter_block(hi, lo)) in \p buf, viewed as one cipher block.
std::span<const u8> iv_at(const block_cipher& c, u64 hi, u64 lo,
                          std::array<u8, max_block>& buf) {
  if (c.block_size() > max_block)
    throw std::invalid_argument("cbc_at: cipher block wider than max_block");
  const std::span<u8> iv(buf.data(), c.block_size());
  counter_block(iv, hi, lo);
  c.encrypt_block(iv, iv);
  return iv;
}

/// The one CTR pass: XORs \p in into \p out (which may alias exactly)
/// with the keystream of consecutive units of \p unit_len bytes. Unit u
/// takes bytes [skip, skip + unit_len) of the blocks
/// E_K(counter_block(hi, lo + u * stride + i)), i = 0, 1, ...; the
/// counter blocks of every unit go through stack windows, one
/// encrypt_blocks call each.
void ctr_xor(const block_cipher& c, u64 hi, u64 lo, u64 stride, std::size_t skip,
             std::size_t unit_len, std::span<const u8> in, std::span<u8> out) {
  if (in.empty()) return;
  const std::size_t bs = c.block_size();
  const std::size_t per_unit = (skip + unit_len + bs - 1) / bs; // counter blocks
  const std::size_t unit_span = per_unit * bs;                  // keystream bytes
  const std::size_t total = in.size() / unit_len * per_unit;
  const std::size_t per_window = k_window / bs;
  std::array<u8, k_window> window;
  u64 unit_ctr = lo; // the current unit's first counter
  std::size_t b = 0; // the next counter block's index in that unit
  for (std::size_t first = 0; first < total; first += per_window) {
    const std::size_t n = std::min(per_window, total - first);
    const std::span<u8> pads(window.data(), n * bs);
    for (std::size_t i = 0; i < n; ++i) {
      counter_block(pads.subspan(i * bs, bs), hi, unit_ctr + b);
      if (++b == per_unit) {
        b = 0;
        unit_ctr += stride;
      }
    }
    c.encrypt_blocks(pads, pads);
    // Each unit's share of keystream bytes [ks, ks_end) of this window.
    const std::size_t ks = first * bs;
    const std::size_t ks_end = ks + pads.size();
    for (std::size_t u = ks / unit_span; u * unit_span < ks_end; ++u) {
      const std::size_t from = std::max(ks, u * unit_span + skip);
      const std::size_t to = std::min(ks_end, u * unit_span + skip + unit_len);
      if (from >= to) continue;
      const std::size_t at = u * unit_len + (from - u * unit_span - skip);
      xor_bytes(out.subspan(at, to - from), in.subspan(at, to - from),
                pads.subspan(from - ks, to - from));
    }
  }
}

} // namespace

void ecb_encrypt(const block_cipher& c, std::span<const u8> in, std::span<u8> out) {
  check_blocked(c, in, out);
  c.encrypt_blocks(in, out);
}

void ecb_decrypt(const block_cipher& c, std::span<const u8> in, std::span<u8> out) {
  check_blocked(c, in, out);
  c.decrypt_blocks(in, out);
}

void cbc_encrypt_chains(const block_cipher& c, std::span<const u8> ivs, std::span<u8> buf,
                        std::size_t chain_len) {
  const std::size_t bs = check_chains(c, ivs, buf, chain_len);
  for (std::size_t k = 0; k < buf.size(); k += chain_len) {
    std::span<const u8> prev = ivs.subspan(k / chain_len * bs, bs);
    for (std::size_t off = k; off < k + chain_len; off += bs) {
      const std::span<u8> block = buf.subspan(off, bs);
      xor_bytes(block, prev);
      c.encrypt_block(block, block);
      prev = block;
    }
  }
}

void cbc_decrypt_chains(const block_cipher& c, std::span<const u8> ivs, std::span<u8> buf,
                        std::size_t chain_len) {
  const std::size_t bs = check_chains(c, ivs, buf, chain_len);
  // No serial dependency: every block deciphers on its own, then XORs the
  // ciphertext before it, kept in a stack copy of the window. Windows run
  // back to front, so the block before one is still ciphertext.
  std::array<u8, k_window> saved;
  for (std::size_t end = buf.size(); end > 0;) {
    const std::size_t begin = (end - 1) / k_window * k_window;
    const std::span<u8> window = buf.subspan(begin, end - begin);
    const std::span<const u8> ct(saved.data(), window.size());
    std::copy(window.begin(), window.end(), saved.begin());
    c.decrypt_blocks(ct, window);
    // Per chain piece: the first block XORs its IV or the block before the
    // window, the rest the saved blocks before them.
    for (std::size_t off = begin; off < end;) {
      const std::size_t piece_end = std::min(end, (off / chain_len + 1) * chain_len);
      xor_bytes(buf.subspan(off, bs),
                off % chain_len == 0 ? ivs.subspan(off / chain_len * bs, bs)
                                     : std::span<const u8>(buf).subspan(off - bs, bs));
      xor_bytes(buf.subspan(off + bs, piece_end - off - bs),
                ct.subspan(off - begin, piece_end - off - bs));
      off = piece_end;
    }
    end = begin;
  }
}

void cbc_encrypt(const block_cipher& c, std::span<const u8> iv,
                 std::span<const u8> in, std::span<u8> out) {
  if (stage_chain(c, iv, in, out)) cbc_encrypt_chains(c, iv, out, out.size());
}

void cbc_decrypt(const block_cipher& c, std::span<const u8> iv,
                 std::span<const u8> in, std::span<u8> out) {
  if (stage_chain(c, iv, in, out)) cbc_decrypt_chains(c, iv, out, out.size());
}

void cbc_encrypt_at(const block_cipher& c, u64 hi, u64 lo, std::span<u8> chain) {
  std::array<u8, max_block> iv{};
  cbc_encrypt(c, iv_at(c, hi, lo, iv), chain, chain);
}

void cbc_decrypt_at(const block_cipher& c, u64 hi, u64 lo, std::span<u8> chain) {
  std::array<u8, max_block> iv{};
  cbc_decrypt(c, iv_at(c, hi, lo, iv), chain, chain);
}

void ctr_crypt(const block_cipher& c, u64 nonce, u64 initial_counter,
               std::span<const u8> in, std::span<u8> out) {
  if (in.size() != out.size())
    throw std::invalid_argument("ctr: in/out size mismatch");
  ctr_xor(c, nonce, initial_counter, 0, 0, in.size(), in, out);
}

void ctr_crypt_units(const block_cipher& c, u64 nonce, u64 first_counter,
                     u64 counter_stride, std::size_t unit_len, std::span<const u8> in,
                     std::span<u8> out) {
  if (in.size() != out.size())
    throw std::invalid_argument("ctr: in/out size mismatch");
  if (unit_len == 0 ? !in.empty() : in.size() % unit_len != 0)
    throw std::invalid_argument("ctr: data not whole units");
  ctr_xor(c, nonce, first_counter, counter_stride, 0, unit_len, in, out);
}

bytes pkcs7_pad(std::span<const u8> in, std::size_t block) {
  if (block == 0 || block > 255) throw std::invalid_argument("pkcs7: bad block size");
  const std::size_t pad = block - (in.size() % block);
  bytes out(in.begin(), in.end());
  out.insert(out.end(), pad, static_cast<u8>(pad));
  return out;
}

bytes pkcs7_unpad(std::span<const u8> in, std::size_t block) {
  if (in.empty() || in.size() % block != 0)
    throw std::invalid_argument("pkcs7: corrupt padded length");
  const u8 pad = in.back();
  if (pad == 0 || pad > block || pad > in.size())
    throw std::invalid_argument("pkcs7: corrupt pad byte");
  for (std::size_t i = in.size() - pad; i < in.size(); ++i)
    if (in[i] != pad) throw std::invalid_argument("pkcs7: inconsistent padding");
  return bytes(in.begin(), in.end() - pad);
}

void address_pad::apply(addr_t addr, std::span<u8> buf) const {
  const std::size_t bs = cipher_->block_size();
  ctr_xor(*cipher_, tweak_, addr / bs, 0, static_cast<std::size_t>(addr % bs), buf.size(),
          buf, buf);
}

std::size_t address_pad::blocks_covering(addr_t addr, std::size_t len) const noexcept {
  if (len == 0) return 0;
  const std::size_t bs = cipher_->block_size();
  const addr_t first = addr / bs;
  const addr_t last = (addr + len - 1) / bs;
  return static_cast<std::size_t>(last - first + 1);
}

} // namespace buscrypt::crypto
