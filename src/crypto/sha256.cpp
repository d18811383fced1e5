#include "crypto/sha256.hpp"

#include "common/bitops.hpp"

#include <algorithm>

#if defined(BUSCRYPT_SHA_NI) && (defined(__x86_64__) || defined(__i386__))
#include <cpuid.h>
#endif

namespace buscrypt::crypto {

namespace sha256_kernels {

#if defined(BUSCRYPT_SHA_NI) && (defined(__x86_64__) || defined(__i386__))
// Defined in sha256_shani.cpp, the only TU built with -msha.
void compress_x86_shani(state& h, const u8* blocks, std::size_t nblocks) noexcept;
void hmac_block_x86_shani(const state& inner, const state& outer, const u8* block,
                          u8* mac) noexcept;

namespace {

// The kernel needs SHA (leaf 7 EBX bit 29) plus the SSSE3/SSE4.1 shuffles
// and blends it is built around (leaf 1 ECX bits 9 and 19).
bool cpu_has_sha_ni() noexcept {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
  const bool ssse3_sse41 = (c & (1u << 9)) != 0 && (c & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
  return ssse3_sse41 && (b & (1u << 29)) != 0;
}

bool use_sha_ni() noexcept {
  static const bool supported = cpu_has_sha_ni();
  return supported;
}

} // namespace
#endif

void compress_portable(state& h, const u8* blocks, std::size_t nblocks) noexcept {
  for (; nblocks != 0; --nblocks, blocks += sha256::block_size) {
    u32 w[64];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(blocks + 4 * i);
    for (int i = 16; i < 64; ++i) {
      const u32 s0 = rotr32(w[i - 15], 7) ^ rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const u32 s1 = rotr32(w[i - 2], 17) ^ rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    u32 a = h[0], b = h[1], c = h[2], d = h[3];
    u32 e = h[4], f = h[5], g = h[6], hh = h[7];
    for (int i = 0; i < 64; ++i) {
      const u32 s1 = rotr32(e, 6) ^ rotr32(e, 11) ^ rotr32(e, 25);
      const u32 ch = (e & f) ^ (~e & g);
      const u32 t1 = hh + s1 + ch + round_constants[static_cast<std::size_t>(i)] + w[i];
      const u32 s0 = rotr32(a, 2) ^ rotr32(a, 13) ^ rotr32(a, 22);
      const u32 maj = (a & b) ^ (a & c) ^ (b & c);
      const u32 t2 = s0 + maj;
      hh = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    h[0] += a; h[1] += b; h[2] += c; h[3] += d;
    h[4] += e; h[5] += f; h[6] += g; h[7] += hh;
  }
}

void hmac_block_portable(const state& inner, const state& outer, const u8* block,
                         u8* mac) noexcept {
  state h = inner;
  compress_portable(h, block, 1);
  // The outer message is the opad block plus the 32-byte inner digest, so
  // its last block is that digest and fixed padding for 96 bytes.
  std::array<u8, sha256::block_size> outer_block{};
  for (std::size_t i = 0; i < 8; ++i) store_be32(&outer_block[4 * i], h[i]);
  outer_block[sha256::digest_size] = 0x80;
  store_be64(&outer_block[sha256::block_size - 8],
             (sha256::block_size + sha256::digest_size) * 8);
  h = outer;
  compress_portable(h, outer_block.data(), 1);
  for (std::size_t i = 0; i < 8; ++i) store_be32(mac + 4 * i, h[i]);
}

compress_fn compress_shani() noexcept {
#if defined(BUSCRYPT_SHA_NI) && (defined(__x86_64__) || defined(__i386__))
  return use_sha_ni() ? &compress_x86_shani : nullptr;
#else
  return nullptr;
#endif
}

hmac_block_fn hmac_block_shani() noexcept {
#if defined(BUSCRYPT_SHA_NI) && (defined(__x86_64__) || defined(__i386__))
  return use_sha_ni() ? &hmac_block_x86_shani : nullptr;
#else
  return nullptr;
#endif
}

compress_fn active() noexcept {
  static const compress_fn kernel = [] {
    const compress_fn ni = compress_shani();
    return ni != nullptr ? ni : &compress_portable;
  }();
  return kernel;
}

hmac_block_fn hmac_block_active() noexcept {
  static const hmac_block_fn kernel = [] {
    const hmac_block_fn ni = hmac_block_shani();
    return ni != nullptr ? ni : &hmac_block_portable;
  }();
  return kernel;
}

} // namespace sha256_kernels

void sha256::reset() noexcept {
  h_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buf_len_ = 0;
  total_len_ = 0;
}

void sha256::update(std::span<const u8> data) noexcept {
  const sha256_kernels::compress_fn compress = sha256_kernels::active();
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ != 0) {
    const std::size_t take = std::min(data.size(), block_size - buf_len_);
    std::copy_n(data.begin(), take, buf_.begin() + static_cast<std::ptrdiff_t>(buf_len_));
    buf_len_ += take;
    off += take;
    if (buf_len_ < block_size) return;
    compress(h_, buf_.data(), 1);
    buf_len_ = 0;
  }
  const std::size_t blocks = (data.size() - off) / block_size;
  if (blocks != 0) {
    compress(h_, data.data() + off, blocks);
    off += blocks * block_size;
  }
  std::copy(data.begin() + static_cast<std::ptrdiff_t>(off), data.end(), buf_.begin());
  buf_len_ = data.size() - off;
}

std::array<u8, sha256::digest_size> sha256::digest() noexcept {
  const sha256_kernels::compress_fn compress = sha256_kernels::active();
  // FIPS 180-4 padding, written straight into the block buffer: 0x80, zeros
  // up to byte 56 (spilling into a second block when the tail is > 55
  // bytes), then the 64-bit big-endian message bit length.
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > block_size - 8) {
    std::fill(buf_.begin() + static_cast<std::ptrdiff_t>(buf_len_), buf_.end(), u8{0});
    compress(h_, buf_.data(), 1);
    buf_len_ = 0;
  }
  std::fill(buf_.begin() + static_cast<std::ptrdiff_t>(buf_len_), buf_.end() - 8, u8{0});
  store_be64(buf_.data() + block_size - 8, total_len_ * 8);
  compress(h_, buf_.data(), 1);
  buf_len_ = 0;

  std::array<u8, digest_size> out{};
  for (std::size_t i = 0; i < 8; ++i) store_be32(&out[4 * i], h_[i]);
  return out;
}

std::array<u8, sha256::digest_size> sha256::hash(std::span<const u8> data) noexcept {
  sha256 ctx;
  ctx.update(data);
  return ctx.digest();
}

} // namespace buscrypt::crypto
