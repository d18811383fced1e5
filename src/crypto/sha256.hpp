#pragma once
/// \file sha256.hpp
/// SHA-256 (FIPS 180-4). Substrate for the keyed-hash authentication the
/// General Instrument patent attaches to fetched data (Fig. 5), for the
/// MAC / hash-tree / AREA schemes of engine::memory_authenticator, and for
/// HMAC in the key-exchange example.
///
/// Two block-compression kernels sit behind one interface: a portable
/// scalar one and an x86 SHA-NI one (its own translation unit, built with
/// -msha and entered only after a CPUID check). Both produce identical
/// digests; the kernel choice is made once per process.

#include "common/types.hpp"

#include <array>
#include <span>

namespace buscrypt::crypto {

/// Incremental SHA-256. update() any number of times, then digest().
/// Copyable: a copy taken after absorbing a prefix is a midstate that
/// later messages can resume from (how hmac_sha256_key caches its pads).
class sha256 {
 public:
  static constexpr std::size_t digest_size = 32;
  static constexpr std::size_t block_size = 64;

  sha256() noexcept { reset(); }

  /// Restart for a fresh message.
  void reset() noexcept;

  /// Absorb message bytes. Whole 64-byte blocks go to the compression
  /// kernel in one multi-block call.
  void update(std::span<const u8> data) noexcept;

  /// Finalize and return the 32-byte digest (padding is written in place
  /// into the block buffer). The object must be reset() before further use.
  [[nodiscard]] std::array<u8, digest_size> digest() noexcept;

  /// One-shot convenience.
  [[nodiscard]] static std::array<u8, digest_size> hash(
      std::span<const u8> data) noexcept;

  /// The eight chaining words. After absorbing a whole number of blocks
  /// (and before digest()) they are the midstate of that prefix; this is
  /// how hmac_sha256_key hands its ipad/opad midstates to a kernel.
  [[nodiscard]] const std::array<u32, 8>& chaining() const noexcept { return h_; }

 private:
  std::array<u32, 8> h_{};
  std::array<u8, block_size> buf_{};
  std::size_t buf_len_ = 0;
  u64 total_len_ = 0;
};

/// The block-compression kernels behind sha256, exposed so tests can pin
/// the SHA-NI kernel against the portable one and benches can time them.
namespace sha256_kernels {

using state = std::array<u32, 8>;
/// Absorb \p nblocks consecutive 64-byte blocks into \p h.
using compress_fn = void (*)(state& h, const u8* blocks, std::size_t nblocks) noexcept;

/// FIPS 180-4 round constants K0..K63.
inline constexpr std::array<u32, 64> round_constants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

/// Scalar kernel; runs everywhere.
void compress_portable(state& h, const u8* blocks, std::size_t nblocks) noexcept;

/// The SHA-NI kernel, or nullptr when this build or this CPU lacks the
/// extension (the portable kernel is then the only one).
[[nodiscard]] compress_fn compress_shani() noexcept;

/// The kernel sha256 uses: SHA-NI when available, portable otherwise.
[[nodiscard]] compress_fn active() noexcept;

/// HMAC's last two compressions for a message of at most 55 bytes: absorb
/// the padded final inner block \p block into a copy of the \p inner
/// midstate, hash that digest as one padded block from the \p outer
/// midstate, and write the 32-byte MAC to \p mac.
using hmac_block_fn = void (*)(const state& inner, const state& outer, const u8* block,
                               u8* mac) noexcept;

/// Two compress_portable calls; runs everywhere.
void hmac_block_portable(const state& inner, const state& outer, const u8* block,
                         u8* mac) noexcept;

/// The SHA-NI kernel, which keeps the state in registers from the inner
/// compression into the outer one; nullptr exactly when compress_shani() is.
[[nodiscard]] hmac_block_fn hmac_block_shani() noexcept;

/// The one-block HMAC kernel hmac_sha256_key uses (same choice as active()).
[[nodiscard]] hmac_block_fn hmac_block_active() noexcept;

} // namespace sha256_kernels

} // namespace buscrypt::crypto
