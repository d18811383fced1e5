#pragma once
/// \file aes.hpp
/// AES-128/192/256 per FIPS-197. This is the cipher the XOM [13] and
/// AEGIS [14] engines surveyed in Section 3 pipeline in hardware; here it is
/// the host datapath of every AES-cored engine (AES-NI where the CPU has
/// it, T-tables elsewhere), whose hardware cost is attached separately via
/// sim::pipeline_model (sim/core_timing.hpp).
///
/// The S-box is computed at compile time from the GF(2^8) inverse plus the
/// affine map, eliminating the possibility of a mistyped table.

#include "crypto/block_cipher.hpp"

#include <array>
#include <vector>

namespace buscrypt::crypto {

/// Supported AES key widths.
enum class aes_bits { k128 = 128, k192 = 192, k256 = 256 };

/// The AES kernels behind crypto::aes. The portable kernel runs T-table
/// rounds: SubBytes, ShiftRows and MixColumns fuse into four table lookups
/// plus XORs per column, and decryption runs the equivalent inverse cipher.
/// The AES-NI kernel (aes_ni.cpp, the only translation unit built with
/// -maes -msse4.1) is entered only after a once-per-process CPUID check.
/// Both read and write one schedule layout and produce identical bytes, so
/// tests pin either against the other.
namespace aes_kernels {

/// An expanded key schedule: round key r in bytes [16r, 16r + 16), its four
/// FIPS-197 words each big-endian, which is the byte order AESENC loads.
/// 15 round keys for AES-256.
using schedule = std::array<u8, 240>;

/// The encryption schedule of a 16, 24 or 32-byte key (length checked by
/// the caller).
using expand_fn = void (*)(std::span<const u8> key, schedule& enc) noexcept;

/// The equivalent-inverse-cipher schedule of \p nr rounds from the
/// encryption one: round keys reversed, the inner ones through
/// InvMixColumns (FIPS-197 5.3.5).
using invert_fn = void (*)(const schedule& enc, int nr, schedule& dec) noexcept;

/// Run \p n independent 16-byte blocks from \p in to \p out (which may
/// alias exactly) through the \p nr rounds of \p rk.
using crypt_fn = void (*)(const schedule& rk, int nr, const u8* in, u8* out,
                          std::size_t n) noexcept;

struct kernel {
  expand_fn expand;
  invert_fn invert;
  crypt_fn encrypt; ///< with the encryption schedule
  crypt_fn decrypt; ///< with the inverted schedule
};

/// The T-table kernel; runs everywhere.
[[nodiscard]] const kernel& portable() noexcept;

/// The AES-NI kernel, or nullptr when this build or this CPU lacks the
/// extension (the portable kernel is then the only one). It keeps up to 8
/// blocks in flight, expands AES-128 keys with AESKEYGENASSIST (AES-192 and
/// AES-256 with the portable expansion) and inverts with AESIMC.
[[nodiscard]] const kernel* aes_ni() noexcept;

/// The kernel aes uses: AES-NI when available, portable otherwise.
[[nodiscard]] const kernel& active() noexcept;

} // namespace aes_kernels

/// FIPS-197 AES on the active kernel: the hot loop of every simulator run
/// (each EDU pad block, IV derivation and keyslot unit lands here). Holds
/// each schedule once, in aes_kernels::schedule's layout. Immutable after
/// construction; safe to share across threads. Output is bit-identical to
/// the byte-oriented FIPS-197 reference (the NIST vectors in tests/ pin
/// it).
class aes final : public block_cipher {
 public:
  /// \param key  16/24/32 bytes matching \p bits.
  /// \throws std::invalid_argument when the key length disagrees with bits.
  aes(std::span<const u8> key, aes_bits bits);

  /// Convenience: deduce width from the key length (16/24/32 bytes).
  explicit aes(std::span<const u8> key);

  [[nodiscard]] std::size_t block_size() const noexcept override { return 16; }
  [[nodiscard]] std::string_view name() const noexcept override;

  void encrypt_block(std::span<const u8> in, std::span<u8> out) const override;
  void decrypt_block(std::span<const u8> in, std::span<u8> out) const override;
  /// One kernel call for the whole run (8 blocks in flight on AES-NI).
  void encrypt_blocks(std::span<const u8> in, std::span<u8> out) const override;
  void decrypt_blocks(std::span<const u8> in, std::span<u8> out) const override;

  /// Number of rounds (10/12/14) — the figure hardware pipelines expose.
  [[nodiscard]] int rounds() const noexcept { return nr_; }

  /// The expanded key schedules as 4*(rounds()+1) words each: encryption
  /// round keys in FIPS-197 order, and the equivalent-inverse-cipher keys
  /// decryption consumes (tests pin the latter against a GF(2^8) reference).
  [[nodiscard]] std::vector<u32> round_keys() const;
  [[nodiscard]] std::vector<u32> decrypt_round_keys() const;

 private:
  const aes_kernels::kernel* kernel_;
  int nr_ = 0; // rounds
  alignas(16) aes_kernels::schedule enc_{};
  alignas(16) aes_kernels::schedule dec_{};
};

} // namespace buscrypt::crypto
