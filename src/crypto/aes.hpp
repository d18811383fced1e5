#pragma once
/// \file aes.hpp
/// AES-128/192/256 per FIPS-197. This is the cipher the XOM [13] and
/// AEGIS [14] engines surveyed in Section 3 pipeline in hardware; here it is
/// a byte-oriented software model whose hardware cost is attached separately
/// via sim::pipeline_model (sim/core_timing.hpp).
///
/// The S-box is computed at compile time from the GF(2^8) inverse plus the
/// affine map, eliminating the possibility of a mistyped table.

#include "crypto/block_cipher.hpp"

#include <array>

namespace buscrypt::crypto {

/// Supported AES key widths.
enum class aes_bits { k128 = 128, k192 = 192, k256 = 256 };

/// FIPS-197 AES. Immutable after construction; safe to share across threads.
///
/// The data path uses T-table rounds: SubBytes, ShiftRows and MixColumns
/// fuse into four table lookups plus XORs per column — the software
/// equivalent of the fused round logic the surveyed hardware cores
/// pipeline, and the hot loop of every simulator run (each EDU pad block,
/// IV derivation and keyslot unit lands here). Decryption runs the
/// equivalent inverse cipher over InvMixColumns-transformed round keys, so
/// both directions are loop-free per byte. Output is bit-identical to the
/// byte-oriented FIPS-197 reference (the NIST vectors in tests/ pin it).
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

  /// Number of rounds (10/12/14) — the figure hardware pipelines expose.
  [[nodiscard]] int rounds() const noexcept { return nr_; }

  /// The expanded key schedules, 4*(rounds()+1) words each: encryption
  /// round keys in FIPS-197 order, and the equivalent-inverse-cipher keys
  /// decryption consumes (tests pin the latter against a GF(2^8) reference).
  [[nodiscard]] std::span<const u32> round_keys() const noexcept {
    return std::span<const u32>(round_keys_).first(schedule_words());
  }
  [[nodiscard]] std::span<const u32> decrypt_round_keys() const noexcept {
    return std::span<const u32>(dec_round_keys_).first(schedule_words());
  }

 private:
  [[nodiscard]] std::size_t schedule_words() const noexcept {
    return static_cast<std::size_t>(4 * (nr_ + 1));
  }

  int nk_ = 0; // key words
  int nr_ = 0; // rounds
  std::array<u32, 60> round_keys_{};     // 4*(nr+1) words max (AES-256)
  std::array<u32, 60> dec_round_keys_{}; // equivalent-inverse-cipher schedule
};

} // namespace buscrypt::crypto
