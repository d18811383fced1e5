#pragma once
/// \file aegis_edu.hpp
/// The AEGIS bus-encryption engine [14] as surveyed: pipelined AES
/// (300,000 gates) in CBC mode where "the ciphering block chain
/// corresponds to a cache block, thus allowing random access to external
/// memory", with an IV "composed by the block address and by a random
/// vector; to thwart the birthday attack it is possible to replace the
/// random vector by a counter". The survey also notes "the fetch
/// instruction cannot be provided to the processor until an entire cache
/// block is deciphered" — modelled as no-critical-word-first.

#include "crypto/block_cipher.hpp"
#include "edu/edu.hpp"
#include "edu/timing.hpp"

#include <unordered_map>

namespace buscrypt::edu {

/// How the per-line IV nonce is produced (the ablation in T4).
enum class aegis_iv_mode {
  random_vector, ///< fresh random per write — birthday-attack exposed
  counter,       ///< per-line monotonic counter — collision-free until wrap
};

struct aegis_edu_config {
  std::size_t line_bytes = 32;
  aegis_iv_mode iv_mode = aegis_iv_mode::counter;
  u64 seed = 0xAE615ULL;
};

/// Per-cache-line CBC engine with (address, nonce)-derived IVs: a line's
/// IV is E_K(counter_block(line address, nonce)).
class aegis_edu final : public edu {
 public:
  /// \param cipher block cipher with a 16-byte block, so the line address
  ///        and the nonce fill separate halves of the IV's counter block.
  /// \throws std::invalid_argument when the block is not 16 bytes or does
  ///         not divide the line.
  aegis_edu(sim::memory_port& lower, const crypto::block_cipher& cipher,
            aegis_edu_config cfg);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "AEGIS-AES-CBC";
  }

  [[nodiscard]] cycles read(addr_t addr, std::span<u8> out) override;
  [[nodiscard]] cycles write(addr_t addr, std::span<const u8> in) override;

  /// Native batch path for line-aligned transactions: per-line nonces are
  /// assigned (and the IV cipher + chained CBC encrypt run) at staging
  /// time for writes, so the 300 k-gate core works ahead of the bus, while
  /// read deciphers gate on each line's own arrival. Reads snapshot their
  /// line's nonce in submission order, so an in-window write of the same
  /// line never bleeds its fresh nonce into an earlier read's IV. Sub-line
  /// requests detour through the scalar five-step path in order.
  void submit(std::span<sim::mem_txn> batch) override;

  [[nodiscard]] std::size_t preferred_chunk() const noexcept override {
    return cfg_.line_bytes;
  }

  /// Nonce values handed out so far (test hook for the birthday study).
  [[nodiscard]] const std::unordered_map<addr_t, u64>& nonces() const noexcept {
    return nonces_;
  }

 private:
  static constexpr pipeline_model core = aes_pipelined(); ///< the 300 k-gate AES

  [[nodiscard]] u64 nonce_for(addr_t line_addr) const noexcept;
  /// Mint (and record) the fresh per-write nonce for \p line_addr —
  /// monotonic counter or random vector per cfg — shared by the scalar
  /// and batched write paths so their ciphertext can never diverge.
  [[nodiscard]] u64 fresh_nonce(addr_t line_addr);

  const crypto::block_cipher* cipher_;
  aegis_edu_config cfg_;
  std::unordered_map<addr_t, u64> nonces_;
  u64 counter_state_;
};

} // namespace buscrypt::edu
