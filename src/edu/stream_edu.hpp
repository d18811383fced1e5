#pragma once
/// \file stream_edu.hpp
/// Stream-cipher EDU (Fig. 2a applied at the Fig. 2c location): ciphertext
/// = plaintext XOR pad(address), with the pad produced by a block-cipher
/// PRF over the address (crypto::address_pad: seekable, so random access
/// costs nothing).
///
/// Carries the survey's central performance claim: "the key stream
/// generation can be parallelised with external data fetch", unlike a
/// block cipher that "cannot start until a complete block has been
/// received". The parallel_keystream flag ablates exactly that.

#include "crypto/modes.hpp"
#include "edu/edu.hpp"
#include "edu/timing.hpp"

namespace buscrypt::edu {

struct stream_edu_config {
  bool parallel_keystream = true; ///< false = serialize pad after fetch (ablation)
};

/// One-time-pad style EDU; byte-addressable, so it NEVER pays the
/// five-step sub-block write penalty (contrast with block_edu).
class stream_edu final : public edu {
 public:
  /// The PRF core generating the pad.
  static constexpr pipeline_model pad_core = aes_pipelined();

  stream_edu(sim::memory_port& lower, const crypto::block_cipher& prf,
             stream_edu_config cfg);

  [[nodiscard]] std::string_view name() const noexcept override { return "Stream-OTP"; }

  [[nodiscard]] cycles read(addr_t addr, std::span<u8> out) override;
  [[nodiscard]] cycles write(addr_t addr, std::span<const u8> in) override;

  /// Native batch path on sim::txn_batcher. The parallel keystream is a
  /// par-lane job per transaction: every pad is derived from the addresses
  /// alone, so the whole batch's keystream pipeline runs concurrently with
  /// the whole batch's bus schedule — max(sum mem, sum pad) + sum xor
  /// instead of the scalar sum of per-access maxes. This is Fig. 2a's "key
  /// stream generation can be parallelised with external data fetch"
  /// applied across requests, not just within one. The serial ablation
  /// runs pad + xor on the gated lane, chained after each transaction's
  /// own arrival like every serial cipher core's decipher.
  void submit(std::span<sim::mem_txn> batch) override;

  [[nodiscard]] const stream_edu_config& config() const noexcept { return cfg_; }

 private:
  [[nodiscard]] cycles pad_time(addr_t addr, std::size_t len) const noexcept;
  /// Scalar access time for \p len bytes at \p addr over \p mem cycles of
  /// bus time; charges the excess to crypto_cycles.
  [[nodiscard]] cycles charge(addr_t addr, std::size_t len, cycles mem);
  void apply_pad(addr_t addr, std::span<u8> buf);

  static constexpr u64 tweak = 0x57E4EA11C0DE5ULL;

  crypto::address_pad pad_;
  stream_edu_config cfg_;
};

} // namespace buscrypt::edu
