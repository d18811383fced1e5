#pragma once
/// \file core_timing.hpp
/// Hardware timing models for cipher cores. The survey's quantitative
/// claims are about *hardware* engines (pipelined AES at 14 cycles for
/// XOM, 300 k-gate AES for AEGIS, pipelined 3-DES for Gilmont); this file
/// carries those figures so the functional C++ ciphers can be charged
/// realistic cycle costs inside the simulator: the one table both the
/// EDUs and the keyslot engine's backends price their cipher work with.

#include "common/types.hpp"

#include <string_view>

namespace buscrypt::sim {

/// A (possibly pipelined) block-cipher core.
///
/// latency  — cycles from a block entering to it leaving the core.
/// interval — initiation interval: cycles between successive block
///            admissions (1 = fully pipelined, == latency = iterative).
struct pipeline_model {
  std::string_view name = "core";
  cycles latency = 14;
  cycles interval = 1;
  std::size_t block_bytes = 16;
  u64 gates = 0; ///< silicon cost proxy, as reported by the surveyed works

  /// Blocks needed to cover \p nbytes.
  [[nodiscard]] std::size_t blocks_for(std::size_t nbytes) const noexcept {
    return (nbytes + block_bytes - 1) / block_bytes;
  }

  /// Time to push \p nblocks through when blocks are independent
  /// (ECB, CTR, CBC-decrypt): pipelining applies.
  [[nodiscard]] cycles time_parallel(std::size_t nblocks) const noexcept {
    return nblocks == 0 ? 0 : latency + (nblocks - 1) * interval;
  }

  /// Time when each block depends on the previous one (CBC-encrypt):
  /// the pipeline drains between blocks.
  [[nodiscard]] cycles time_chained(std::size_t nblocks) const noexcept {
    return nblocks * latency;
  }
};

/// XOM's AES core [13]: "low latency of 14 latency cycles, while a
/// throughput of one encrypted/decrypted data per clock cycle is claimed".
[[nodiscard]] constexpr pipeline_model aes_pipelined() noexcept {
  return {"AES-pipelined", 14, 1, 16, 300'000};
}

/// An area-conscious iterative AES: one round per cycle, no pipelining.
[[nodiscard]] constexpr pipeline_model aes_iterative() noexcept {
  return {"AES-iterative", 11, 11, 16, 26'000};
}

/// Iterative single-DES (16 rounds), DS5240-class.
[[nodiscard]] constexpr pipeline_model des_iterative() noexcept {
  return {"DES-iterative", 16, 16, 8, 15'000};
}

/// Gilmont's pipelined triple-DES [3]: 48 rounds, pipelined.
[[nodiscard]] constexpr pipeline_model tdes_pipelined() noexcept {
  return {"3DES-pipelined", 48, 1, 8, 120'000};
}

/// Iterative triple-DES (GI-patent class hardware).
[[nodiscard]] constexpr pipeline_model tdes_iterative() noexcept {
  return {"3DES-iterative", 48, 48, 8, 22'000};
}

/// Best's substitution/transposition network: shallow combinational logic.
[[nodiscard]] constexpr pipeline_model best_combinational() noexcept {
  return {"Best-STP", 2, 1, 8, 4'000};
}

/// DS5002FP byte cipher: one S-box lookup, effectively free.
[[nodiscard]] constexpr pipeline_model byte_combinational() noexcept {
  return {"DS5002-byte", 1, 1, 1, 600};
}

/// Keystream generator producing bus_width bytes/cycle after a setup
/// (LFSR/Trivium class): modelled as a 1-byte-block pipeline.
[[nodiscard]] constexpr pipeline_model stream_generator() noexcept {
  return {"stream-gen", 4, 1, 8, 3'000};
}

} // namespace buscrypt::sim
