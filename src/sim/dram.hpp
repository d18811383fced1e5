#pragma once
/// \file dram.hpp
/// External memory: the untrusted RAM chip outside the SoC boundary. Holds
/// the actual byte image (ciphertext when an EDU is in front of it) and
/// charges open-page DRAM timing. Rows interleave across a configurable
/// number of banks; accesses to distinct banks can overlap their
/// activate/CAS latency, which is what the transaction pipeline exploits
/// (the data beats still serialise on the shared bus).

#include "common/types.hpp"

#include <span>
#include <vector>

namespace buscrypt::sim {

/// Timing parameters in CPU cycles. The fixed ones approximate an
/// embedded SDRAM behind a 100 MHz-class core: tens of cycles to first
/// data, a few cycles per burst beat. Only the bank count is set per part.
struct dram_timing {
  static constexpr cycles row_hit = 18;  ///< first-data latency, open-row hit
  static constexpr cycles row_miss = 46; ///< first-data latency, row conflict (ACT+CAS)
  static constexpr cycles beat = 2;      ///< cycles per bus beat once bursting
  static constexpr unsigned bus_bytes = 8;      ///< bytes transferred per beat
  static constexpr std::size_t row_size = 2048; ///< DRAM row (page) size in bytes
  unsigned banks = 1; ///< independent banks; rows interleave across them
};
static_assert(dram_timing::bus_bytes > 0 && dram_timing::row_size > 0,
              "a beat moves bytes and a row holds them");

/// Byte-addressable external memory with per-bank open-row timing.
class dram {
 public:
  dram(std::size_t size, dram_timing timing = {});

  /// Functional access to the stored image.
  void read_bytes(addr_t addr, std::span<u8> out) const;
  void write_bytes(addr_t addr, std::span<const u8> in);

  /// Latency of a burst of \p len bytes at \p addr; updates the open row.
  /// Equals first_latency(addr) + burst_cycles(len).
  [[nodiscard]] cycles access_time(addr_t addr, std::size_t len);

  /// The bank serving \p addr (global row index modulo bank count).
  [[nodiscard]] unsigned bank_of(addr_t addr) const noexcept;

  /// First-data latency at \p addr: row hit or miss against the bank's open
  /// row; updates the open row and the hit/miss counters. The scheduled
  /// (transaction) path calls this per transaction so per-bank row state
  /// stays consistent with the issue order.
  [[nodiscard]] cycles first_latency(addr_t addr);

  /// Bus occupancy of a \p len-byte burst, in cycles.
  [[nodiscard]] cycles burst_cycles(std::size_t len) const noexcept;

  /// The bare chip contents — what a Class-II attacker desoldering or
  /// probing the part reads. Attacks and loaders use this deliberately.
  [[nodiscard]] std::span<u8> raw() noexcept { return store_; }
  [[nodiscard]] std::span<const u8> raw() const noexcept { return store_; }

  [[nodiscard]] std::size_t size() const noexcept { return store_.size(); }
  [[nodiscard]] const dram_timing& timing() const noexcept { return timing_; }

  /// Timing statistics.
  [[nodiscard]] u64 row_hits() const noexcept { return row_hits_; }
  [[nodiscard]] u64 row_misses() const noexcept { return row_misses_; }

 private:
  void check_range(addr_t addr, std::size_t len) const;

  std::vector<u8> store_;
  dram_timing timing_;
  std::vector<addr_t> open_rows_; ///< per bank; ~0 = closed
  u64 row_hits_ = 0;
  u64 row_misses_ = 0;
};

} // namespace buscrypt::sim
