#pragma once
/// \file cache.hpp
/// On-chip cache. In the survey's trust model everything inside the SoC —
/// including this cache — is trusted, so it holds plaintext (Fig. 2c);
/// the Fig. 7b variant where even the cache holds ciphertext is modelled by
/// edu::cacheside_edu on top of this class.
///
/// Set-associative, true-LRU, write-back/write-allocate or
/// write-through/no-allocate. Functional: lines hold real bytes and misses
/// move real data through the lower memory_port (i.e. through the EDU).

#include "sim/memory_port.hpp"

#include <optional>
#include <vector>

namespace buscrypt::sim {

struct cache_config {
  std::size_t size = 16 * 1024; ///< total data bytes
  std::size_t line_size = 32;   ///< bytes per line
  unsigned ways = 4;            ///< associativity
  bool write_back = true;       ///< false => write-through, store misses bypass
  static constexpr cycles hit_latency = 1; ///< access time on a hit
};

struct cache_stats {
  u64 accesses = 0;
  u64 hits = 0;
  u64 misses = 0;
  u64 evictions = 0;
  u64 writebacks = 0;           ///< dirty lines written to the lower level
  u64 bypass_writes = 0;        ///< stores sent directly below (no allocate)
  cycles stall_cycles = 0;      ///< cycles spent beyond hit latency

  [[nodiscard]] double miss_rate() const noexcept {
    return accesses == 0 ? 0.0
                         : static_cast<double>(misses) / static_cast<double>(accesses);
  }
};

/// A blocking, single-ported cache.
class cache final : public memory_port {
 public:
  /// \param lower the next level (EDU or external memory); referenced.
  cache(const cache_config& cfg, memory_port& lower);

  /// memory_port: byte-granular, may straddle lines (split internally).
  [[nodiscard]] cycles read(addr_t addr, std::span<u8> out) override;
  [[nodiscard]] cycles write(addr_t addr, std::span<const u8> in) override;

  /// Write back every dirty line (e.g. before an attacker inspects DRAM).
  /// Issued below as one transaction batch, so an overlapping lower level
  /// drains it at sustained throughput rather than per-line latency.
  [[nodiscard]] cycles flush();

  /// Write back every dirty line, then drop all lines. For callers that
  /// mutate memory below the cache (e.g. a direct transaction stream) and
  /// need later accesses to refetch.
  [[nodiscard]] cycles flush_and_invalidate() {
    const cycles t = flush();
    for (line& l : lines_) l.valid = false;
    return t;
  }

  /// True when the line containing \p addr is resident (test hook).
  [[nodiscard]] bool contains(addr_t addr) const noexcept;

  [[nodiscard]] const cache_stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const cache_config& config() const noexcept { return cfg_; }
  void reset_stats() noexcept { stats_ = {}; }

 private:
  struct line {
    bool valid = false;
    bool dirty = false;
    addr_t tag = 0;
    u64 last_used = 0;
    bytes data;
  };

  struct locate_result {
    line* entry;
    cycles latency;
  };

  /// Ensure the line holding \p line_addr is resident; returns it plus the
  /// cycles spent (0 extra on hit).
  locate_result locate(addr_t line_addr, bool for_write);

  [[nodiscard]] std::size_t set_index(addr_t line_addr) const noexcept;

  /// Index in lines_ of the resident line holding \p line_addr, or
  /// lines_.size() when it is not resident. Touches no LRU state.
  [[nodiscard]] std::size_t find_line(addr_t line_addr) const noexcept;

  cache_config cfg_;
  memory_port* lower_;
  std::vector<line> lines_; // sets * ways, row-major by set
  std::size_t n_sets_;
  u64 tick_ = 0;
  cache_stats stats_;
};

} // namespace buscrypt::sim
