#pragma once
/// \file cpu.hpp
/// Trace-driven in-order core. One instruction issues per cycle; every
/// memory access blocks until the cache answers. This is deliberately the
/// simplest model in which the survey's overhead numbers are meaningful:
/// slowdown = extra memory-path cycles / baseline cycles.

#include "sim/cache.hpp"
#include "sim/trace.hpp"

namespace buscrypt::sim {

/// Results of one workload execution.
struct run_stats {
  u64 instructions = 0;  ///< fetches executed
  u64 mem_ops = 0;       ///< loads + stores
  u64 bytes = 0;         ///< architectural bytes moved (fetch + load + store)
  cycles total_cycles = 0;
  cycles stall_cycles = 0; ///< cycles beyond 1-per-instruction issue

  [[nodiscard]] double cpi() const noexcept {
    if (instructions == 0) return 0.0;
    return static_cast<double>(total_cycles) / static_cast<double>(instructions);
  }

  /// Sustained throughput of the run (the survey's overlap story is only
  /// visible in this metric, not in per-access latency).
  [[nodiscard]] double bytes_per_cycle() const noexcept {
    if (total_cycles == 0) return 0.0;
    return static_cast<double>(bytes) / static_cast<double>(total_cycles);
  }

  /// Slowdown of this run against a baseline run (1.0 = no overhead).
  [[nodiscard]] double slowdown_vs(const run_stats& baseline) const noexcept {
    if (baseline.total_cycles == 0) return 0.0;
    return static_cast<double>(total_cycles) / static_cast<double>(baseline.total_cycles);
  }
};

/// The core. Functional: loads really read bytes, stores really write them
/// (a value derived from the address, so ciphertext downstream is real).
class cpu {
 public:
  /// \param l1 the first-level memory the core talks to (unified). An L1
  ///        hit (cache_config::hit_latency) folds into the 1-cycle issue
  ///        slot, so only latency beyond it stalls.
  explicit cpu(memory_port& l1) : l1i_(&l1), l1d_(&l1) {}

  /// Split (Harvard) form: instruction fetches go to \p l1i, data accesses
  /// to \p l1d. No coherence is modeled between them; workloads must not
  /// treat one address as both code and data (ours do not).
  cpu(memory_port& l1i, memory_port& l1d) : l1i_(&l1i), l1d_(&l1d) {}

  /// Execute a whole trace.
  [[nodiscard]] run_stats run(const workload& w);

 private:
  memory_port* l1i_;
  memory_port* l1d_;
};

} // namespace buscrypt::sim
