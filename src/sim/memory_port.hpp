#pragma once
/// \file memory_port.hpp
/// The composition seam of the whole simulator: anything that can serve
/// line-sized reads/writes with a latency. The cache talks to a
/// memory_port; an EDU is a memory_port decorator wrapping the external
/// memory — which is exactly the survey's Fig. 2c/7a topology (cache ->
/// EDU -> memory controller -> external memory).
///
/// Two issue styles share the seam:
///  - scalar read()/write(): one blocking request, returns its latency;
///  - submit()/drain(): a batch of mem_txn requests whose *timing* may
///    overlap (multi-bank DRAM, keystream parallel to the fetch) while
///    functional effects stay in submission order. The default adapter
///    serialises a batch through the scalar path, so every existing
///    memory_port is batch-capable; ports with real concurrency override
///    it: external_memory (bank overlap), and the ciphering EDUs and the
///    keyslot engine, which schedule their windows on sim::txn_batcher
///    (cacheside_edu, with no lower window, excepted).
///
/// The full batch contract (ordering, stamp monotonicity, the scalar
/// fallback rule) is specified at \ref txn_contract in sim/mem_txn.hpp;
/// the per-method notes below state each call's share of it.

#include "common/types.hpp"
#include "sim/mem_txn.hpp"

#include <span>
#include <utility>

namespace buscrypt::sim {

/// A request/response memory interface. Functional and timed: data really
/// moves (so ciphertext really sits in DRAM and probes see real bytes) and
/// every call returns the cycles it consumed.
class memory_port {
 public:
  virtual ~memory_port() = default;

  /// Read |out| bytes at addr. Returns total latency in cycles.
  [[nodiscard]] virtual cycles read(addr_t addr, std::span<u8> out) = 0;

  /// Write |in| bytes at addr. Returns total latency in cycles.
  [[nodiscard]] virtual cycles write(addr_t addr, std::span<const u8> in) = 0;

  /// Submit a batch of transactions (see \ref txn_contract).
  ///
  /// **Ordering.** Functional effects are applied in submission order —
  /// byte-identical to scalar issue of the same requests. Timing alone
  /// may overlap.
  ///
  /// **Completion stamps.** Each txn's `complete_cycle` is set relative
  /// to this port's last drain(); stamps are non-decreasing across the
  /// batch and never exceed the makespan the next drain() reports.
  /// Cycles consumed accumulate across submit() calls until drain()
  /// collects them, so several submissions may share one drain window.
  ///
  /// **Scalar fallback.** This default adapter serialises the batch
  /// through read()/write() — one scalar call per transaction, in order —
  /// so the batch makespan equals the sum of the scalar latencies and
  /// every derived port is batch-capable without overriding anything.
  /// Overriding ports may reorder *timing* only; any transaction they
  /// cannot schedule natively must detour through the scalar path at a
  /// point that preserves submission order (pending native work flushed
  /// first), which is what bus_encryption_engine::submit does.
  virtual void submit(std::span<mem_txn> batch) {
    cycles t = pending_txn_cycles_;
    for (mem_txn& txn : batch) {
      t += txn.is_write() ? write(txn.addr, txn.data) : read(txn.addr, txn.data);
      txn.complete_cycle = t;
    }
    pending_txn_cycles_ = t;
  }

  /// Collect the cycles consumed by everything submitted since the last
  /// drain() (the batch makespan, not the per-txn sum, on overlapping
  /// ports) and reset the accumulator. Calling drain() with nothing
  /// pending returns 0; it also re-bases the `complete_cycle` origin for
  /// the next submission window.
  [[nodiscard]] virtual cycles drain() { return std::exchange(pending_txn_cycles_, 0); }

 protected:
  /// Accumulator shared by the default adapter and native batch paths.
  cycles pending_txn_cycles_ = 0;
};

} // namespace buscrypt::sim
