#pragma once
/// \file mem_txn.hpp
/// The memory transaction: the unit of work on the cache -> EDU -> DRAM
/// path. One request moves one contiguous span — a cache line or a DMA
/// burst, which is what the surveyed engines cipher per transfer (Fig. 2c,
/// Fig. 4) — and completes at a scheduled cycle rather than blocking the
/// issuer. Batching requests is what lets an engine express the survey's
/// overlap story — keystream generated in parallel with the fetch
/// (Fig. 2a), pipelined AES (XOM) — instead of serialising every access
/// through a scalar read/write call.
///
/// \section txn_contract The submit/drain transaction contract
///
/// Every port that accepts `mem_txn` batches (see sim::memory_port)
/// honours the same invariants, which the pipeline tests assert:
///
/// 1. **Functional order is submission order.** The byte effects of a
///    batch are exactly those of issuing its transactions through scalar
///    read()/write() calls in batch order. A read observes every earlier
///    write in the same batch; only *timing* may overlap between
///    transactions.
/// 2. **Completion stamps are relative and monotone.** `complete_cycle`
///    is filled in by the serving port, measured from that port's last
///    drain() (not from simulation start). Within one submit() call the
///    stamps are non-decreasing in submission order (in-order retirement),
///    and no stamp exceeds the makespan the next drain() returns.
/// 3. **Scalar fallback is always legal.** A port with no native batch
///    path may serve a batch through its own scalar read()/write() (the
///    memory_port default adapter does exactly this). The result must be
///    byte-identical; the makespan then equals the sum of the scalar
///    latencies — batching is a timing optimisation, never a functional
///    one.

#include "common/types.hpp"

#include <span>
#include <type_traits>

namespace buscrypt::sim {

/// Identity of the bus master that issued a transaction. Master 0 is the
/// CPU (the implicit issuer of all scalar traffic); an arbiter tags each
/// granted window with its master's id so protection domains and probe
/// attribution can tell concurrent streams apart.
using master_id = u32;

/// The CPU/default master: scalar requests and untagged transactions.
inline constexpr master_id cpu_master = 0;

/// Reserved sentinel — never a real master. It means "any/all masters"
/// wherever a master id selects a scope: the engine's shared-region owner,
/// the trace analyser's unfiltered view. Registering a master with this id
/// throws at the arbiter/interconnect, and a transaction forged with it is
/// an *accounted denial*, not a silent drop: the bus firewall refuses it
/// whole (bus_firewall::sentinel_denials), and the engine serves the 0xFF
/// bus-error fill through the fault path so the attempt shows up in
/// engine_stats like any other firewall denial.
inline constexpr master_id any_master = static_cast<master_id>(-1);

/// Direction of a transaction, as seen from the requester.
enum class txn_op : u8 {
  read,  ///< fill the span from memory
  write, ///< store the span to memory
};

/// One batched memory request: a contiguous byte span at an address. For
/// reads the span is the destination; for writes it is the source and is
/// never modified by the port. Functional effects are applied in
/// submission order; only *timing* may overlap between transactions, which
/// is exactly the concurrency the surveyed hardware engines exploit. See
/// \ref txn_contract for the invariants every serving port upholds.
struct mem_txn {
  txn_op op = txn_op::read;
  master_id master = cpu_master; ///< issuing bus master (propagated downward
                                 ///< by decorating ports, tagged onto beats)
  addr_t addr = 0;
  std::span<u8> data{};
  cycles complete_cycle = 0; ///< set by the port: completion time relative to
                             ///< its last drain() (monotone within a batch)

  [[nodiscard]] constexpr bool is_write() const noexcept { return op == txn_op::write; }

  /// Read request from the CPU master.
  [[nodiscard]] static constexpr mem_txn read_of(addr_t addr, std::span<u8> out) {
    return {.op = txn_op::read, .addr = addr, .data = out};
  }

  /// Write request from the CPU master (the span is read, not modified).
  [[nodiscard]] static constexpr mem_txn write_of(addr_t addr, std::span<u8> in) {
    return {.op = txn_op::write, .addr = addr, .data = in};
  }
};

static_assert(static_cast<u8>(txn_op::read) == 0 && static_cast<u8>(txn_op::write) == 1,
              "txn_op is part of the wire-visible contract; keep it stable");
static_assert(cpu_master == 0, "master 0 is the CPU by contract; scalar traffic "
                               "and default-constructed txns rely on it");
static_assert(std::is_trivially_copyable_v<mem_txn>,
              "a transaction is a value: building or copying one must not allocate");

} // namespace buscrypt::sim
