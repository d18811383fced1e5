#pragma once
/// \file workload.hpp
/// Synthetic workload generators. Each models one of the execution
/// behaviours the survey's arguments hinge on:
///   - sequential code     -> prefetch-friendly (Gilmont's <2.5% case)
///   - jumpy code          -> the CBC random-access problem
///   - data read/write mix -> the sub-block write penalty
///   - pointer chasing     -> latency-bound, worst case for block EDUs
///   - streaming           -> bandwidth-bound

#include "common/rng.hpp"
#include "sim/memory_port.hpp"
#include "sim/trace.hpp"

namespace buscrypt::sim {

/// Straight-line code: sequential 4-byte fetches over \p code_size bytes of
/// code, with a short backward loop every \p loop_every instructions
/// (loop_every == 0 disables looping).
[[nodiscard]] workload make_sequential_code(std::size_t n_instr, std::size_t code_size,
                                            std::size_t loop_every, u64 seed);

/// Branchy code: each fetch jumps to a uniformly random aligned target with
/// probability \p jump_rate, otherwise advances sequentially. This is the
/// "random data access problem (JUMP instructions)" workload.
[[nodiscard]] workload make_jumpy_code(std::size_t n_instr, std::size_t code_size,
                                       double jump_rate, u64 seed);

/// Loads and stores over a working set: every instruction fetches, and a
/// fraction \p mem_rate also touches data, of which \p write_fraction are
/// stores of \p store_size bytes.
[[nodiscard]] workload make_data_rw(std::size_t n_instr, std::size_t working_set,
                                    double mem_rate, double write_fraction,
                                    u8 store_size, u64 seed);

/// Dependent random loads over a working set (latency-bound).
[[nodiscard]] workload make_pointer_chase(std::size_t n_loads, std::size_t working_set,
                                          u64 seed);

/// Unit-stride streaming reads with one store per \p write_every elements.
[[nodiscard]] workload make_streaming(std::size_t n_elems, std::size_t array_size,
                                      std::size_t write_every, u64 seed);

// --- multi-master scenario generators ----------------------------------------
// Request streams for the non-CPU masters of a multi-master SoC (see
// sim/bus_master.hpp): the VLSI secure-DMA engine's page-by-page bulk
// transfers (Fig. 4) and a peripheral's register polling loop. Combined
// with the CPU generators above they form the mixed-master scenarios
// bench/tab12_interconnect's multimaster section sweeps.

/// Bulk DMA copy: \p n_bytes moved burst by burst from [src_base, ...) to
/// [dst_base, ...). Each \p burst_bytes burst is fully covered by 8-byte
/// reads then 8-byte writes, so lowering at any chunk <= burst_bytes
/// produces a dense read-burst/write-burst stream — the bandwidth-bound
/// traffic a secure DMA unit puts on the bus.
[[nodiscard]] workload make_dma_copy(std::size_t n_bytes, addr_t src_base,
                                     addr_t dst_base, std::size_t burst_bytes,
                                     u64 seed);

/// Peripheral register polling: \p n_polls reads rotating over \p n_regs
/// registers spaced \p reg_stride bytes apart from \p reg_base, with one
/// 4-byte control write every \p write_every polls (0 = read-only).
/// Latency-bound, tiny footprint — the master a fixed-priority arbiter
/// favours (or starves).
[[nodiscard]] workload make_peripheral_poll(std::size_t n_polls, addr_t reg_base,
                                            std::size_t n_regs, std::size_t reg_stride,
                                            std::size_t write_every, u64 seed);

/// Rebase a workload: every access shifted by \p base. Multi-master runs
/// use this to give each master a disjoint address range, which is what
/// makes per-master solo-vs-concurrent equivalence well defined.
[[nodiscard]] workload offset_workload(workload w, addr_t base);

/// Confine a workload to the window [base, base + len): every access
/// address folds to base + addr % len. The CPU-style generators place
/// code at frame offset 0 and data at the 1 MiB mark, so offset_workload
/// alone cannot keep a master inside a narrow slice of the shared map —
/// this can, which is what the interconnect's firewalled masters (fleet
/// noc cells, tab12's whitelisted accelerator) need. \p len must be a
/// multiple of 8 so every access keeps its alignment and lands whole.
[[nodiscard]] workload confine_workload(workload w, addr_t base, std::size_t len);

/// The common suite the tab1 survey-overheads bench runs every engine on:
/// a mix representative of embedded firmware (mostly sequential code, some
/// branches, moderate data traffic).
[[nodiscard]] std::vector<workload> standard_suite(u64 seed);

// --- transaction drivers -----------------------------------------------------
// Tools for issuing a workload straight at a memory_port (an EDU, usually)
// in chunk-granular transactions — the request/sec view of an engine that
// Sealer-style throughput evaluation needs, with no CPU/L1 in the way.

/// One chunk-granular port operation derived from a workload access.
struct port_op {
  addr_t addr = 0;   ///< chunk-aligned
  bool write = false;
};

/// Lower a trace to chunk-aligned port operations, in program order, with
/// consecutive duplicates coalesced (the filtering an L1 would do for
/// free). Writes widen to the whole chunk, as a write-allocate line store
/// would.
[[nodiscard]] std::vector<port_op> to_port_ops(const workload& w, std::size_t chunk);

/// Lower \p ops into one window of \p master's transactions in \p out
/// (cleared first): one \p chunk-byte lane of \p lanes per op, store lanes
/// filled with fill_store_pattern. The data spans stay valid until
/// \p lanes is next resized.
void lower_window(std::span<const port_op> ops, std::size_t chunk, master_id master,
                  bytes& lanes, std::vector<mem_txn>& out);

/// What a driver run measured.
struct throughput_stats {
  u64 ops = 0;
  u64 bytes = 0;
  cycles total_cycles = 0;

  [[nodiscard]] double bytes_per_cycle() const noexcept {
    if (total_cycles == 0) return 0.0;
    return static_cast<double>(bytes) / static_cast<double>(total_cycles);
  }
};

/// Issue \p ops one blocking scalar read()/write() at a time.
[[nodiscard]] throughput_stats issue_scalar(memory_port& port,
                                            std::span<const port_op> ops,
                                            std::size_t chunk);

/// Issue \p ops as submit()/drain() batches of \p batch_txns transactions.
/// Store data uses fill_store_pattern, so a scalar and a batched issue of
/// the same ops leave byte-identical memory images behind the port.
[[nodiscard]] throughput_stats issue_batched(memory_port& port,
                                             std::span<const port_op> ops,
                                             std::size_t chunk,
                                             std::size_t batch_txns);

} // namespace buscrypt::sim
