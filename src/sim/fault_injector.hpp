#pragma once
/// \file fault_injector.hpp
/// Deterministic fault injection on the external-memory path — the
/// machinery that makes crash-safety claims *testable*. The injector is a
/// memory_port decorator sitting between the bus-encryption engine and the
/// external part, counting bus beats exactly as the DRAM would serialise
/// them, plus two out-of-band hooks the update agent drives (flush
/// boundaries and on-chip journal writes). An armed plan fires once, at a
/// seeded, reproducible point:
///
///   bus_beat  — power loss mid-burst: the beats before the cut land, the
///               rest never reach the chip (a *torn* DRAM write), then
///               power_cut is thrown. This is the crash-safety crux — a
///               half-written firmware slot is exactly what A/B commit
///               protocols must survive.
///   flush     — power loss at a flush boundary (between agent phases).
///   journal   — power loss during an on-chip journal record write: a
///               seeded prefix of the record lands, so recovery sees a
///               torn (MAC-invalid) record, never a silently half-trusted
///               one.
///   bit_flip  — no power loss: a seeded bit inside the blast window
///               (e.g. the staged image) flips on the chip once the
///               trigger beat passes — the Class-II attacker corrupting a
///               staged transfer, fwupd's tampered-DFU case.
///   bus_stall — no power loss: the next \p stalls transfer attempts see a
///               stalled bus; the agent is expected to retry with bounded
///               backoff (DFU interrupted-transfer handling).
///
/// Everything is deterministic in (plan, traffic): same plan, same
/// request stream, same cut — which is what lets the fleet re-drive
/// thousands of interrupted updates and prove bit-identical outcomes.

#include "common/types.hpp"
#include "sim/memory_port.hpp"

#include <stdexcept>
#include <string_view>

namespace buscrypt::sim {

/// Where in the run an armed fault fires.
enum class fault_point : u8 { none, bus_beat, flush, journal, bit_flip, bus_stall };

[[nodiscard]] constexpr std::string_view fault_point_name(fault_point p) noexcept {
  switch (p) {
    case fault_point::none: return "none";
    case fault_point::bus_beat: return "bus-beat";
    case fault_point::flush: return "flush";
    case fault_point::journal: return "journal";
    case fault_point::bit_flip: return "bit-flip";
    case fault_point::bus_stall: return "bus-stall";
  }
  return "?";
}

/// Parse a fault_point from its fault_point_name() spelling. Returns false
/// (and leaves \p out untouched) on an unknown name.
[[nodiscard]] bool parse_fault_point(std::string_view name, fault_point& out) noexcept;

inline constexpr fault_point all_fault_points[] = {
    fault_point::none,     fault_point::bus_beat, fault_point::flush,
    fault_point::journal,  fault_point::bit_flip, fault_point::bus_stall};

/// Thrown when an armed power-loss trigger fires. The harness catches it,
/// power-cycles the device (volatile caches gone, on-chip NVM intact) and
/// re-drives recovery — the simulated analogue of pulling the plug.
struct power_cut final : std::runtime_error {
  explicit power_cut(const char* point) : std::runtime_error(point) {}
};

/// One armed fault. `trigger` counts the unit native to the point: bus
/// beats (bus_beat, bit_flip), flush boundaries (flush) or journal record
/// writes (journal); bus_stall ignores it and uses `stalls`.
struct fault_plan {
  fault_point point = fault_point::none;
  u64 trigger = 0;
  u64 seed = 0; ///< bit_flip bit choice; journal torn-prefix length
  /// bit_flip only: the external window the flip lands in (e.g. the
  /// staged-image region).
  addr_t blast_base = 0;
  std::size_t blast_len = 0;
  unsigned stalls = 0; ///< bus_stall: attempts that fail before recovery
};

/// The injectable external-memory path. Unarmed (or after firing) it is a
/// pure pass-through: identical bytes, identical cycles.
class fault_injector final : public memory_port {
 public:
  /// \param lower the real external path; referenced, not owned.
  explicit fault_injector(memory_port& lower) : lower_(&lower) {}

  /// Arm \p p and reset every counter. A plan fires at most once.
  void arm(fault_plan p) noexcept {
    plan_ = p;
    armed_ = p.point != fault_point::none;
    fired_ = false;
    beats_ = 0;
    flushes_ = 0;
    journal_writes_ = 0;
    stalls_left_ = p.point == fault_point::bus_stall ? p.stalls : 0;
  }
  void disarm() noexcept { arm({}); }

  [[nodiscard]] const fault_plan& plan() const noexcept { return plan_; }
  [[nodiscard]] bool fired() const noexcept { return fired_; }
  [[nodiscard]] u64 beats() const noexcept { return beats_; }
  [[nodiscard]] u64 flushes() const noexcept { return flushes_; }

  // --- update-agent hooks ---------------------------------------------------

  /// A flush boundary between agent phases. Counts; an armed `flush` plan
  /// throws power_cut when the trigger-th boundary is reached.
  void on_flush();

  /// Write one on-chip NVM (journal) record through the fault path: an
  /// armed `journal` plan lets a seeded prefix of \p src land in \p dst,
  /// then throws power_cut — recovery must treat the torn record as
  /// garbage. Unarmed, the whole record lands.
  void nvm_write(std::span<u8> dst, std::span<const u8> src);

  /// bus_stall: true while the bus is refusing transfers (consumes one
  /// stall per call). The agent retries with bounded backoff.
  [[nodiscard]] bool stall_pending() noexcept {
    if (stalls_left_ == 0) return false;
    --stalls_left_;
    if (stalls_left_ == 0) fired_ = true;
    return true;
  }

  // --- memory_port ----------------------------------------------------------

  [[nodiscard]] cycles read(addr_t addr, std::span<u8> out) override;
  [[nodiscard]] cycles write(addr_t addr, std::span<const u8> in) override;
  // submit() inherits the scalar-serialising default, so batched traffic
  // crosses the same beat counter as scalar traffic.

 private:
  static constexpr u64 k_beat_bytes = 8; ///< bytes per counted bus beat

  [[nodiscard]] static u64 span_beats(std::size_t len) noexcept {
    return (static_cast<u64>(len) + k_beat_bytes - 1) / k_beat_bytes;
  }
  /// Beats of the current span that precede an armed bus_beat cut, or
  /// ~0ull when no cut lands inside the span. Advances the beat counter.
  [[nodiscard]] u64 cut_within(std::size_t len) noexcept;
  void maybe_flip() ;

  memory_port* lower_;
  fault_plan plan_{};
  bool armed_ = false;
  bool fired_ = false;
  u64 beats_ = 0;
  u64 flushes_ = 0;
  u64 journal_writes_ = 0;
  unsigned stalls_left_ = 0;
};

} // namespace buscrypt::sim
