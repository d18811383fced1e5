#pragma once
/// \file trace_analysis.hpp
/// Address-bus leakage. Even a perfect data cipher leaves the ADDRESS
/// lines in clear (only the DS5002FP family scrambled them): a probe
/// learns the working set, the read/write mix, hot spots, and loop
/// structure — "observing ... system execution can be done through simple
/// board-level probing" (Section 1). These analyses quantify what stays
/// visible through every EDU in the library.
///
/// On a multi-master bus the master-id lines (AHB HMASTER-style, carried
/// on sim::bus_beat::master) leak *more*: an attacker separates the CPU's
/// fetch stream from the DMA engine's bulk transfers and the peripheral's
/// polling loop, profiling each master's working set independently instead
/// of conflating the interleaved streams.

#include "sim/bus.hpp"

#include <vector>

namespace buscrypt::attack {

/// What the address trace alone reveals.
struct trace_profile {
  u64 read_beats = 0;
  u64 write_beats = 0;
  std::size_t distinct_lines = 0; ///< working-set size in lines
  addr_t hottest_line = 0;
  u64 hottest_hits = 0;
  std::size_t loop_period = 0;    ///< dominant period in line-fetch sequence, 0 = none

  [[nodiscard]] double write_fraction() const noexcept {
    const u64 total = read_beats + write_beats;
    return total == 0 ? 0.0
                      : static_cast<double>(write_beats) / static_cast<double>(total);
  }
};

/// Profile a recorded bus trace at \p line_size granularity, all masters
/// conflated (the single-master view). Loop period search is capped at
/// \p max_period.
[[nodiscard]] trace_profile profile_bus_trace(const sim::recording_probe& probe,
                                              std::size_t line_size,
                                              std::size_t max_period = 2048);

/// Distinct master ids observed in the trace, ascending.
[[nodiscard]] std::vector<sim::master_id> masters_in_trace(
    const sim::recording_probe& probe);

/// Profile only the beats \p master drove — per-master attribution of an
/// interleaved multi-master trace.
[[nodiscard]] trace_profile profile_master_trace(const sim::recording_probe& probe,
                                                 sim::master_id master,
                                                 std::size_t line_size,
                                                 std::size_t max_period = 2048);

/// One (master, profile) pair per master seen in the trace, ascending by
/// master id — the full per-master breakdown an analyser produces.
[[nodiscard]] std::vector<std::pair<sim::master_id, trace_profile>>
per_master_profiles(const sim::recording_probe& probe, std::size_t line_size,
                    std::size_t max_period = 2048);

} // namespace buscrypt::attack
