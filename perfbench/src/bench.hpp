#pragma once
/// \file bench.hpp
/// The repository benchmark: four workloads of independent cells driven
/// through the fleet layer by a closed loop of worker threads. This header
/// holds what the untraced runner (cells.cpp, main.cpp) and the traced
/// pass (traced.cpp) share: the cell description, its deterministic
/// outcome, and the correctness oracle.

#include "engine/churn.hpp"
#include "fleet/fleet.hpp"

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using buscrypt::u64;

enum class workload_id { soc_matrix, auth_fetch, keyslot_churn, update_lifetime };

/// Parses a workload name; false on an unknown one.
bool parse_workload(std::string_view name, workload_id& out);
std::string_view workload_name(workload_id w);

/// One unit of work: a fleet SoC or lifetime cell, or a churn storm.
struct cell {
  bool storm = false;
  buscrypt::fleet::fleet_cell soc;    ///< soc and lifetime drives
  buscrypt::engine::churn_config churn; ///< storm cells
};

/// The deterministic part of what a cell produced.
struct outcome {
  buscrypt::fleet::cell_result soc;
  buscrypt::engine::churn_result churn;

  [[nodiscard]] u64 ops(const cell& c) const { return c.storm ? churn.ops : soc.ops; }
  [[nodiscard]] u64 bytes(const cell& c) const { return c.storm ? churn.bytes : soc.bytes; }
  [[nodiscard]] u64 cycles(const cell& c) const {
    return c.storm ? churn.total_cycles : soc.total_cycles;
  }
  [[nodiscard]] bool sim_equal(const cell& c, const outcome& o) const {
    return c.storm ? churn.sim_equal(o.churn) : soc.sim_equal(o.soc);
  }
};

/// The workload's cells for \p seed, in a fixed order.
std::vector<cell> make_cells(workload_id w, u64 seed);

/// One cell through the fleet layer's public entry points.
outcome run_untraced(const cell& c);

/// Invariants every correct outcome holds, independent of any reference.
/// Returns an empty string when they hold, else the first violation.
std::string check_invariants(const cell& c, const outcome& o);

/// Named per-layer values, summed over cells.
using counters = std::map<std::string, double>;

/// Results of the traced pass (traced.cpp).
struct traced_pass {
  std::vector<outcome> results; ///< cell order
  std::vector<double> cell_ms;  ///< cell order
  std::vector<std::string> errors; ///< cell order; empty = the cell returned
  double wall_ms = 0.0;
  counters layers;
  std::string spans_json; ///< span list, written at exit
};

/// Run every cell once, serially, with spans at each layer boundary and
/// the timing seams wherever the stack is assembled from public parts.
traced_pass run_traced(const std::vector<cell>& cells);

/// Time the crypto primitives on the shapes the workloads use.
counters crypto_micro(u64 seed);

} // namespace perfbench
