// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// Set-up builds the workload's cells from the seed and runs them once on
// the fleet pool to record each cell's reference outcome; it is repeated
// and its median reported as setup_s. The timed phase is a closed loop of
// one fleet worker per CPU, each taking the next cell as soon as its last
// one finishes, until --seconds have elapsed. Every timed cell is checked
// against its reference and the oracle's invariants. The last line of
// stdout is one JSON object.
//
// With --trace 1 the run instead times whole pool passes over the cells,
// one serial pass (the fleet scaling probe) and one serial pass with spans
// around every layer call, times the crypto primitives, and reports the
// per-layer metrics.

#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace perfbench;
namespace fleet = buscrypt::fleet;
using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - t0).count();
}

/// Linear-interpolated percentile (q in [0, 1]) of unsorted samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

unsigned host_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

struct options {
  workload_id workload = workload_id::soc_matrix;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

bool parse_args(int argc, char** argv, options& o) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (a == "--workload") {
      if (!parse_workload(v, o.workload)) return false;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(v);
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--spans") {
      o.spans_path = v;
    } else {
      return false;
    }
  }
  return have_workload && o.seconds > 0.0;
}

/// One pass over every cell on the fleet pool.
struct pass {
  std::vector<outcome> results;
  std::vector<double> cell_ms;
  std::vector<std::string> errors; ///< empty = the call returned
  double wall_ms = 0.0;
  fleet::pool_stats pool;
};

pass run_pass(const std::vector<cell>& cells, unsigned threads) {
  pass p;
  const std::size_t n = cells.size();
  p.results.resize(n);
  p.cell_ms.resize(n);
  p.errors.resize(n);
  const auto t0 = clock_type::now();
  p.pool = fleet::run_jobs(n, threads, [&](std::size_t i) {
    const auto c0 = clock_type::now();
    try {
      p.results[i] = run_untraced(cells[i]);
    } catch (const std::exception& e) {
      p.errors[i] = std::string("threw: ") + e.what();
    } catch (...) {
      p.errors[i] = "threw a non-exception";
    }
    p.cell_ms[i] = ms_since(c0);
  });
  p.wall_ms = ms_since(t0);
  return p;
}

/// Accumulates the timed cells of one phase and their verdicts.
struct tally {
  u64 attempted = 0;
  u64 failed = 0;
  u64 ops = 0;
  double wall_ms = 0.0;
  std::vector<double> cell_ms;
  std::vector<double> pass_ms;
  double busy_ms = 0.0;
  u64 steals = 0;
  std::string first_error;
  /// Correct cells as (start, end, ops), times from the phase start.
  struct interval {
    double start_ms;
    double end_ms;
    double ops;
  };
  std::vector<interval> retired;

  void fail(const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = why;
  }

  /// Judge one cell's result against its reference and the invariants.
  void judge(const cell& c, const outcome& ref, const std::string& ref_error,
             const outcome& got, const std::string& got_error, double ms,
             double end_ms = 0.0) {
    ++attempted;
    cell_ms.push_back(ms);
    busy_ms += ms;
    if (!got_error.empty()) return fail(got_error);
    if (!ref_error.empty()) return fail("reference " + ref_error);
    if (const std::string bad = check_invariants(c, got); !bad.empty()) return fail(bad);
    if (!got.sim_equal(c, ref)) return fail("differs from its reference");
    ops += got.ops(c);
    retired.push_back({end_ms - ms, end_ms, static_cast<double>(got.ops(c))});
  }

  void merge(const tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    ops += o.ops;
    cell_ms.insert(cell_ms.end(), o.cell_ms.begin(), o.cell_ms.end());
    retired.insert(retired.end(), o.retired.begin(), o.retired.end());
    busy_ms += o.busy_ms;
    if (first_error.empty()) first_error = o.first_error;
  }

  void add_pass(const std::vector<cell>& cells, const std::vector<outcome>& refs,
                const std::vector<std::string>& ref_errors, const pass& p) {
    for (std::size_t i = 0; i < cells.size(); ++i)
      judge(cells[i], refs[i], ref_errors[i], p.results[i], p.errors[i], p.cell_ms[i]);
    wall_ms += p.wall_ms;
    pass_ms.push_back(p.wall_ms);
    steals += p.pool.steals;
  }

  [[nodiscard]] double ops_per_s() const {
    return wall_ms <= 0.0 ? 0.0 : static_cast<double>(ops) * 1000.0 / wall_ms;
  }

  /// Ops retired per second in each one-second window of [0, span_ms),
  /// each cell's ops spread evenly over its own run time; the median
  /// window. Robust to bursts of host noise shorter than half the run.
  [[nodiscard]] double windowed_ops_per_s(double span_ms) const {
    const auto n = std::max<std::size_t>(1, static_cast<std::size_t>(span_ms / 1000.0));
    const double width = span_ms / static_cast<double>(n);
    std::vector<double> window_ops(n, 0.0);
    for (const interval& r : retired) {
      const double len = std::max(r.end_ms - r.start_ms, 1e-9);
      for (std::size_t w = 0; w < n; ++w) {
        const double lo = std::max(r.start_ms, width * static_cast<double>(w));
        const double hi = std::min(r.end_ms, width * static_cast<double>(w + 1));
        if (hi > lo) window_ops[w] += r.ops * (hi - lo) / len;
      }
    }
    for (double& o : window_ops) o *= 1000.0 / width;
    return percentile(window_ops, 0.5);
  }
};

/// The closed loop: \p threads fleet workers each take the next cell (in
/// cyclic order) as soon as their last one finishes, until \p budget_ms
/// has elapsed and at least \p min_cells cells have started. Wall time
/// runs until the last in-flight cell returns.
tally closed_loop(const std::vector<cell>& cells, const std::vector<outcome>& refs,
                  const std::vector<std::string>& ref_errors, unsigned threads,
                  double budget_ms, u64 min_cells) {
  std::vector<tally> local(threads);
  std::atomic<u64> next{0};
  const auto t0 = clock_type::now();
  const auto deadline = t0 + std::chrono::duration<double, std::milli>(budget_ms);
  (void)fleet::run_jobs(threads, threads, [&](std::size_t w) {
    for (;;) {
      const u64 k = next.fetch_add(1);
      if (k >= min_cells && clock_type::now() >= deadline) return;
      const std::size_t i = k % cells.size();
      outcome got;
      std::string error;
      const double start = ms_since(t0);
      try {
        got = run_untraced(cells[i]);
      } catch (const std::exception& e) {
        error = std::string("threw: ") + e.what();
      } catch (...) {
        error = "threw a non-exception";
      }
      const double end = ms_since(t0);
      local[w].judge(cells[i], refs[i], ref_errors[i], got, error, end - start, end);
    }
  });
  tally t;
  for (const tally& l : local) t.merge(l);
  t.wall_ms = ms_since(t0);
  return t;
}

/// Timed passes at \p threads until \p budget_ms elapses and at least
/// \p min_cells cells have run.
tally timed_passes(const std::vector<cell>& cells, const std::vector<outcome>& refs,
                   const std::vector<std::string>& ref_errors, unsigned threads,
                   double budget_ms, u64 min_cells) {
  tally t;
  const auto t0 = clock_type::now();
  while (t.attempted == 0 || ms_since(t0) < budget_ms || t.attempted < min_cells)
    t.add_pass(cells, refs, ref_errors, run_pass(cells, threads));
  return t;
}

/// The modelled design's figure: payload bytes over simulated cycles,
/// summed over every cell of the workload once (deterministic per seed).
double bytes_per_cycle(const std::vector<cell>& cells, const std::vector<outcome>& refs) {
  double bytes = 0.0;
  double cycles = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    bytes += static_cast<double>(refs[i].bytes(cells[i]));
    cycles += static_cast<double>(refs[i].cycles(cells[i]));
  }
  return cycles == 0.0 ? 0.0 : bytes / cycles;
}

struct metric {
  std::string name;
  double value;
  std::string unit;
};

void emit(bool correct, u64 attempted, u64 failed, const std::vector<metric>& metrics) {
  for (const metric& m : metrics)
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Every per-layer metric, in the order BENCHMARK.json lists them. A
/// metric a workload never exercises reads 0.
const std::vector<std::pair<const char*, const char*>> k_layer_metrics = {
    {"fleet.busy_ms", "ms"},
    {"fleet.idle_ms", "ms"},
    {"fleet.steals", "count"},
    {"fleet.scaling", "ratio"},
    {"fleet.cell_inflation", "ratio"},
    {"fleet.fingerprint_ms", "ms"},
    {"crypto.hmac_unit_ns", "ns"},
    {"crypto.hmac_unit_calls", "count"},
    {"crypto.sha256_chunk_ns", "ns"},
    {"crypto.aes_expand_ns", "ns"},
    {"crypto.aes_ctr_pad_mbps", "MB/s"},
    {"crypto.des3_wide_mbps", "MB/s"},
    {"crypto.rsa_keygen_ms", "ms"},
    {"crypto.rsa_keygen_calls", "count"},
    {"crypto.backend_ms", "ms"},
    {"crypto.backend_calls", "count"},
    {"engine.keyslot.acquires", "count"},
    {"engine.keyslot.hits", "count"},
    {"engine.keyslot.warm_hit_rate", "ratio"},
    {"engine.keyslot.programs", "count"},
    {"engine.keyslot.denials", "count"},
    {"engine.keyslot.fallbacks", "count"},
    {"engine.keyslot.stall_cycles", "cyc"},
    {"engine.backend.schedule_hits", "count"},
    {"engine.backend.schedule_expansions", "count"},
    {"engine.auth.verifies", "count"},
    {"engine.auth.updates", "count"},
    {"engine.auth.tag_hit_rate", "ratio"},
    {"engine.auth.tag_bus_reads", "count"},
    {"engine.auth.tag_bus_writes", "count"},
    {"engine.auth.nodes_walked", "count"},
    {"engine.auth.auth_cycles", "cyc"},
    {"engine.batch_native_ratio", "ratio"},
    {"engine.self_ms", "ms"},
    {"engine.churn_ms", "ms"},
    {"edu.cipher_blocks", "count"},
    {"edu.crypto_cycles", "cyc"},
    {"edu.rmw_ops", "count"},
    {"edu.txns_per_batch", "ratio"},
    {"soc.construct_ms", "ms"},
    {"soc.install_ms", "ms"},
    {"soc.issue_ms", "ms"},
    {"soc.flush_ms", "ms"},
    {"sim.workload_ms", "ms"},
    {"sim.lower_ms", "ms"},
    {"sim.bus_beats", "count"},
    {"sim.cache.hit_rate", "ratio"},
    {"sim.noc.rounds", "count"},
    {"sim.noc.wait_rounds", "count"},
    {"sim.noc.max_wait_streak", "count"},
    {"update.provision_ms", "ms"},
    {"update.apply_ms", "ms"},
    {"update.recover_ms", "ms"},
    {"update.episodes", "count"},
    {"update.committed", "count"},
    {"update.rolled_back", "count"},
    {"update.cuts", "count"},
    {"update.retries", "count"},
    {"update.update_cycles", "cyc"},
    {"update.traffic_cycles", "cyc"},
    {"trace.overhead", "ratio"},
    {"trace.spans", "count"},
};

void print_host(unsigned threads) {
  __builtin_cpu_init();
  std::printf("host: nproc=%u sha_ni=%d aes_ni=%d avx2=%d avx512f=%d\n", threads,
              __builtin_cpu_supports("sha") ? 1 : 0, __builtin_cpu_supports("aes") ? 1 : 0,
              __builtin_cpu_supports("avx2") ? 1 : 0,
              __builtin_cpu_supports("avx512f") ? 1 : 0);
}

} // namespace

int main(int argc, char** argv) {
  options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload soc_matrix|auth_fetch|keyslot_churn|"
                 "update_lifetime --seed N --seconds S --trace 0|1 [--spans PATH]\n");
    return 2;
  }
  const unsigned threads = host_cpus();
  std::printf("workload: %s seed=%llu seconds=%g trace=%d\n",
              std::string(workload_name(opt.workload)).c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  print_host(threads);

  // --- set-up: cells and their references, repeated for a steady median ---
  constexpr int k_setups = 3;
  std::vector<double> setup_ms;
  std::vector<cell> cells;
  std::vector<outcome> refs;
  std::vector<std::string> ref_errors;
  u64 setup_mismatches = 0;
  for (int s = 0; s < k_setups; ++s) {
    const auto t0 = clock_type::now();
    (void)buscrypt::engine::backend_registry::builtin();
    std::vector<cell> built = make_cells(opt.workload, opt.seed);
    pass ref = run_pass(built, threads);
    setup_ms.push_back(ms_since(t0));
    if (s == 0) {
      cells = std::move(built);
      refs = std::move(ref.results);
      ref_errors = std::move(ref.errors);
      for (std::size_t i = 0; i < cells.size(); ++i)
        if (ref_errors[i].empty())
          if (std::string bad = check_invariants(cells[i], refs[i]); !bad.empty())
            ref_errors[i] = bad;
    } else {
      for (std::size_t i = 0; i < cells.size(); ++i)
        if (ref.errors[i].empty() && ref_errors[i].empty() &&
            !ref.results[i].sim_equal(cells[i], refs[i]))
          ++setup_mismatches;
    }
  }
  std::printf("cells per pass: %zu, setup runs: %d\n", cells.size(), k_setups);

  const double budget_ms = opt.seconds * 1000.0;
  constexpr u64 k_min_cells = 100;

  if (!opt.trace) {
    const tally t = closed_loop(cells, refs, ref_errors, threads, budget_ms, k_min_cells);
    const u64 failed = t.failed + setup_mismatches;
    std::printf("timed: %llu cells on %u workers, %.1f ms wall, %.0f ops/s overall; "
                "samples=%zu\n",
                static_cast<unsigned long long>(t.attempted), threads, t.wall_ms,
                t.ops_per_s(), t.cell_ms.size());
    std::printf("setup ms:");
    for (const double ms : setup_ms) std::printf(" %.1f", ms);
    std::printf("\nerror_rate: %.6f (%llu failed / %llu attempted)%s%s\n",
                static_cast<double>(failed) / static_cast<double>(t.attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(t.attempted),
                t.first_error.empty() ? "" : "; first: ", t.first_error.c_str());
    const std::vector<metric> metrics = {
        {"sim_ops_per_s", t.windowed_ops_per_s(budget_ms), "ops/s"},
        {"cell_ms_p50", percentile(t.cell_ms, 0.5), "ms"},
        {"cell_ms_p90", percentile(t.cell_ms, 0.9), "ms"},
        {"sim_bytes_per_cycle", bytes_per_cycle(cells, refs), "B/cyc"},
        {"setup_s", percentile(setup_ms, 0.5) / 1000.0, "s"},
        {"peak_rss_mb", peak_rss_mib(), "MiB"},
    };
    emit(failed == 0, t.attempted, failed, metrics);
    return 0;
  }

  // --- traced run: pool passes, the serial probe, the traced pass --------
  const tally pool =
      timed_passes(cells, refs, ref_errors, threads, budget_ms / 2, k_min_cells / 2);
  const tally serial = timed_passes(cells, refs, ref_errors, 1, 0.0, 1);
  traced_pass traced = run_traced(cells);
  tally tr;
  for (std::size_t i = 0; i < cells.size(); ++i)
    tr.judge(cells[i], refs[i], ref_errors[i], traced.results[i], traced.errors[i],
             traced.cell_ms[i]);
  tr.wall_ms = traced.wall_ms;

  counters layers = traced.layers;
  for (const auto& [k, v] : crypto_micro(opt.seed)) layers[k] = v;
  const double passes = static_cast<double>(pool.pass_ms.size());
  layers["fleet.busy_ms"] = pool.busy_ms / passes;
  layers["fleet.idle_ms"] = (threads * pool.wall_ms - pool.busy_ms) / passes;
  layers["fleet.steals"] = static_cast<double>(pool.steals) / passes;
  layers["fleet.scaling"] = serial.wall_ms / percentile(pool.pass_ms, 0.5);
  layers["fleet.cell_inflation"] =
      percentile(pool.cell_ms, 0.5) / percentile(serial.cell_ms, 0.5);
  layers["trace.overhead"] = serial.ops_per_s() / tr.ops_per_s();

  const u64 attempted = pool.attempted + serial.attempted + tr.attempted;
  const u64 failed = pool.failed + serial.failed + tr.failed + setup_mismatches;
  std::printf("pool: %.0f ops/s over %zu passes; serial: %.0f ops/s; traced serial: "
              "%.0f ops/s (overhead x%.4f)\n",
              pool.ops_per_s(), pool.pass_ms.size(), serial.ops_per_s(), tr.ops_per_s(),
              layers["trace.overhead"]);
  if (!tr.first_error.empty())
    std::printf("traced pass: %s\n", tr.first_error.c_str());

  if (!opt.spans_path.empty()) {
    const std::filesystem::path path(opt.spans_path);
    if (path.has_parent_path()) std::filesystem::create_directories(path.parent_path());
    std::ofstream(path) << traced.spans_json;
    std::printf("spans: %s\n", opt.spans_path.c_str());
  }

  std::vector<metric> metrics;
  for (const auto& [name, unit] : k_layer_metrics) {
    const auto it = layers.find(name);
    metrics.push_back({name, it == layers.end() ? 0.0 : it->second, unit});
  }
  emit(failed == 0, attempted, failed, metrics);
  return 0;
}
