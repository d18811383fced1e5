// tab10_fleet — many-SoC fleet: the 16-engine matrix on a work-stealing
// thread pool, with a built-in determinism proof.
//
// The survey's engines are deterministic single-SoC models; the
// production-scale axis is horizontal — run many independent SoC cells
// (engine x traffic x auth x seed) in parallel, the way Linux's
// inline-encryption layer multiplexes many request queues over one
// keyslot pool. This bench runs the same cell matrix twice: serially
// (threads=1, the per-cell host_ms denominator) and on the fleet pool in
// a deterministically shuffled order, then proves cell-by-cell
// bit-equivalence (cycles, DRAM image fingerprint, engine counters)
// before reporting the host-side speedup. A mismatch is a shared-state
// bug and exits nonzero.
//
// Emits BENCH_fleet.json (simulated figures, consumed by CI) and its
// BENCH_fleet.host.json sidecar (walls, threads, steals, speedup) next to
// the console table.

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "fleet/fleet.hpp"

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

int main(int argc, char** argv) {
  using namespace buscrypt;
  const u64 base_seed = bench::seed_arg(argc, argv, 0x5EC5EEDULL);
  // --threads 0 = hardware_concurrency; --accesses is the per-cell workload
  // length; --seeds K replicates the whole matrix over K seeds; --no-auth
  // drops the keyslot auth trio.
  const auto threads = static_cast<unsigned>(bench::num_arg(argc, argv, "--threads"));
  const std::size_t accesses = bench::num_arg(argc, argv, "--accesses", 6000);
  const std::size_t seeds = bench::num_arg(argc, argv, "--seeds", 1);
  const bool auth_cells = !bench::flag_arg(argc, argv, "--no-auth");
  bench::end_args(argc, argv, "[--threads N] [--accesses N] [--seeds K] [--no-auth]");
  bench::banner("Tab. 10 — many-SoC fleet: parallel scenario matrix",
                "horizontal scale over the whole survey (tab1/tab7 matrices)");

  // The cell matrix: every engine (auth none), plus the keyslot engine
  // under each authentication scheme, replicated across --seeds seeds.
  const u64 kSeed = base_seed;
  std::vector<fleet::fleet_cell> base = fleet::engine_matrix(accesses, kSeed);
  if (auth_cells) {
    for (const engine::auth_mode m : {engine::auth_mode::mac, engine::auth_mode::area,
                                      engine::auth_mode::hash_tree}) {
      fleet::fleet_cell c;
      c.kind = edu::engine_kind::inline_keyslot;
      c.accesses = accesses;
      c.seed = kSeed;
      c.auth = m;
      if (m == engine::auth_mode::area) c.backend = "aes-ecb"; // AREA rejects CTR
      base.push_back(std::move(c));
    }
  }
  fleet::fleet_config cfg;
  for (std::size_t s = 0; s < seeds; ++s)
    for (fleet::fleet_cell c : base) {
      c.seed = kSeed + s;
      cfg.cells.push_back(std::move(c));
    }

  // Serial reference: same cells, one thread, config order. Its per-cell
  // host_ms is the honest speedup denominator (per cell, not whole-sweep).
  cfg.threads = 1;
  cfg.shuffle = false;
  const fleet::fleet_result serial = fleet::run_fleet(cfg);

  // The fleet proper: work-stealing pool, deterministically shuffled
  // execution order — the anti-ordering stress for shared state.
  cfg.threads = threads;
  cfg.shuffle = true;
  cfg.shuffle_seed = kSeed;
  const fleet::fleet_result fleet_run = fleet::run_fleet(cfg);

  // Determinism proof: every cell bit-equal between the two runs.
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < cfg.cells.size(); ++i)
    if (!fleet_run.cells[i].sim_equal(serial.cells[i])) {
      ++mismatches;
      std::fprintf(stderr, "MISMATCH %s: fleet run diverged from serial run\n",
                   serial.cells[i].label.c_str());
    }
  if (mismatches != 0) {
    std::fprintf(stderr, "%zu/%zu cells diverged — shared-state bug\n", mismatches,
                 cfg.cells.size());
    return 1;
  }

  table t({"cell", "ops", "B/cyc", "serial ms", "fleet ms"});
  for (std::size_t i = 0; i < cfg.cells.size(); ++i) {
    const fleet::cell_result& c = serial.cells[i];
    t.add_row({c.label, table::num(static_cast<unsigned long long>(c.ops)),
               table::num(c.bytes_per_cycle(), 4), table::num(c.host_ms, 1),
               table::num(fleet_run.cells[i].host_ms, 1)});
  }
  std::printf("%s\n", t.str().c_str());

  const double speedup =
      fleet_run.host_ms <= 0.0 ? 0.0 : serial.host_ms / fleet_run.host_ms;
  std::printf("cells: %zu  threads: %u (hw %u)  steals: %llu\n",
              cfg.cells.size(), fleet_run.pool.threads,
              std::thread::hardware_concurrency(),
              static_cast<unsigned long long>(fleet_run.pool.steals));
  std::printf("serial wall: %.1f ms   fleet wall: %.1f ms   speedup: %.2fx\n",
              serial.host_ms, fleet_run.host_ms, speedup);
  std::printf("aggregate host txns/sec (fleet): %.0f\n", fleet_run.host_txns_per_sec());
  std::printf("determinism: all %zu cells bit-identical serial vs fleet\n",
              cfg.cells.size());

  bench::json matrix = bench::json::array();
  for (std::size_t i = 0; i < cfg.cells.size(); ++i) {
    const fleet::cell_result& c = serial.cells[i];
    matrix.push(bench::json::object({
        {"cell", c.label},
        {"auth", engine::auth_mode_name(cfg.cells[i].auth)},
        {"ops", c.ops},
        {"bytes", c.bytes},
        {"cycles", c.total_cycles},
        {"bytes_per_cycle", bench::fixed(c.bytes_per_cycle(), 6)},
        {"integrity_faults", c.integrity_faults},
        {"dram_fnv", bench::hex64(c.dram_fnv)},
        {"serial_host_ms", bench::host(bench::fixed(c.host_ms, 1))},
        {"fleet_host_ms", bench::host(bench::fixed(fleet_run.cells[i].host_ms, 1))},
    }));
  }
  const bool wrote = bench::write_bench(
      "fleet",
      bench::json::object({
          {"bench", "tab10_fleet"},
          {"cells", cfg.cells.size()},
          {"threads", bench::host(fleet_run.pool.threads)},
          {"hardware_concurrency", bench::host(std::thread::hardware_concurrency())},
          {"steals", bench::host(fleet_run.pool.steals)},
          {"accesses", accesses},
          {"seeds", seeds},
          {"equivalent", true},
          {"serial_host_ms", bench::host(bench::fixed(serial.host_ms, 1))},
          {"fleet_host_ms", bench::host(bench::fixed(fleet_run.host_ms, 1))},
          {"speedup", bench::host(bench::fixed(speedup, 2))},
          {"host_txns_per_sec",
           bench::host(bench::fixed(fleet_run.host_txns_per_sec(), 0))},
          {"matrix", std::move(matrix)},
      }));
  return wrote ? 0 : 1;
}
