// tab11_keyslot_churn — keyslot churn at scale: Zipf context storms
// against the slot pool, swept over eviction policy x pool size x skew.
//
// The survey's keyslot-style engines assume a small fixed pool absorbs
// traffic from many encryption contexts — the exact problem Linux's
// blk-crypto keyslot manager solves. This bench quantifies how the pool
// behaves when the context population is 1000x the slot count and
// popularity is Zipf-skewed: warm-hit rate, demand reprograms and their
// stall cycles, software fallbacks when in-flight requests pin the pool
// out, occupancy, and the resulting bytes/cycle — per policy (LRU,
// CLOCK, usage-aware, prefetch), per pool size, per skew.
//
// Two built-in proofs, mirroring tab10: (1) every churn cell is run
// serially and on the shuffled work-stealing fleet and must be
// bit-identical; (2) the four policies drive the same SoC workload to
// bit-identical DRAM images (policies move telemetry, never bytes). A
// failure of either exits nonzero.
//
// Emits BENCH_keyslot.json (simulated figures, consumed by CI) and its
// BENCH_keyslot.host.json sidecar (walls, threads, speedup) next to the
// console table.

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "engine/churn.hpp"
#include "fleet/fleet.hpp"

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

int main(int argc, char** argv) {
  using namespace buscrypt;
  const u64 base_seed = bench::seed_arg(argc, argv, 0x5EC5EEDULL);
  // --threads 0 = hardware_concurrency; --contexts is the Zipf rank
  // population and --ops the storm length of each cell. --policy filters
  // the storm grid by slot_policy_name spelling; the cross-policy
  // equivalence proof always runs all four.
  const auto threads = static_cast<unsigned>(bench::num_arg(argc, argv, "--threads"));
  const std::size_t contexts = bench::num_arg(argc, argv, "--contexts", 100'000);
  const std::size_t ops = bench::num_arg(argc, argv, "--ops", 150'000);
  const char* policy_name = bench::take_arg(argc, argv, "--policy");
  engine::slot_policy only = engine::slot_policy::lru;
  if (policy_name != nullptr && !engine::parse_slot_policy(policy_name, only)) {
    std::fprintf(stderr, "unknown --policy '%s'\n", policy_name);
    return 2;
  }
  bench::end_args(argc, argv, "[--threads N] [--contexts N] [--ops N] [--policy NAME]");
  bench::banner("Tab. 11 — keyslot churn: Zipf context storms vs eviction policy",
                "pool behaviour when contexts outnumber slots 1000:1 (blk-crypto)");

  const u64 kSeed = base_seed;

  // The grid: policy x pool {4, 16} x skew {0.8, 1.2}. in_flight == 4
  // means the small pool saturates (misses pin out and fall back) while
  // the large pool isolates pure eviction behaviour.
  fleet::churn_fleet_config cfg;
  for (const engine::slot_policy policy : engine::all_slot_policies) {
    if (policy_name != nullptr && policy != only) continue;
    for (const unsigned pool : {4u, 16u})
      for (const double skew : {0.8, 1.2}) {
        engine::churn_config c;
        c.contexts = contexts;
        c.ops = ops;
        c.zipf_s = skew;
        c.slots = pool;
        c.in_flight = 4;
        c.policy = policy;
        c.seed = kSeed;
        cfg.cells.push_back(std::move(c));
      }
  }

  // Serial reference, then the shuffled work-stealing fleet: every cell
  // must be bit-identical between the two (the tab10 determinism proof,
  // on churn cells).
  cfg.threads = 1;
  cfg.shuffle = false;
  const fleet::churn_fleet_result serial = fleet::run_churn_fleet(cfg);

  cfg.threads = threads;
  cfg.shuffle = true;
  cfg.shuffle_seed = kSeed;
  const fleet::churn_fleet_result fleet_run = fleet::run_churn_fleet(cfg);

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

  // Cross-policy equivalence on a real SoC workload: same cell, four
  // policies, a deliberately tiny pool — DRAM fingerprints must match
  // and nobody may fault. This is the bit the CI gate trusts.
  bool policies_equivalent = true;
  u64 fault_total = 0;
  {
    fleet::fleet_config pcfg;
    for (const engine::slot_policy policy : engine::all_slot_policies) {
      fleet::fleet_cell cell;
      cell.kind = edu::engine_kind::inline_keyslot;
      cell.accesses = 4000;
      cell.seed = kSeed;
      cell.policy = policy;
      cell.keyslot_slots = 2;
      pcfg.cells.push_back(std::move(cell));
    }
    pcfg.threads = threads;
    const fleet::fleet_result pr = fleet::run_fleet(pcfg);
    for (std::size_t i = 0; i < pr.cells.size(); ++i) {
      fault_total += pr.cells[i].integrity_faults + pr.cells[i].domain_faults;
      if (pr.cells[i].dram_fnv != pr.cells[0].dram_fnv) {
        policies_equivalent = false;
        std::fprintf(stderr, "POLICY MISMATCH %s: DRAM diverged from %s\n",
                     pr.cells[i].label.c_str(), pr.cells[0].label.c_str());
      }
    }
  }
  if (!policies_equivalent || fault_total != 0) {
    std::fprintf(stderr, "cross-policy equivalence failed (faults: %llu)\n",
                 static_cast<unsigned long long>(fault_total));
    return 1;
  }

  table t({"cell", "warm-hit", "cold", "reprog", "prefetch", "stall cyc",
           "fallback", "occ", "B/cyc"});
  for (const engine::churn_result& c : serial.cells)
    t.add_row({c.label, table::num(100.0 * c.warm_hit_rate(), 1) + "%",
               table::num(static_cast<unsigned long long>(c.slots.cold_programs)),
               table::num(static_cast<unsigned long long>(c.slots.reprograms)),
               table::num(static_cast<unsigned long long>(c.slots.prefetch_programs)),
               table::num(static_cast<unsigned long long>(c.stall_cycles)),
               table::num(100.0 * c.fallback_rate(), 1) + "%",
               table::num(c.mean_occupancy(), 2), table::num(c.bytes_per_cycle(), 4)});
  std::printf("%s\n", t.str().c_str());

  const double speedup =
      fleet_run.host_ms <= 0.0 ? 0.0 : serial.host_ms / fleet_run.host_ms;
  std::printf("cells: %zu  threads: %u (hw %u)  steals: %llu\n", cfg.cells.size(),
              fleet_run.pool.threads, std::thread::hardware_concurrency(),
              static_cast<unsigned long long>(fleet_run.pool.steals));
  std::printf("serial wall: %.1f ms   fleet wall: %.1f ms   speedup: %.2fx\n",
              serial.host_ms, fleet_run.host_ms, speedup);
  std::printf("determinism: all %zu churn cells bit-identical serial vs fleet\n",
              cfg.cells.size());
  std::printf("equivalence: 4 policies, bit-identical DRAM, 0 faults\n");

  bench::json matrix = bench::json::array();
  for (std::size_t i = 0; i < cfg.cells.size(); ++i) {
    const engine::churn_result& c = serial.cells[i];
    const engine::churn_config& cc = cfg.cells[i];
    matrix.push(bench::json::object({
        {"cell", c.label},
        {"policy", engine::slot_policy_name(cc.policy)},
        {"pool", cc.slots},
        {"zipf_s", bench::fixed(cc.zipf_s, 2)},
        {"ops", c.ops},
        {"warm_hit_rate", bench::fixed(c.warm_hit_rate(), 6)},
        {"cold_programs", c.slots.cold_programs},
        {"reprograms", c.slots.reprograms},
        {"prefetch_programs", c.slots.prefetch_programs},
        {"evictions", c.slots.evictions},
        {"reprogram_stall_cycles", c.stall_cycles},
        {"fallbacks", c.fallbacks},
        {"fallback_rate", bench::fixed(c.fallback_rate(), 6)},
        {"mean_occupancy", bench::fixed(c.mean_occupancy(), 4)},
        {"bytes", c.bytes},
        {"cycles", c.total_cycles},
        {"bytes_per_cycle", bench::fixed(c.bytes_per_cycle(), 6)},
        {"draw_fnv", bench::hex64(c.draw_fnv)},
    }));
  }
  const bool wrote = bench::write_bench(
      "keyslot",
      bench::json::object({
          {"bench", "tab11_keyslot_churn"},
          {"cells", cfg.cells.size()},
          {"threads", bench::host(fleet_run.pool.threads)},
          {"hardware_concurrency", bench::host(std::thread::hardware_concurrency())},
          {"contexts", contexts},
          {"ops", ops},
          {"in_flight", 4},
          {"equivalent", true},
          {"policies_equivalent", true},
          {"policy_faults", fault_total},
          {"serial_host_ms", bench::host(bench::fixed(serial.host_ms, 1))},
          {"fleet_host_ms", bench::host(bench::fixed(fleet_run.host_ms, 1))},
          {"speedup", bench::host(bench::fixed(speedup, 2))},
          {"matrix", std::move(matrix)},
      }));
  return wrote ? 0 : 1;
}
