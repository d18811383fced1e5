// tab7_throughput — sustained engine throughput, scalar vs batched issue.
//
// The survey's performance story is about *overlap*: keystream generated in
// parallel with the fetch (Fig. 2a), XOM's pipelined AES, Gilmont's fetch
// prediction. A scalar read/write seam can't express any of it; the
// transaction pipeline (sim::mem_txn + submit/drain) can. This bench drives
// every engine with the same line-granular request stream twice — one
// blocking request at a time, then in transaction batches over a multi-bank
// DRAM — and reports bytes/cycle for both, i.e. the requests/sec view that
// throughput-oriented memory-encryption evaluation (Sealer-style) uses.
//
// Emits BENCH_throughput.json (simulated figures, consumed by CI) and its
// BENCH_throughput.host.json sidecar (host timings) next to the console
// table.

#include "bench_json.hpp"
#include "bench_util.hpp"

#include <cstdio>
#include <string>
#include <vector>

namespace {

constexpr unsigned kBanks = 8;
constexpr std::size_t kBatchTxns = 16;

buscrypt::edu::soc_config throughput_soc() {
  buscrypt::edu::soc_config cfg = buscrypt::bench::default_soc();
  cfg.mem_timing.banks = kBanks;
  return cfg;
}

struct engine_result {
  std::string name;
  buscrypt::sim::throughput_stats scalar;
  buscrypt::sim::throughput_stats batched;
  // Per-run host wall time, kept separate: the fleet runner (tab10) uses
  // the per-cell figure as its speedup denominator, and a combined number
  // would hide that the scalar run dominates the serial-decipher engines.
  double host_ms_scalar = 0.0;
  double host_ms_batched = 0.0;

  [[nodiscard]] double host_ms() const { return host_ms_scalar + host_ms_batched; }

  [[nodiscard]] double speedup() const {
    return scalar.bytes_per_cycle() == 0.0
               ? 0.0
               : batched.bytes_per_cycle() / scalar.bytes_per_cycle();
  }
};

} // namespace

int main(int argc, char** argv) {
  using namespace buscrypt;
  const u64 seed = bench::seed_arg(argc, argv);
  bench::banner("Tab. 7 — sustained throughput, scalar vs batched transactions",
                "Fig. 2a overlap / XOM pipelined AES, as requests-per-cycle");

  // Heavy mixed traffic: branchy fetch over many DRAM rows plus a streaming
  // store component, so both banks and write paths stay busy.
  sim::workload w = sim::make_jumpy_code(30'000, 256 * 1024, 0.15, seed ^ 0x7AB7);
  sim::workload s = sim::make_streaming(8'000, 256 * 1024, 4, seed ^ 0x7AB8);
  w.accesses.insert(w.accesses.end(), s.accesses.begin(), s.accesses.end());
  w.name = "mixed-heavy";

  const bytes image = bench::firmware_image(256 * 1024, seed ^ 0x5EED);

  std::vector<engine_result> results;
  for (edu::engine_kind kind : edu::all_engines()) {
    engine_result r;
    r.name = std::string(edu::engine_name(kind));
    {
      const bench::host_timer scalar_wall;
      edu::secure_soc soc(kind, throughput_soc());
      soc.load_image(0, image);
      r.scalar = soc.run_throughput(w, 1);
      r.host_ms_scalar = scalar_wall.ms();
    }
    {
      const bench::host_timer batched_wall;
      edu::secure_soc soc(kind, throughput_soc());
      soc.load_image(0, image);
      r.batched = soc.run_throughput(w, kBatchTxns);
      r.host_ms_batched = batched_wall.ms();
    }
    results.push_back(std::move(r));
  }
  // The top-level figures are recomputed from the per-engine scalar +
  // batched splits rather than the wall timer, so they stay the exact sum
  // of the rows (the wall also counts SoC construction, image loads and
  // table formatting, which drifts the aggregate as engines get faster).
  double total_ms = 0.0;
  unsigned long long total_ops = 0;
  for (const engine_result& r : results) {
    total_ms += r.host_ms();
    total_ops += r.scalar.ops + r.batched.ops;
  }

  table t({"engine", "ops", "scalar B/cyc", "batched B/cyc", "speedup"});
  for (const engine_result& r : results)
    t.add_row({r.name, table::num(static_cast<unsigned long long>(r.scalar.ops)),
               table::num(r.scalar.bytes_per_cycle(), 4),
               table::num(r.batched.bytes_per_cycle(), 4),
               table::num(r.speedup(), 2) + "x"});
  std::printf("%s\n", t.str().c_str());
  std::printf("workload: %s, %u banks, batch of %zu txns; identical request\n"
              "stream both runs — the delta is pure overlap, not work elided.\n",
              w.name.c_str(), kBanks, kBatchTxns);

  bench::json engines = bench::json::array();
  for (const engine_result& r : results)
    engines.push(bench::json::object({
        {"engine", r.name},
        {"ops", r.scalar.ops},
        {"scalar_bytes_per_cycle", bench::fixed(r.scalar.bytes_per_cycle(), 6)},
        {"batched_bytes_per_cycle", bench::fixed(r.batched.bytes_per_cycle(), 6)},
        {"speedup", bench::fixed(r.speedup(), 4)},
        {"host_ms", bench::host(bench::fixed(r.host_ms(), 1))},
        {"host_ms_scalar", bench::host(bench::fixed(r.host_ms_scalar, 1))},
        {"host_ms_batched", bench::host(bench::fixed(r.host_ms_batched, 1))},
        {"host_ops_per_sec",
         bench::host(bench::fixed(
             bench::host_ops_per_sec(r.scalar.ops + r.batched.ops, r.host_ms()), 0))},
    }));
  const bool wrote = bench::write_bench(
      "throughput",
      bench::json::object({
          {"bench", "tab7_throughput"},
          {"workload", w.name},
          {"banks", kBanks},
          {"batch_txns", kBatchTxns},
          {"host_ms", bench::host(bench::fixed(total_ms, 1))},
          {"host_ops_per_sec",
           bench::host(bench::fixed(bench::host_ops_per_sec(total_ops, total_ms), 0))},
          {"engines", std::move(engines)},
      }));
  return wrote ? 0 : 1;
}
