// tab9_authenticated — the cost of memory *authentication* on the keyslot
// engine, scheme x backend x workload.
//
// The survey's integrity discussion (and the follow-up literature it
// seeded: MAC-per-block, Elbaz's AREA, AEGIS-style hash trees) is about
// the price of detecting spoof/splice/replay on top of confidentiality.
// Sealer-style evaluation frames it as throughput against a near-zero-cost
// encryption baseline: this bench drives the batched transaction pipeline
// with auth_mode ∈ {none, mac, area, hash-tree} over the AES-CTR and
// AES-ECB keyslot engines and reports bytes/cycle, tag-cache hit rate and
// bus-traffic overhead (AREA's claim is exactly zero extra beats; the tag
// cache is what keeps mac's far below naive). A tamper section re-runs the
// attack trio against each scheme so CI can gate on detection, not just
// speed.
//
// Emits BENCH_authenticated.json (simulated figures, consumed by CI) and its
// BENCH_authenticated.host.json sidecar (host timings).

#include "attack/tamper.hpp"
#include "bench_json.hpp"
#include "bench_util.hpp"
#include "edu/engine_edu.hpp"

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

namespace {

using namespace buscrypt;

constexpr unsigned kBanks = 8;
constexpr std::size_t kBatchTxns = 16;
constexpr addr_t kWindow = 256 * 1024; // authenticated range = workload range
constexpr addr_t kTagBase = 6u << 20;

constexpr engine::auth_mode kSchemes[] = {
    engine::auth_mode::none, engine::auth_mode::mac, engine::auth_mode::area,
    engine::auth_mode::hash_tree};
constexpr const char* kBackends[] = {"aes-ctr", "aes-ecb"};

// Base seed from --seed (bench::seed_arg); 0 reproduces the committed JSON.
u64 g_seed = 0;

sim::workload mixed_heavy() {
  sim::workload w = sim::make_jumpy_code(20'000, kWindow, 0.15, g_seed ^ 0x7AB9);
  sim::workload s = sim::make_streaming(6'000, kWindow, 4, g_seed ^ 0x7ABA);
  w.accesses.insert(w.accesses.end(), s.accesses.begin(), s.accesses.end());
  w.name = "mixed-heavy";
  return w;
}

sim::workload streaming_store() {
  sim::workload w = sim::make_streaming(12'000, kWindow, 3, g_seed ^ 0x7ABB);
  w.name = "streaming";
  return w;
}

struct run_result {
  std::string workload;
  double bytes_per_cycle = 0.0;
  u64 ops = 0;
  u64 bus_beats = 0;
  double tag_hit_rate = 0.0;
  u64 integrity_faults = 0;
  cycles auth_cycles = 0;
  std::size_t tag_memory_bytes = 0;
  std::size_t onchip_bytes = 0;
  double traffic_overhead = 0.0; ///< beats vs the same backend's none run
};

struct scheme_result {
  engine::auth_mode mode = engine::auth_mode::none;
  bool supported = true;
  std::vector<run_result> runs;
};

struct engine_result {
  std::string backend;
  std::string name;
  std::vector<scheme_result> schemes;
};

std::optional<run_result> run_one(const char* backend, engine::auth_mode mode,
                                  const sim::workload& w) {
  edu::soc_config cfg = bench::default_soc();
  cfg.mem_timing.banks = kBanks;
  cfg.keyslot_backend = backend;
  cfg.keyslot_auth = mode;
  cfg.keyslot_auth_limit = kWindow;
  cfg.keyslot_auth_tag_base = kTagBase;
  std::unique_ptr<edu::secure_soc> soc;
  try {
    soc = std::make_unique<edu::secure_soc>(edu::engine_kind::inline_keyslot, cfg);
  } catch (const std::invalid_argument&) {
    return std::nullopt; // AREA on a pad-precomputable backend
  }
  soc->load_image(0, bench::firmware_image(kWindow, g_seed ^ 0x5EED));

  const u64 beats_before = soc->external().beats();
  run_result r;
  r.workload = w.name;
  const auto st = soc->run_throughput(w, kBatchTxns);
  r.bytes_per_cycle = st.bytes_per_cycle();
  r.ops = st.ops;
  r.bus_beats = soc->external().beats() - beats_before;

  auto& adapter = static_cast<edu::engine_edu&>(soc->engine());
  r.integrity_faults = adapter.engine().stats().integrity_faults;
  if (const engine::memory_authenticator* auth = adapter.auth()) {
    const auto& as = auth->stats();
    const u64 probes = as.tag_hits + as.tag_misses;
    r.tag_hit_rate = probes == 0 ? 0.0
                                 : static_cast<double>(as.tag_hits) /
                                       static_cast<double>(probes);
    r.auth_cycles = as.auth_cycles;
    r.tag_memory_bytes = auth->tag_memory_bytes();
    r.onchip_bytes = auth->onchip_bytes();
  }
  return r;
}

struct tamper_row {
  std::string backend;
  engine::auth_mode mode = engine::auth_mode::none;
  attack::tamper_report rep;
};

tamper_row tamper_one(const char* backend, engine::auth_mode mode) {
  tamper_row row;
  row.backend = backend;
  row.mode = mode;
  sim::dram chip(8u << 20);
  sim::external_memory ext(chip);
  rng r(g_seed ^ 0x7A5);
  engine::keyslot_manager slots(engine::backend_registry::builtin(), 4);
  engine::bus_encryption_engine eng(ext, slots);
  const auto ctx = eng.create_context({backend, r.random_bytes(16), 32});
  eng.map_region(0, 1u << 20, ctx);
  if (mode != engine::auth_mode::none) {
    engine::auth_config acfg;
    acfg.mode = mode;
    acfg.key = r.random_bytes(16);
    acfg.base = 0;
    acfg.limit = 64 * 1024;
    acfg.tag_base = kTagBase;
    (void)eng.attach_auth(ctx, acfg);
  }
  row.rep = attack::run_tamper_suite(eng, chip, 0x1000, 0x2000);
  return row;
}

} // namespace

int main(int argc, char** argv) {
  g_seed = bench::seed_arg(argc, argv);
  bench::banner("Tab. 9 — authenticated memory: mac / AREA / hash tree on the "
                "keyslot engine",
                "integrity discussion + MAC-per-block / AREA / AEGIS-tree "
                "follow-up work");

  const std::vector<sim::workload> workloads = {mixed_heavy(), streaming_store()};

  const bench::host_timer wall;
  std::vector<engine_result> results;
  for (const char* backend : kBackends) {
    engine_result er;
    er.backend = backend;
    er.name = std::string(edu::keyslot_name_prefix) + backend;
    for (const engine::auth_mode mode : kSchemes) {
      scheme_result sr;
      sr.mode = mode;
      for (const sim::workload& w : workloads) {
        auto r = run_one(backend, mode, w);
        if (!r) {
          sr.supported = false;
          break;
        }
        sr.runs.push_back(std::move(*r));
      }
      er.schemes.push_back(std::move(sr));
    }
    // Traffic overhead against the same backend's none baseline.
    const auto& base_runs = er.schemes.front().runs;
    for (scheme_result& sr : er.schemes)
      for (std::size_t i = 0; i < sr.runs.size(); ++i)
        sr.runs[i].traffic_overhead =
            static_cast<double>(sr.runs[i].bus_beats) /
                static_cast<double>(base_runs[i].bus_beats) -
            1.0;
    results.push_back(std::move(er));
  }

  table t({"engine", "scheme", "workload", "B/cyc", "tag hit%", "beats overhead",
           "faults"});
  for (const engine_result& er : results)
    for (const scheme_result& sr : er.schemes) {
      if (!sr.supported) {
        t.add_row({er.name, std::string(engine::auth_mode_name(sr.mode)),
                   "(unsupported: needs block diffusion)", "-", "-", "-", "-"});
        continue;
      }
      for (const run_result& r : sr.runs)
        t.add_row({er.name, std::string(engine::auth_mode_name(sr.mode)), r.workload,
                   table::num(r.bytes_per_cycle, 4), table::num(r.tag_hit_rate * 100, 1),
                   table::num(r.traffic_overhead * 100, 2) + "%",
                   table::num(static_cast<unsigned long long>(r.integrity_faults))});
    }
  std::printf("%s\n", t.str().c_str());
  std::printf("window %u KiB, %u banks, batches of %zu txns. AREA rides widened\n"
              "memory (0 extra beats); mac pays cached tag traffic; the hash\n"
              "tree pays a node walk per cold verify but keeps one root on-chip.\n\n",
              static_cast<unsigned>(kWindow / 1024), kBanks, kBatchTxns);

  // Detection matrix for the CI gate.
  std::vector<tamper_row> tampers;
  for (const char* backend : kBackends)
    for (const engine::auth_mode mode : kSchemes) {
      if (mode == engine::auth_mode::area && std::string(backend) != "aes-ecb")
        continue; // rejected by attach: nothing to measure
      tampers.push_back(tamper_one(backend, mode));
    }
  table dt({"engine", "scheme", "clean", "spoof", "splice", "replay"});
  for (const tamper_row& row : tampers) {
    auto cell = [](bool detected) { return detected ? "caught" : "LANDS"; };
    dt.add_row({std::string(edu::keyslot_name_prefix) + row.backend,
                std::string(engine::auth_mode_name(row.mode)),
                row.rep.clean_faulted ? "FALSE FAULT" : "ok", cell(row.rep.spoof_detected),
                cell(row.rep.splice_detected), cell(row.rep.replay_detected)});
  }
  std::printf("%s\n", dt.str().c_str());

  const double total_ms = wall.ms();
  unsigned long long total_ops = 0;
  bench::json engines = bench::json::array();
  for (const engine_result& er : results) {
    bench::json schemes = bench::json::array();
    for (const scheme_result& sr : er.schemes) {
      bench::json scheme = bench::json::object({
          {"scheme", engine::auth_mode_name(sr.mode)},
          {"supported", sr.supported},
      });
      if (sr.supported) {
        bench::json runs = bench::json::array();
        for (const run_result& r : sr.runs) {
          total_ops += r.ops;
          runs.push(bench::json::object({
              {"workload", r.workload},
              {"bytes_per_cycle", bench::fixed(r.bytes_per_cycle, 6)},
              {"bus_beats", r.bus_beats},
              {"traffic_overhead", bench::fixed(r.traffic_overhead, 6)},
              {"tag_hit_rate", bench::fixed(r.tag_hit_rate, 4)},
              {"integrity_faults", r.integrity_faults},
              {"auth_cycles", r.auth_cycles},
              {"tag_memory_bytes", r.tag_memory_bytes},
              {"onchip_bytes", r.onchip_bytes},
          }));
        }
        scheme.add("workloads", std::move(runs));
      }
      schemes.push(std::move(scheme));
    }
    engines.push(bench::json::object({
        {"engine", er.name},
        {"backend", er.backend},
        {"schemes", std::move(schemes)},
    }));
  }
  bench::json tamper = bench::json::array();
  for (const tamper_row& row : tampers)
    tamper.push(bench::json::object({
        {"backend", row.backend},
        {"scheme", engine::auth_mode_name(row.mode)},
        {"clean", !row.rep.clean_faulted},
        {"spoof", row.rep.spoof_detected},
        {"splice", row.rep.splice_detected},
        {"replay", row.rep.replay_detected},
    }));
  const bool wrote = bench::write_bench(
      "authenticated",
      bench::json::object({
          {"bench", "tab9_authenticated"},
          {"window_bytes", kWindow},
          {"banks", kBanks},
          {"batch_txns", kBatchTxns},
          {"host_ms", bench::host(bench::fixed(total_ms, 1))},
          {"host_ops_per_sec",
           bench::host(bench::fixed(bench::host_ops_per_sec(total_ops, total_ms), 0))},
          {"engines", std::move(engines)},
          {"tamper", std::move(tamper)},
      }));
  return wrote ? 0 : 1;
}
