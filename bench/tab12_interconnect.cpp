// tab12_interconnect — the topology-first interconnect at scale: the shared
// bus under contention, hierarchical arbitration, QoS classes and
// programmable bus firewalls.
//
// Four sections:
//
//  1. multimaster — the flat shared bus under contention. The survey's SoCs
//     are multi-master systems: the CPU, VLSI Technology's secure DMA engine
//     (Fig. 4) and peripherals all initiate transfers on the one external
//     bus the EDU protects. 1-4 masters of a fixed cast (CPU compute, two
//     DMA bulk copies, a peripheral poller) run on every engine under
//     round-robin and fixed-priority (with aging) arbitration. Aggregate
//     bytes/cycle shows how far each engine's crypto datapath scales as
//     bandwidth-bound masters join; per-master average latency and
//     starvation streaks show what each policy costs the others. On the
//     keyslot engine the DMA masters run inside private per-master
//     protection domains (own keys) sharing the one slot pool.
//
//  2. scaling — the fleet noc cells: {4..64} masters x {flat, 4-cluster}
//     x {QoS off, on} on Stream-OTP and the keyslot engine (the keyslot
//     cells carry per-master firewall whitelists; in-slice traffic takes
//     zero denials, so the tables are free).
//
//  3. containment — the untrusted-accelerator scenario: a master whose
//     workload strays outside its whitelist on a heterogeneous SoC (CPU
//     cluster + DMA + peripheral poller + accelerator). Every stray
//     access must be an *accounted* denial — 0xFF bus-error fill on
//     reads, dropped writes, per-rule/per-master attribution — and never
//     a plaintext leak. A bare-engine byte proof checks the fill pattern
//     and the any_master sentinel, and attack::run_tamper_suite
//     runs with the firewall attached to show the attack surface is
//     unchanged.
//
//  4. reconfig — rule tables reprogrammed under live traffic: staged by
//     a grant observer, committed at window boundaries, stage-to-commit
//     latency measured in simulated cycles.
//
// Usage: tab12_interconnect [--seed N] [--threads N]
// Emits BENCH_interconnect.json (simulated figures, consumed by CI) and its
// BENCH_interconnect.host.json sidecar (host timings).

#include "bench_json.hpp"
#include "bench_util.hpp"

#include "attack/tamper.hpp"
#include "edu/engine_edu.hpp"
#include "fleet/fleet.hpp"
#include "sim/interconnect.hpp"

#include <cstdio>
#include <span>
#include <string>
#include <vector>

namespace {

// Base seed from --seed (bench::seed_arg); 0 reproduces the committed JSON.
buscrypt::u64 g_seed = 0;

using namespace buscrypt;

// The multimaster SoC and its arbitration constants; the containment SoC
// reuses the geometry, the windows and the DMA and peripheral addresses.
constexpr unsigned kBanks = 8;
constexpr std::size_t kWindowTxns = 8;
constexpr u64 kStarvationLimit = 32;

constexpr addr_t kDma1Src = 2u << 20;
constexpr addr_t kDma1Dst = (2u << 20) + (1u << 19);
constexpr addr_t kDma2Src = 4u << 20;
constexpr addr_t kDma2Dst = (4u << 20) + (1u << 19);
constexpr addr_t kPeriphRegs = 3u << 20;
constexpr std::size_t kDmaBytes = 48 * 1024;

edu::soc_config multimaster_soc() {
  edu::soc_config cfg = bench::default_soc();
  cfg.mem_timing.banks = kBanks;
  return cfg;
}

/// The full 4-master cast; a run with N masters takes the first N.
/// Order matters for the scaling story: the bandwidth-bound DMA engines
/// join before the latency-bound peripheral.
std::vector<edu::master_desc> multimaster_cast(bool keyslot_domains) {
  std::vector<edu::master_desc> m(4);
  m[0].role = edu::master_kind::cpu;
  m[0].name = "cpu";
  m[0].work = sim::make_data_rw(4000, 64 * 1024, 0.5, 0.4, 8, 0x7AB8);
  m[0].priority = 5;
  m[1].role = edu::master_kind::dma;
  m[1].name = "dma0";
  m[1].work = sim::make_dma_copy(kDmaBytes, kDma1Src, kDma1Dst, 128, 0x7AB9);
  m[1].priority = 1;
  m[2].role = edu::master_kind::dma;
  m[2].name = "dma1";
  m[2].work = sim::make_dma_copy(kDmaBytes, kDma2Src, kDma2Dst, 128, 0x7ABA);
  m[2].priority = 1;
  m[3].role = edu::master_kind::peripheral;
  m[3].name = "periph";
  m[3].work = sim::make_peripheral_poll(2000, kPeriphRegs, 8, 64, 16, 0x7ABB);
  m[3].priority = 9;
  if (keyslot_domains) {
    m[1].domain_base = kDma1Src;
    m[1].domain_len = 1u << 20;
    m[2].domain_base = kDma2Src;
    m[2].domain_len = 1u << 20;
  }
  return m;
}

constexpr std::size_t kCast = 4;
constexpr std::size_t kPolicies = std::size(sim::all_arb_policies);

/// Every engine x policy x master count 1..4, on the fleet pool. Run i is
/// engine i / (kPolicies * kCast), policy i / kCast % kPolicies and
/// i % kCast + 1 masters.
std::vector<sim::arbiter_stats> run_multimaster(const bytes& image, unsigned threads) {
  std::vector<sim::arbiter_stats> runs(edu::all_engines().size() * kPolicies * kCast);
  (void)fleet::run_jobs(runs.size(), threads, [&](std::size_t i) {
    const edu::engine_kind kind = edu::all_engines()[i / (kPolicies * kCast)];
    const sim::arb_policy policy = sim::all_arb_policies[i / kCast % kPolicies];
    const auto cast = multimaster_cast(kind == edu::engine_kind::inline_keyslot);
    edu::secure_soc soc(kind, multimaster_soc());
    soc.load_image(0, image);
    const u64 limit = policy == sim::arb_policy::fixed_priority ? kStarvationLimit : 0;
    const sim::topology topo(sim::arbiter_config{policy, kWindowTxns, limit});
    runs[i] = soc.run_topology(std::span(cast).first(i % kCast + 1), topo).noc.bus;
  });
  return runs;
}

struct containment_result {
  bool ok = true;
  u64 accel_checks = 0;
  u64 accel_denials = 0;
  u64 rule_hits = 0;
  u64 rule_denies = 0;
  u64 engine_denials = 0;
  u64 sentinel_denials = 0;
  u64 reprograms = 0;
  double reconfig_latency_avg = 0.0;
  u64 reconfig_latency_max = 0;
  double bytes_per_cycle = 0.0;
  bool secret_intact = false;
  bool fill_ok = false;
  bool tamper_clean = false;

  void fail(const char* what) {
    ok = false;
    std::fprintf(stderr, "CONTAINMENT FAILURE: %s\n", what);
  }
};

// The heterogeneous containment SoC: keyslot engine, two clusters (cpu
// compute + trusted DMA; peripheral poller + untrusted accelerator). The
// accelerator's whitelist covers only the upper half of its 128 KiB
// region; a 4 KiB secret sits in the forbidden lower half.
constexpr addr_t kAccelBase = 5u << 20;
constexpr std::size_t kAccelHalf = 64 * 1024;
constexpr addr_t kSecretBase = kAccelBase + 4096;
constexpr std::size_t kSecretLen = 4096;
constexpr sim::master_id kAccelId = 3;

std::vector<sim::firewall_rule> accel_rules(bool split) {
  // Rule 0 pins the forbidden half to an explicit deny (per-rule
  // attribution); the rest whitelists the upper half. The split variant
  // is decision-identical — it exists so live reprogramming can be
  // exercised without changing any outcome.
  std::vector<sim::firewall_rule> t;
  t.push_back({kAccelBase, kAccelHalf, sim::fw_perm::none, 0});
  if (split) {
    t.push_back({kAccelBase + kAccelHalf, kAccelHalf / 2, sim::fw_perm::rw, 1});
    t.push_back({kAccelBase + kAccelHalf + kAccelHalf / 2, kAccelHalf / 2,
                 sim::fw_perm::rw, 1});
  } else {
    t.push_back({kAccelBase + kAccelHalf, kAccelHalf, sim::fw_perm::rw, 1});
  }
  return t;
}

containment_result run_containment(const bytes& image) {
  containment_result r;

  edu::secure_soc soc(edu::engine_kind::inline_keyslot, multimaster_soc());
  soc.load_image(0, image);
  bytes secret(kSecretLen);
  for (std::size_t i = 0; i < secret.size(); ++i)
    secret[i] = static_cast<u8>(0xA5 ^ i);
  soc.load_image(kSecretBase, secret);

  sim::topology topo(sim::arbiter_config{sim::arb_policy::round_robin,
                                         kWindowTxns, 0});
  const sim::cluster_id compute = topo.add_cluster(
      {"compute", {sim::arb_policy::round_robin, kWindowTxns, 0}, 0,
       sim::qos_class::none});
  const sim::cluster_id io = topo.add_cluster(
      {"io", {sim::arb_policy::round_robin, kWindowTxns, 0}, 0,
       sim::qos_class::none});
  topo.add_master(compute, 0);
  topo.add_master(compute, 1, sim::qos_class::bulk);
  topo.add_master(io, 2, sim::qos_class::latency);
  topo.add_master(io, kAccelId, sim::qos_class::bulk);
  for (const sim::firewall_rule& rule : accel_rules(false))
    topo.add_firewall_rule(kAccelId, rule);

  std::vector<edu::master_desc> m(4);
  m[0].role = edu::master_kind::cpu;
  m[0].name = "cpu";
  m[0].work = sim::make_data_rw(3000, 64 * 1024, 0.5, 0.4, 8, 0x7AC0);
  m[1].role = edu::master_kind::dma;
  m[1].name = "dma";
  m[1].work = sim::make_dma_copy(32 * 1024, kDma1Src, kDma1Dst,
                                 128, 0x7AC1);
  m[1].domain_base = kDma1Src;
  m[1].domain_len = 1u << 20;
  m[2].role = edu::master_kind::peripheral;
  m[2].name = "periph";
  m[2].work = sim::make_peripheral_poll(1500, kPeriphRegs, 8, 64, 16, 0x7AC2);
  m[3].role = edu::master_kind::dma;
  m[3].name = "accel";
  // The stray workload: loads and stores folded over the whole 128 KiB
  // region, half of which (including the secret) is outside the whitelist.
  m[3].work = sim::confine_workload(
      sim::make_data_rw(1500, 2 * kAccelHalf, 0.9, 0.4, 8, 0x7AC3), kAccelBase,
      2 * kAccelHalf);

  // Live reprogramming: every 24th grant, stage the alternate (but
  // decision-identical) table; the in-flight window finishes under the
  // old rules and the commit is timed at the next window boundary.
  u64 grants = 0;
  u64 staged = 0;
  const auto observe = [&](sim::interconnect& ic, sim::master_id) {
    if (++grants % 24 == 0 && staged < 6)
      ic.reprogram_firewall(kAccelId, accel_rules(++staged % 2 == 1));
  };
  const edu::topology_run_stats ts = soc.run_topology(m, topo, observe);
  r.bytes_per_cycle = ts.bytes_per_cycle();

  // Accounted denial: the accelerator took denials, nobody else did, and
  // the engine's fault-path counters agree with the firewall's.
  r.accel_checks = ts.firewall[kAccelId].checks;
  r.accel_denials = ts.firewall[kAccelId].denies;
  for (const sim::fw_rule_stats& rs : ts.firewall[kAccelId].rules) {
    r.rule_hits += rs.hits;
    r.rule_denies += rs.denies;
  }
  r.engine_denials = ts.domains.empty() ? 0 : ts.domains[kAccelId].firewall_denials;
  r.sentinel_denials = ts.sentinel_denials;
  if (r.accel_denials == 0) r.fail("accelerator took no denials");
  if (r.accel_checks <= r.accel_denials) r.fail("accelerator had no allowed traffic");
  if (r.rule_denies == 0) r.fail("deny rule attributed no refusals");
  if (r.engine_denials != r.accel_denials)
    r.fail("engine fault-path count diverges from firewall count");
  for (std::size_t i = 0; i < ts.firewall.size(); ++i)
    if (i != kAccelId && ts.firewall[i].denies != 0)
      r.fail("a trusted master was denied");

  // Reconfiguration under traffic, timed.
  r.reprograms = ts.noc.firewall_reprograms;
  r.reconfig_latency_max = ts.noc.reconfig_latency_max;
  r.reconfig_latency_avg =
      r.reprograms == 0 ? 0.0
                        : static_cast<double>(ts.noc.reconfig_latency_sum) /
                              static_cast<double>(r.reprograms);
  if (r.reprograms != staged) r.fail("staged reprograms did not all commit");
  if (r.reprograms > 0 && r.reconfig_latency_max == 0)
    r.fail("reconfig latency not measured");

  // Zero leaks, write side: the accelerator stored into the forbidden
  // half throughout the run; every one of those writes must have been
  // dropped, so the secret reads back untouched.
  r.secret_intact = soc.read_back(kSecretBase, kSecretLen) == secret;
  if (!r.secret_intact) r.fail("secret region was modified through a denied write");

  // Zero leaks, read side — byte-level proof on a bare engine: a denied
  // read returns the 0xFF bus-error fill and nothing of the plaintext; a
  // forged any_master transaction is refused whole; the tamper suite
  // runs clean with the firewall attached.
  {
    sim::dram chip(8u << 20);
    sim::external_memory ext(chip);
    rng rand(0x7AC7);
    engine::keyslot_manager slots(engine::backend_registry::builtin(), 4);
    engine::bus_encryption_engine eng(ext, slots);
    const auto ctx = eng.create_context(
        {std::string(edu::keyslot_default_backend), rand.random_bytes(16), 32});
    eng.map_region(0, 1u << 20, ctx);
    bytes plain(256);
    for (std::size_t i = 0; i < plain.size(); ++i)
      plain[i] = static_cast<u8>(0x5A ^ i);
    eng.install(0x40000, plain);

    sim::bus_firewall fw;
    fw.program(2, {{0x10000, 0x10000, sim::fw_perm::rw, 0}});
    eng.set_firewall(&fw);

    const auto read_as = [&](sim::master_id who, addr_t addr, std::span<u8> out) {
      sim::mem_txn t = sim::mem_txn::read_of(addr, out);
      t.master = who;
      eng.submit({&t, 1});
      (void)eng.drain();
    };
    bytes buf(256, 0);
    read_as(2, 0x40000, buf); // outside the whitelist: bus-error fill
    r.fill_ok = true;
    for (const u8 b : buf)
      if (b != 0xFF) r.fill_ok = false;
    if (!r.fill_ok) r.fail("denied read leaked bytes past the 0xFF fill");

    bytes junk(256, 0x77);
    sim::mem_txn w = sim::mem_txn::write_of(0x40000, junk);
    w.master = 2;
    eng.submit({&w, 1});
    (void)eng.drain();
    bytes check(256);
    eng.read_plain(0x40000, check);
    if (check != plain) r.fail("denied write reached memory");

    bytes open(256, 0);
    read_as(sim::cpu_master, 0x40000, open); // no table: port is open
    if (open != plain) r.fail("open master could not read");
    if (eng.stats().firewall_denials == 0) r.fail("bare engine counted no denials");

    bytes forged(64, 0);
    read_as(sim::any_master, 0x40000, forged);
    bool forged_filled = true;
    for (const u8 b : forged)
      if (b != 0xFF) forged_filled = false;
    if (!forged_filled || fw.sentinel_denials() == 0)
      r.fail("forged any_master transaction was not refused whole");

    const attack::tamper_report rep =
        attack::run_tamper_suite(eng, chip, 0x1000, 0x2000);
    r.tamper_clean = !rep.clean_faulted;
    if (!r.tamper_clean) r.fail("tamper suite false-faulted with firewall attached");
  }
  return r;
}

} // namespace

int main(int argc, char** argv) {
  g_seed = bench::seed_arg(argc, argv);
  // The fleet pool of the multimaster and scaling sections; 0 =
  // hardware_concurrency.
  const auto threads = static_cast<unsigned>(bench::num_arg(argc, argv, "--threads"));
  bench::end_args(argc, argv, "[--threads N]");
  bench::banner("Tab. 12 — topology-first interconnect: contention, hierarchy, QoS, "
                "firewalls",
                "Fig. 4 secure DMA as a first-class master; clustered arbitration at "
                "scale; Cotret-style rule tables on the bus");

  const bench::host_timer wall;
  unsigned long long total_txns = 0;
  const bytes image = bench::firmware_image(64 * 1024, g_seed ^ 0x5EED);

  // --- 1. multimaster: master count x policy on the flat shared bus ----------
  const std::vector<sim::arbiter_stats> mm = run_multimaster(image, threads);
  for (const sim::arbiter_stats& st : mm) total_txns += st.txns;
  for (std::size_t p = 0; p < kPolicies; ++p) {
    table t({"engine", "B/cyc x1", "B/cyc x2", "B/cyc x3", "B/cyc x4", "periph lat x4",
             "cpu max-wait x4"});
    for (std::size_t e = 0; e < edu::all_engines().size(); ++e) {
      const sim::arbiter_stats* runs = &mm[(e * kPolicies + p) * kCast];
      t.add_row({std::string(edu::engine_name(edu::all_engines()[e])),
                 table::num(runs[0].bytes_per_cycle(), 4),
                 table::num(runs[1].bytes_per_cycle(), 4),
                 table::num(runs[2].bytes_per_cycle(), 4),
                 table::num(runs[3].bytes_per_cycle(), 4),
                 table::num(runs[3].masters[3].avg_txn_latency(), 0),
                 table::num(static_cast<unsigned long long>(
                     runs[3].masters[0].max_wait_streak))});
    }
    std::printf("policy: %s\n%s\n",
                std::string(sim::arb_policy_name(sim::all_arb_policies[p])).c_str(),
                t.str().c_str());
  }
  std::printf("masters join in order cpu, dma0, dma1, periph; %u banks, windows\n"
              "of %zu txns, fixed-priority ages at %llu rounds. Keyslot DMA\n"
              "masters run in private per-master protection domains.\n\n",
              kBanks, kWindowTxns, static_cast<unsigned long long>(kStarvationLimit));

  // --- 2. scaling: masters x shape x QoS on the fleet noc cells -------------
  fleet::fleet_config scfg;
  for (const edu::engine_kind kind :
       {edu::engine_kind::stream_otp, edu::engine_kind::inline_keyslot})
    for (const std::size_t masters : {4u, 8u, 16u, 32u, 64u})
      for (const std::size_t clusters : {0u, 4u})
        for (const bool qos : {false, true}) {
          fleet::fleet_cell cell;
          cell.kind = kind;
          cell.drive = fleet::drive_mode::noc;
          cell.accesses = 4000;
          cell.noc_masters = masters;
          cell.noc_clusters = clusters;
          cell.noc_qos = qos;
          cell.noc_firewall = kind == edu::engine_kind::inline_keyslot;
          scfg.cells.push_back(std::move(cell));
        }
  scfg.threads = threads;
  const fleet::fleet_result scaling = fleet::run_fleet(scfg);
  for (const fleet::cell_result& c : scaling.cells) total_txns += c.ops;
  {
    table t({"cell", "B/cyc", "cycles", "fw denials"});
    for (const fleet::cell_result& c : scaling.cells)
      t.add_row({c.label, table::num(c.bytes_per_cycle(), 4),
                 table::num(static_cast<unsigned long long>(c.total_cycles)),
                 table::num(static_cast<unsigned long long>(c.firewall_denials))});
    std::printf("%s\n", t.str().c_str());
  }

  // --- 3 + 4. containment and live reconfiguration --------------------------
  containment_result cont = run_containment(image);
  std::printf("containment: accel %llu/%llu spans denied (rule hits %llu, rule "
              "denies %llu), engine count %llu, secret %s, fill %s, sentinel "
              "%llu, tamper %s\n",
              static_cast<unsigned long long>(cont.accel_denials),
              static_cast<unsigned long long>(cont.accel_checks),
              static_cast<unsigned long long>(cont.rule_hits),
              static_cast<unsigned long long>(cont.rule_denies),
              static_cast<unsigned long long>(cont.engine_denials),
              cont.secret_intact ? "intact" : "MODIFIED",
              cont.fill_ok ? "0xFF" : "LEAKED",
              static_cast<unsigned long long>(cont.sentinel_denials),
              cont.tamper_clean ? "clean" : "FALSE-FAULTED");
  std::printf("reconfig: %llu staged tables committed at window boundaries, "
              "latency avg %.1f max %llu cycles\n",
              static_cast<unsigned long long>(cont.reprograms),
              cont.reconfig_latency_avg,
              static_cast<unsigned long long>(cont.reconfig_latency_max));

  bench::json engines = bench::json::array();
  for (std::size_t e = 0; e < edu::all_engines().size(); ++e) {
    bench::json policies = bench::json::array();
    for (std::size_t p = 0; p < kPolicies; ++p) {
      bench::json runs = bench::json::array();
      for (std::size_t n = 1; n <= kCast; ++n) {
        const sim::arbiter_stats& st = mm[(e * kPolicies + p) * kCast + n - 1];
        bench::json per_master = bench::json::array();
        for (const sim::master_stats& ms : st.masters)
          per_master.push(bench::json::object({
              {"name", ms.name},
              {"bytes", ms.bytes},
              {"avg_latency", bench::fixed(ms.avg_txn_latency(), 1)},
              {"max_wait_streak", ms.max_wait_streak},
          }));
        runs.push(bench::json::object({
            {"masters", n},
            {"bytes_per_cycle", bench::fixed(st.bytes_per_cycle(), 6)},
            {"total_cycles", st.total_cycles},
            {"per_master", std::move(per_master)},
        }));
      }
      policies.push(bench::json::object({
          {"policy", sim::arb_policy_name(sim::all_arb_policies[p])},
          {"runs", std::move(runs)},
      }));
    }
    engines.push(bench::json::object({
        {"engine", edu::engine_name(edu::all_engines()[e])},
        {"policies", std::move(policies)},
    }));
  }
  bench::json cells = bench::json::array();
  for (std::size_t i = 0; i < scaling.cells.size(); ++i) {
    const fleet::fleet_cell& cell = scfg.cells[i];
    const fleet::cell_result& c = scaling.cells[i];
    cells.push(bench::json::object({
        {"cell", c.label},
        {"engine", edu::engine_name(cell.kind)},
        {"masters", cell.noc_masters},
        {"clusters", cell.noc_clusters},
        {"qos", cell.noc_qos},
        {"firewall", cell.noc_firewall},
        {"bytes_per_cycle", bench::fixed(c.bytes_per_cycle(), 6)},
        {"total_cycles", c.total_cycles},
        {"firewall_denials", c.firewall_denials},
    }));
  }
  const double total_ms = wall.ms();
  const bool wrote = bench::write_bench(
      "interconnect",
      bench::json::object({
          {"bench", "tab12_interconnect"},
          {"host_ms", bench::host(bench::fixed(total_ms, 1))},
          {"host_ops_per_sec",
           bench::host(bench::fixed(bench::host_ops_per_sec(total_txns, total_ms), 0))},
          {"multimaster", bench::json::object({
                              {"banks", kBanks},
                              {"window_txns", kWindowTxns},
                              {"starvation_limit", kStarvationLimit},
                              {"engines", std::move(engines)},
                          })},
          {"scaling", std::move(cells)},
          {"containment", bench::json::object({
                              {"ok", cont.ok},
                              {"accel_checks", cont.accel_checks},
                              {"accel_denials", cont.accel_denials},
                              {"rule_hits", cont.rule_hits},
                              {"rule_denies", cont.rule_denies},
                              {"engine_denials", cont.engine_denials},
                              {"sentinel_denials", cont.sentinel_denials},
                              {"secret_intact", cont.secret_intact},
                              {"fill_ok", cont.fill_ok},
                              {"tamper_clean", cont.tamper_clean},
                              {"bytes_per_cycle", bench::fixed(cont.bytes_per_cycle, 6)},
                          })},
          {"reconfig", bench::json::object({
                           {"reprograms", cont.reprograms},
                           {"latency_avg", bench::fixed(cont.reconfig_latency_avg, 1)},
                           {"latency_max", cont.reconfig_latency_max},
                       })},
      }));
  if (!cont.ok) {
    std::fprintf(stderr, "tab12_interconnect: FAILED\n");
    return 1;
  }
  return wrote ? 0 : 1;
}
