#include "bench.hpp"

#include "common/rng.hpp"

#include <array>

namespace perfbench {

namespace fleet = buscrypt::fleet;
namespace engine = buscrypt::engine;
namespace edu = buscrypt::edu;

namespace {

// Cell sizes. Each workload's cell list takes one to two seconds on four
// cores, so set-up stays short and a 20 s run retires every cell many
// times (hundreds to thousands of latency samples).
constexpr std::size_t k_soc_accesses = 2000;
constexpr std::size_t k_soc_seeds = 2;
constexpr std::size_t k_auth_accesses = 3000;
constexpr std::size_t k_auth_seeds = 2;
// Storm lengths per skew: a z=0.8 op misses (and expands a key) more
// often than a z=1.2 op, so the flatter storm is shorter and every storm
// costs about the same host time. That keeps the cell-latency
// distribution single-peaked, so its p50 does not sit between two peaks.
constexpr std::size_t k_churn_ops_flat = 2400;  // z = 0.8
constexpr std::size_t k_churn_ops_skewed = 3400; // z = 1.2
constexpr std::size_t k_churn_seeds = 2;
constexpr std::size_t k_lifetime_runs = 16;

/// SplitMix64: distinct, well-mixed cell seeds from one workload seed.
u64 mix(u64 x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::vector<cell> soc_matrix(u64 seed) {
  constexpr fleet::drive_mode drives[] = {fleet::drive_mode::batched,
                                          fleet::drive_mode::cpu, fleet::drive_mode::noc};
  constexpr fleet::traffic loads[] = {fleet::traffic::mixed, fleet::traffic::data_rw};
  std::vector<cell> cells;
  for (std::size_t s = 0; s < k_soc_seeds; ++s)
    for (const edu::engine_kind kind : edu::all_engines())
      for (const fleet::drive_mode drive : drives)
        for (const fleet::traffic load : loads) {
        cell c;
        c.soc.kind = kind;
        c.soc.drive = drive;
        c.soc.load = load;
        c.soc.accesses = k_soc_accesses;
        c.soc.seed = mix(seed + s);
        if (drive == fleet::drive_mode::noc) {
          c.soc.noc_masters = 16;
          c.soc.noc_clusters = 4;
          c.soc.noc_qos = true;
          c.soc.noc_firewall = true;
        }
        cells.push_back(std::move(c));
      }
  return cells;
}

std::vector<cell> auth_fetch(u64 seed) {
  struct scheme {
    engine::auth_mode auth;
    const char* backend;
  };
  constexpr scheme schemes[] = {{engine::auth_mode::mac, "aes-ctr"},
                                {engine::auth_mode::hash_tree, "aes-ctr"},
                                {engine::auth_mode::area, "aes-ecb"}};
  constexpr fleet::traffic loads[] = {fleet::traffic::jumpy, fleet::traffic::streaming,
                                      fleet::traffic::mixed};
  // 4 KiB sits inside the 16-line tag cache's reach (16 lines x 8 tags x
  // 32 B units); 256 KiB is 64 times beyond it.
  constexpr std::size_t footprints[] = {4u << 10, 256u << 10};
  std::vector<cell> cells;
  for (std::size_t s = 0; s < k_auth_seeds; ++s)
    for (const scheme& sc : schemes)
      for (const fleet::traffic load : loads)
        for (const std::size_t fp : footprints) {
          cell c;
          c.soc.kind = edu::engine_kind::inline_keyslot;
          c.soc.drive = fleet::drive_mode::batched;
          c.soc.auth = sc.auth;
          c.soc.backend = sc.backend;
          c.soc.load = load;
          c.soc.footprint = fp;
          c.soc.accesses = k_auth_accesses;
          c.soc.seed = mix(seed + s);
          cells.push_back(std::move(c));
        }
  return cells;
}

std::vector<cell> keyslot_churn(u64 seed) {
  constexpr unsigned pools[] = {4, 16};
  constexpr std::pair<double, std::size_t> skews[] = {{0.8, k_churn_ops_flat},
                                                      {1.2, k_churn_ops_skewed}};
  std::vector<cell> cells;
  for (std::size_t s = 0; s < k_churn_seeds; ++s)
    for (const engine::slot_policy policy : engine::all_slot_policies)
      for (const unsigned pool : pools)
        for (const auto& [skew, ops] : skews) {
          cell c;
          c.storm = true;
          c.churn.contexts = 100'000;
          c.churn.ops = ops;
          c.churn.zipf_s = skew;
          c.churn.slots = pool;
          c.churn.policy = policy;
          c.churn.in_flight = 4;
          c.churn.backend = "aes-ctr";
          c.churn.seed = mix(seed + s);
          cells.push_back(std::move(c));
        }
  return cells;
}

std::vector<cell> update_lifetime(u64 seed) {
  std::vector<cell> cells;
  for (fleet::fleet_cell& fc : fleet::lifetime_matrix(k_lifetime_runs, mix(seed))) {
    cell c;
    c.soc = std::move(fc);
    cells.push_back(std::move(c));
  }
  return cells;
}

constexpr std::array<std::pair<workload_id, std::string_view>, 4> k_names = {{
    {workload_id::soc_matrix, "soc_matrix"},
    {workload_id::auth_fetch, "auth_fetch"},
    {workload_id::keyslot_churn, "keyslot_churn"},
    {workload_id::update_lifetime, "update_lifetime"},
}};

} // namespace

bool parse_workload(std::string_view name, workload_id& out) {
  for (const auto& [id, n] : k_names)
    if (n == name) {
      out = id;
      return true;
    }
  return false;
}

std::string_view workload_name(workload_id w) {
  for (const auto& [id, n] : k_names)
    if (id == w) return n;
  return "?";
}

std::vector<cell> make_cells(workload_id w, u64 seed) {
  std::vector<cell> cells;
  switch (w) {
    case workload_id::soc_matrix: cells = soc_matrix(seed); break;
    case workload_id::auth_fetch: cells = auth_fetch(seed); break;
    case workload_id::keyslot_churn: cells = keyslot_churn(seed); break;
    case workload_id::update_lifetime: cells = update_lifetime(seed); break;
  }
  // Seeded shuffle: the closed loop walks the list cyclically and stops at
  // an arbitrary point, so any stretch of it must be a fair mix of cells.
  buscrypt::rng r(mix(seed ^ 0x5A0FF1EULL));
  for (std::size_t i = cells.size(); i > 1; --i) std::swap(cells[i - 1], cells[r.below(i)]);
  return cells;
}

outcome run_untraced(const cell& c) {
  outcome o;
  if (c.storm)
    o.churn = engine::run_churn(c.churn);
  else
    o.soc = fleet::run_cell(c.soc);
  return o;
}

std::string check_invariants(const cell& c, const outcome& o) {
  if (c.storm) {
    const engine::churn_result& r = o.churn;
    const engine::keyslot_stats& s = r.slots;
    if (r.ops != c.churn.ops) return "storm replayed the wrong number of ops";
    if (r.bytes != r.ops * c.churn.data_unit) return "storm bytes != ops x unit";
    if (s.acquires != r.ops) return "storm acquires != ops";
    if (s.acquires != s.hits + s.cold_programs + s.reprograms + s.denials)
      return "keyslot acquire sum rule broken";
    if (s.programs != s.cold_programs + s.reprograms + s.prefetch_programs)
      return "keyslot program sum rule broken";
    if (r.fallbacks != s.denials) return "fallbacks != denials";
    if (r.total_cycles == 0) return "storm charged no cycles";
    return {};
  }
  const fleet::cell_result& r = o.soc;
  if (c.soc.drive == fleet::drive_mode::lifetime) {
    // lifetime_safe, as the fleet reports it: exactly old or exactly new,
    // never torn, and a stale-version replay fail-stops.
    if (r.torn_images != 0) return "torn image";
    if (r.downgrade_breaches != 0) return "downgrade accepted";
    if (r.updates_committed + r.updates_rolled_back != 1)
      return "episode ended neither committed nor rolled back";
  } else {
    if (r.integrity_faults != 0) return "clean cell reported an integrity fault";
    if (r.domain_faults != 0) return "clean cell reported a domain fault";
    if (r.firewall_denials != 0) return "in-slice traffic tripped the firewall";
  }
  if (r.ops == 0 || r.bytes == 0 || r.total_cycles == 0) return "cell did no work";
  return {};
}

} // namespace perfbench
