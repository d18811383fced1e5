// T1 — the headline table Section 3 implies: every surveyed engine on a
// common workload suite, slowdown vs the unprotected baseline.
// Paper anchors: Gilmont "< 2,5%"; XOM "14 latency cycles" (no system
// number given — supplied here); AEGIS "25%"; GI CBC "unacceptable ...
// for random accesses"; DS5002FP near-free; Fig. 7b taxed per access.

#include "bench_util.hpp"

#include <cmath>

#include "crypto/des.hpp"
#include "edu/gilmont_edu.hpp"
#include "sim/cache.hpp"
#include "sim/cpu.hpp"

namespace buscrypt {
namespace {

using edu::engine_kind;

} // namespace
} // namespace buscrypt

int main(int argc, char** argv) {
  using namespace buscrypt;
  const u64 seed = bench::seed_arg(argc, argv);
  bench::banner("Survey overhead table: all engines x standard suite",
                "Section 3 quantitative claims");

  const bytes img = bench::firmware_image(1 << 20, seed ^ 71);
  const auto suite = sim::standard_suite(seed ^ 2005);

  // Column per workload, row per engine.
  std::vector<std::string> headers = {"engine"};
  for (const auto& w : suite) headers.push_back(w.name);
  headers.push_back("geo-mean");
  table t(headers);

  std::vector<sim::run_stats> baselines;
  for (const auto& w : suite)
    baselines.push_back(bench::run_engine(engine_kind::plaintext, w, img));

  std::string xom_geo_mean;
  for (engine_kind kind : edu::all_engines()) {
    std::vector<std::string> row = {std::string(edu::engine_name(kind))};
    double log_sum = 0;
    for (std::size_t i = 0; i < suite.size(); ++i) {
      const auto rs = bench::run_engine(kind, suite[i], img);
      const double slow = rs.slowdown_vs(baselines[i]);
      log_sum += std::log(slow);
      row.push_back(table::pct(slow - 1.0));
    }
    row.push_back(table::pct(std::exp(log_sum / static_cast<double>(suite.size())) - 1.0));
    if (kind == engine_kind::xom_aes) xom_geo_mean = row.back();
    t.add_row(std::move(row));
  }
  std::fputs(t.str().c_str(), stdout);

  // --- Gilmont against its OWN prefetched baseline -------------------------
  // The paper's "<2.5%" compares the ciphering cost against the same
  // fetch-predicted architecture without encryption, not against a
  // prefetch-less SoC.
  bench::banner("Gilmont deciphering cost vs its own prefetched baseline",
                "Section 3: 'keep the deciphering cost under 2,5%'");
  {
    table t2({"workload", "3DES+prefetch vs prefetch-only", "prefetch hit rate"});
    for (const auto& w : suite) {
      auto run_gilmont = [&](bool encrypt, double* hit_rate) {
        sim::dram d(8u << 20);
        sim::external_memory ext(d);
        rng kr(9);
        const crypto::triple_des cipher(kr.random_bytes(24));
        edu::gilmont_edu_config gcfg;
        gcfg.encrypt = encrypt;
        edu::gilmont_edu g(ext, cipher, gcfg);
        g.install_image(0, img);
        g.install_image(1 << 20, bytes(2u << 20, 0));
        sim::cache_config l1 = bench::default_soc().l1;
        sim::cache cache(l1, g);
        sim::cpu core(cache);
        const auto rs = core.run(w);
        if (hit_rate) {
          const u64 total = g.prefetch_hits() + g.prefetch_misses();
          *hit_rate = total == 0 ? 0.0
                                 : static_cast<double>(g.prefetch_hits()) /
                                       static_cast<double>(total);
        }
        return rs;
      };
      double hit_rate = 0.0;
      const auto base = run_gilmont(false, nullptr);
      const auto enc = run_gilmont(true, &hit_rate);
      t2.add_row({w.name, table::pct(enc.slowdown_vs(base) - 1.0),
                  table::num(hit_rate, 2)});
    }
    std::fputs(t2.str().c_str(), stdout);
  }

  std::printf(
      "\nPaper-vs-measured shape:\n"
      "  - Gilmont: paper '<2.5%%' on its favourable (static-code, sequential)\n"
      "    case; here its prefetcher even wins on seq code, and the data-rw\n"
      "    columns show what the paper warned: data is NOT protected.\n"
      "  - XOM pipelined AES: %s geo-mean; the survey gives only its 14-cycle\n"
      "    latency, which 'doesn't inform about the overall system cost'.\n"
      "  - AEGIS per-line CBC: tens of percent on miss-heavy columns (paper: 25%%).\n"
      "  - GI whole-segment CBC+MAC: orders worse under random access.\n"
      "  - Stream/OTP: near-free when the keystream parallelises with the fetch.\n",
      xom_geo_mean.c_str());
  return 0;
}
