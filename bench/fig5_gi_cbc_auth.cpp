// E5 — Figure 5 + Section 3: General Instrument's 3-DES-CBC engine with
// keyed-hash authentication. "Cipher block chaining technique is very
// robust but implies unacceptable CPU performance degradation for random
// accesses in external memory."

#include "bench_util.hpp"
#include "crypto/des.hpp"
#include "edu/gi_edu.hpp"
#include "sim/cache.hpp"
#include "sim/cpu.hpp"

namespace buscrypt {
namespace {

sim::run_stats run_gi(const sim::workload& w, const bytes& img,
                      std::size_t segment, bool auth) {
  sim::dram d(8u << 20);
  sim::external_memory ext(d);
  rng kr(5);
  const crypto::triple_des cipher(kr.random_bytes(24));
  edu::gi_edu_config cfg;
  cfg.segment_bytes = segment;
  cfg.authenticate = auth;
  edu::gi_edu gi(ext, cipher, kr.random_bytes(16), cfg);
  gi.install_image(0, img);
  gi.install_image(1 << 20, bytes(256 * 1024, 0));

  sim::cache_config l1 = bench::default_soc().l1;
  sim::cache cache(l1, gi);
  sim::cpu core(cache);
  return core.run(w);
}

} // namespace
} // namespace buscrypt

int main() {
  using namespace buscrypt;
  const bytes img = bench::firmware_image(512 * 1024, 31);

  bench::banner("GI engine: chained-CBC segment cost under random access",
                "Figure 5, Section 3 (General Instrument patent [11])");

  struct wl {
    const char* name;
    sim::workload w;
  };
  const std::vector<wl> workloads = {
      {"sequential", sim::make_sequential_code(40'000, 256 * 1024, 0, 1)},
      {"branchy-10%", sim::make_jumpy_code(40'000, 256 * 1024, 0.10, 2)},
      {"branchy-30%", sim::make_jumpy_code(40'000, 256 * 1024, 0.30, 3)},
  };

  for (const auto& [name, w] : workloads) {
    const auto base = bench::run_engine(edu::engine_kind::plaintext, w, img);
    table t({"segment (CBC chain)", "auth", "slowdown vs plaintext"});
    for (std::size_t seg : {256u, 1024u, 4096u}) {
      for (bool auth : {false, true}) {
        const auto rs = run_gi(w, img, seg, auth);
        t.add_row({table::num(static_cast<unsigned long long>(seg)) + " B",
                   auth ? "keyed hash" : "off",
                   table::pct(rs.slowdown_vs(base) - 1.0)});
      }
    }
    std::printf("--- workload: %s ---\n", name);
    std::fputs(t.str().c_str(), stdout);
  }

  std::printf(
      "\nShape check: every random touch decrypts (and, with auth, hashes) a\n"
      "whole segment; overhead explodes with branchiness and segment size —\n"
      "the survey's 'unacceptable ... for random accesses'. Authentication\n"
      "roughly doubles the bill. AEGIS's fix (chain = one cache line) is\n"
      "benchmarked in tab5_cbc_random_access.\n");
  return 0;
}
