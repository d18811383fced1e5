// E4 — Figure 4 + Section 3: VLSI Technology's page-by-page secure DMA.
// Page size and buffer count trade first-touch cost against locality reuse.

#include "bench_util.hpp"
#include "crypto/aes.hpp"
#include "edu/dma_edu.hpp"
#include "sim/cache.hpp"
#include "sim/cpu.hpp"

namespace buscrypt {
namespace {

sim::run_stats run_dma(const sim::workload& w, const bytes& img,
                       std::size_t page_bytes, unsigned n_buffers,
                       u64* faults_out) {
  sim::dram d(8u << 20);
  sim::external_memory ext(d);
  rng kr(4);
  const crypto::aes cipher(kr.random_bytes(16));
  edu::dma_edu_config cfg;
  cfg.page_bytes = page_bytes;
  cfg.n_buffers = n_buffers;
  edu::dma_edu dma(ext, cipher, cfg);
  dma.install_image(0, img);
  dma.install_image(1 << 20, bytes(512 * 1024, 0));

  sim::cache_config l1 = bench::default_soc().l1;
  sim::cache cache(l1, dma);
  sim::cpu core(cache);
  const auto rs = core.run(w);
  if (faults_out) *faults_out = dma.page_faults();
  return rs;
}

} // namespace
} // namespace buscrypt

int main() {
  using namespace buscrypt;
  const bytes img = bench::firmware_image(512 * 1024, 21);

  bench::banner("Secure DMA: overhead vs page size and buffer count",
                "Figure 4, Section 3 (VLSI Technology patent [10])");

  // Baseline: plaintext SoC on the same workloads.
  struct wl {
    const char* name;
    sim::workload w;
  };
  std::vector<wl> workloads;
  workloads.push_back({"sequential", sim::make_sequential_code(60'000, 256 * 1024, 600, 1)});
  workloads.push_back({"branchy", sim::make_jumpy_code(60'000, 256 * 1024, 0.1, 2)});
  workloads.push_back({"data-mix", sim::make_data_rw(40'000, 256 * 1024, 0.35, 0.3, 4, 3)});

  for (const auto& [name, w] : workloads) {
    const auto base = bench::run_engine(edu::engine_kind::plaintext, w, img);

    table t({"page size", "buffers", "page faults", "slowdown vs plaintext",
             "on-chip buffer RAM"});
    for (std::size_t page : {1024u, 4096u, 16384u}) {
      for (unsigned bufs : {2u, 4u, 8u}) {
        u64 faults = 0;
        const auto rs = run_dma(w, img, page, bufs, &faults);
        t.add_row({table::num(static_cast<unsigned long long>(page)),
                   table::num(static_cast<unsigned long long>(bufs)),
                   table::num(static_cast<unsigned long long>(faults)),
                   table::pct(rs.slowdown_vs(base) - 1.0),
                   table::num(static_cast<unsigned long long>(page * bufs)) + " B"});
      }
    }
    std::printf("--- workload: %s (plaintext CPI %.2f) ---\n", name, base.cpi());
    std::fputs(t.str().c_str(), stdout);
  }

  std::printf(
      "\nShape check: large pages amortise the cipher on streaming code but\n"
      "thrash on scattered data; more buffers recover locality at linear\n"
      "on-chip SRAM cost. Robust block ciphering (whole-page CBC) is 'free'\n"
      "once the page is resident — the patent's selling point — but the OS\n"
      "must be trusted to manage the DMA unit.\n");
  return 0;
}
