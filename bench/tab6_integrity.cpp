// T6 — the survey's "future exploration": integrity against modification
// of fetched instructions. Produces (a) the detection matrix of the three
// canonical active attacks vs protection level and (b) what each level
// costs in cycles, bus traffic, external tag memory and on-chip RAM.
// (This extends the paper's scope along the axis its conclusion names;
// the engines follow the design later published by the survey's authors.)

#include "bench_util.hpp"
#include "attack/pad_reuse.hpp"
#include "attack/tamper.hpp"
#include "crypto/aes.hpp"
#include "edu/integrity_edu.hpp"
#include "edu/stream_edu.hpp"
#include "sim/cache.hpp"
#include "sim/cpu.hpp"

namespace buscrypt {
namespace {

using edu::integrity_edu;
using edu::integrity_edu_config;
using edu::integrity_level;

const char* level_name(integrity_level l) {
  switch (l) {
    case integrity_level::none: return "confidentiality only";
    case integrity_level::mac: return "per-line MAC";
    case integrity_level::mac_versioned: return "per-line MAC + version";
  }
  return "?";
}

void detection_matrix(u64 seed) {
  bench::banner("Active-attack detection matrix",
                "Conclusion: 'thwart attacks based on the modification of the\n"
                "fetched instructions'");
  table t({"protection", "spoof", "splice", "replay", "stale data accepted"});
  for (integrity_level level :
       {integrity_level::none, integrity_level::mac, integrity_level::mac_versioned}) {
    sim::dram chip(8u << 20);
    sim::external_memory ext(chip);
    rng r(seed ^ 42);
    const crypto::aes prf(r.random_bytes(16));
    integrity_edu_config cfg;
    cfg.level = level;
    integrity_edu e(ext, prf, r.random_bytes(16), cfg);

    const auto rep = attack::run_tamper_suite(e, chip, 0x1000, 0x2000);
    auto mark = [](bool detected) { return detected ? "DETECTED" : "missed"; };
    t.add_row({level_name(level), mark(rep.spoof_detected), mark(rep.splice_detected),
               mark(rep.replay_detected), rep.replay_restored_stale ? "YES" : "no"});
  }
  std::fputs(t.str().c_str(), stdout);
}

void cost_table(u64 seed) {
  bench::banner("Cost of integrity by level",
                "T6 cost half: cycles, bus traffic, tag memory, on-chip RAM");

  const bytes img = bench::firmware_image(256 * 1024, seed ^ 7);
  struct wl {
    const char* name;
    sim::workload w;
  };
  const std::vector<wl> workloads = {
      {"sequential", sim::make_sequential_code(40'000, 192 * 1024, 0, 1)},
      {"branchy-10%", sim::make_jumpy_code(40'000, 192 * 1024, 0.1, 2)},
      {"write-heavy", sim::make_data_rw(30'000, 128 * 1024, 0.4, 0.6, 4, 3)},
  };

  for (const auto& [name, w] : workloads) {
    const auto base = bench::run_engine(edu::engine_kind::plaintext, w, img);

    table t({"protection", "slowdown vs plaintext", "bus bytes read",
             "tag memory", "on-chip version RAM"});
    for (integrity_level level :
         {integrity_level::none, integrity_level::mac, integrity_level::mac_versioned}) {
      sim::dram chip(8u << 20);
      sim::external_memory ext(chip);
      rng r(seed ^ 9);
      const crypto::aes prf(r.random_bytes(16));
      integrity_edu_config cfg;
      cfg.level = level;
      integrity_edu e(ext, prf, r.random_bytes(16), cfg);
      e.install_image(0, img);
      e.install_image(1 << 20, bytes(512 * 1024, 0));

      sim::cache_config l1 = bench::default_soc().l1;
      sim::cache cache(l1, e);
      sim::cpu core(cache);
      const u64 bytes_before = ext.bytes_read();
      const auto rs = core.run(w);

      t.add_row({level_name(level), table::pct(rs.slowdown_vs(base) - 1.0),
                 table::num(static_cast<unsigned long long>(ext.bytes_read() - bytes_before)),
                 table::num(static_cast<unsigned long long>(e.tag_memory_bytes())),
                 table::num(static_cast<unsigned long long>(e.version_ram_bytes()))});
    }
    std::printf("--- workload: %s ---\n", name);
    std::fputs(t.str().c_str(), stdout);
  }
}

void pad_reuse_demo(u64 seed) {
  bench::banner("Why versions also protect confidentiality (two-time pad)",
                "AEGIS IV freshness discussion, Section 3");
  sim::dram chip(8u << 20);
  sim::external_memory ext(chip);
  rng r(seed ^ 11);
  const crypto::aes prf(r.random_bytes(16));

  table t({"pad scheme", "rewrite same line twice", "ct1 ^ ct2 reveals"});
  {
    edu::stream_edu s(ext, prf, {});
    const bytes pt1(32, 'A'), pt2(32, 'B');
    (void)s.write(0x100, pt1);
    bytes ct1(32);
    chip.read_bytes(0x100, ct1);
    (void)s.write(0x100, pt2);
    bytes ct2(32);
    chip.read_bytes(0x100, ct2);
    const bytes leak = attack::xor_ciphertexts(ct1, ct2);
    bool is_pt_xor = true;
    for (std::size_t i = 0; i < 32; ++i)
      if (leak[i] != static_cast<u8>('A' ^ 'B')) is_pt_xor = false;
    t.add_row({"address-only (stream_edu)", "pad reused",
               is_pt_xor ? "pt1 ^ pt2 (broken)" : "nothing"});
  }
  {
    integrity_edu e(ext, prf, r.random_bytes(16), {});
    const bytes pt1(32, 'A'), pt2(32, 'B');
    (void)e.write(0x2000, pt1);
    bytes ct1(32);
    chip.read_bytes(0x2000, ct1);
    (void)e.write(0x2000, pt2);
    bytes ct2(32);
    chip.read_bytes(0x2000, ct2);
    const bytes leak = attack::xor_ciphertexts(ct1, ct2);
    bool is_pt_xor = true;
    for (std::size_t i = 0; i < 32; ++i)
      if (leak[i] != static_cast<u8>('A' ^ 'B')) is_pt_xor = false;
    t.add_row({"address+version (integrity_edu)", "pad fresh",
               is_pt_xor ? "pt1 ^ pt2 (broken)" : "nothing"});
  }
  std::fputs(t.str().c_str(), stdout);
}

} // namespace
} // namespace buscrypt

int main(int argc, char** argv) {
  const buscrypt::u64 seed = buscrypt::bench::seed_arg(argc, argv);
  buscrypt::detection_matrix(seed);
  buscrypt::cost_table(seed);
  buscrypt::pad_reuse_demo(seed);
  return 0;
}
