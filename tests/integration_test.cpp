// Cross-module integration: the full pipeline the survey's introduction
// describes — software delivered over an insecure network, installed
// encrypted in external memory, executed through an EDU, probed by an
// attacker — plus consistency checks across the engine family.

#include "attack/known_plaintext.hpp"
#include "attack/probe.hpp"
#include "common/bitops.hpp"
#include "compress/entropy.hpp"
#include "edu/soc.hpp"
#include "keymgmt/session.hpp"
#include "sim/workload.hpp"

#include <gtest/gtest.h>

namespace buscrypt {
namespace {

using edu::engine_kind;
using edu::secure_soc;
using edu::soc_config;

bytes firmware_image(std::size_t n, u64 seed) {
  rng r(seed);
  bytes img(n);
  static constexpr u32 words[] = {0xE5921000, 0xE5832004, 0x47702000, 0xB510F000};
  for (std::size_t off = 0; off + 4 <= n; off += 4)
    store_le32(&img[off], words[r.below(4)] ^ static_cast<u32>(r.below(8)));
  const char* banner = "SECRET LICENSED SOFTWARE DO NOT COPY ";
  for (std::size_t i = 0; i < 38 && i + 256 < n; ++i)
    img[256 + i] = static_cast<u8>(banner[i]);
  return img;
}

soc_config default_cfg() {
  soc_config cfg;
  cfg.l1.size = 8 * 1024;
  cfg.l1.line_size = 32;
  cfg.l1.ways = 2;
  cfg.mem_size = 4u << 20;
  return cfg;
}

TEST(Integration, DeliveryToExecutionPipeline) {
  // Fig. 1 + Fig. 2c glued together: network delivery, then bus encryption.
  rng r(1);
  const keymgmt::chip_manufacturer maker(r, 384);
  const keymgmt::software_editor editor(firmware_image(32 * 1024, 2));
  const keymgmt::secure_processor proc(maker.provision_private_key());

  keymgmt::insecure_channel ch;
  const auto em = maker.publish_public_key(ch);
  const bytes sw = proc.receive(editor.deliver(em, ch, r));

  secure_soc soc(engine_kind::xom_aes, default_cfg());
  soc.load_image(0, sw);

  sim::recording_probe probe;
  soc.attach_probe(probe);
  const auto w = sim::make_sequential_code(30'000, 32 * 1024, 500, 3);
  const sim::run_stats rs = soc.run(w);
  EXPECT_GT(rs.instructions, 0u);

  // Neither channel nor bus exposed the plaintext banner.
  const bytes banner(sw.begin() + 256, sw.begin() + 256 + 38);
  EXPECT_FALSE(keymgmt::channel_leaks(ch, banner));
  EXPECT_EQ(attack::pattern_sightings(probe, banner), 0u);
  // But execution still worked on plaintext inside the trusted boundary.
  EXPECT_EQ(soc.read_back(0, sw.size()), sw);
}

TEST(Integration, EveryEngineComputesTheSameResults) {
  // Functional equivalence: the memory image after the same write-heavy
  // workload must be identical across engines (crypto must not corrupt).
  const auto w = sim::make_data_rw(10'000, 64 * 1024, 0.4, 0.5, 4, 4);
  const bytes img = firmware_image(16 * 1024, 5);

  bytes reference;
  for (engine_kind kind : edu::all_engines()) {
    secure_soc soc(kind, default_cfg());
    soc.load_image(0, img);
    // Data region used by the workload.
    soc.load_image(1 << 20, bytes(64 * 1024, 0));
    (void)soc.run(w);
    const bytes final_data = soc.read_back(1 << 20, 64 * 1024);
    if (reference.empty()) {
      reference = final_data;
    } else {
      EXPECT_EQ(final_data, reference) << edu::engine_name(kind);
    }
  }
}

TEST(Integration, EcbEngineLeaksStructureOnTheChip) {
  // The DRAM image under ECB shows the plaintext's repetition; CBC-line
  // and stream engines do not — Section 2.2's mode comparison end-to-end.
  const bytes img(16 * 1024, 0x42); // worst case: constant image
  auto census = [&](engine_kind kind) {
    secure_soc soc(kind, default_cfg());
    soc.load_image(0, img);
    soc.flush();
    const auto raw = soc.memory().raw();
    return attack::analyze_ecb(std::span<const u8>(raw).subspan(0, img.size()), 16)
        .exposure();
  };
  EXPECT_GT(census(engine_kind::block_ecb_aes), 0.9);
  EXPECT_LT(census(engine_kind::block_cbc_aes), 0.05);
  EXPECT_LT(census(engine_kind::stream_otp), 0.05);
  EXPECT_LT(census(engine_kind::aegis_cbc), 0.05);
}

TEST(Integration, StreamBeatsBlockOnMissLatency) {
  // Section 2.2's core performance claim, measured on the full SoC.
  const auto w = sim::make_jumpy_code(40'000, 256 * 1024, 0.15, 6);
  const bytes img = firmware_image(256 * 1024, 7);

  auto cycles_for = [&](engine_kind kind) {
    secure_soc soc(kind, default_cfg());
    soc.load_image(0, img);
    return soc.run(w).total_cycles;
  };

  const cycles plain = cycles_for(engine_kind::plaintext);
  const cycles stream = cycles_for(engine_kind::stream_otp);
  const cycles serial = cycles_for(engine_kind::stream_serial);
  const cycles block = cycles_for(engine_kind::block_cbc_aes);

  EXPECT_LT(plain, stream);
  EXPECT_LT(stream, serial); // parallel keystream is the whole point
  EXPECT_LT(stream, block);  // stream beats a non-pipelined block engine
}

TEST(Integration, GilmontNearPlaintextOnSequentialCode) {
  // "< 2.5% in term of performance cost" — for its favourable workload.
  const auto w = sim::make_sequential_code(60'000, 192 * 1024, 0, 8);
  const bytes img = firmware_image(192 * 1024, 9);

  secure_soc base(engine_kind::plaintext, default_cfg());
  base.load_image(0, img);
  const auto base_rs = base.run(w);

  secure_soc gil(engine_kind::gilmont_3des, default_cfg());
  gil.load_image(0, img);
  const auto gil_rs = gil.run(w);

  EXPECT_LT(gil_rs.slowdown_vs(base_rs), 1.05);
}

TEST(Integration, CachesideTaxesHitsUnlikeBusSideEdu) {
  // Fig. 7b vs 7a: with a high hit rate, the cache-side EDU pays on every
  // access while the bus-side stream EDU pays only on misses.
  const auto w = sim::make_sequential_code(40'000, 4 * 1024, 0, 10); // tiny, hot
  const bytes img = firmware_image(8 * 1024, 11);

  auto run_kind = [&](engine_kind kind) {
    secure_soc soc(kind, default_cfg());
    soc.load_image(0, img);
    return soc.run(w).total_cycles;
  };
  const cycles busside = run_kind(engine_kind::stream_otp);
  const cycles cacheside = run_kind(engine_kind::cacheside_otp);
  EXPECT_GT(cacheside, busside);
}

TEST(Integration, WritePolicyInteractsWithRmw) {
  // Write-through caches forward every sub-block store to the EDU; with a
  // block engine each one costs a read-modify-write. Write-back absorbs
  // them into full-line evictions.
  soc_config wb = default_cfg();
  soc_config wt = default_cfg();
  wt.l1.write_back = false;

  const auto w = sim::make_data_rw(15'000, 32 * 1024, 0.4, 0.6, 4, 12);

  secure_soc soc_wb(engine_kind::xom_aes, wb);
  soc_wb.load_image(0, firmware_image(16 * 1024, 13));
  soc_wb.load_image(1 << 20, bytes(32 * 1024, 0));
  (void)soc_wb.run(w);
  const u64 rmw_wb = soc_wb.engine().stats().rmw_ops;

  secure_soc soc_wt(engine_kind::xom_aes, wt);
  soc_wt.load_image(0, firmware_image(16 * 1024, 13));
  soc_wt.load_image(1 << 20, bytes(32 * 1024, 0));
  (void)soc_wt.run(w);
  const u64 rmw_wt = soc_wt.engine().stats().rmw_ops;

  EXPECT_GT(rmw_wt, rmw_wb * 10 + 10);
}

TEST(Integration, CompressionShrinksBusTraffic) {
  const auto w = sim::make_jumpy_code(30'000, 128 * 1024, 0.1, 14);
  const bytes img = firmware_image(128 * 1024, 15);

  auto traffic = [&](engine_kind kind) {
    secure_soc soc(kind, default_cfg());
    soc.load_image(0, img);
    const u64 before = soc.external().bytes_read();
    (void)soc.run(w);
    return soc.external().bytes_read() - before;
  };
  const u64 raw = traffic(engine_kind::stream_otp);
  const u64 packed = traffic(engine_kind::compress_otp);
  EXPECT_LT(packed, raw);
}

} // namespace
} // namespace buscrypt
