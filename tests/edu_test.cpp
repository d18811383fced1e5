// EDU tests: functional transparency (install/read-back through every
// engine), ciphertext actually on the bus/DRAM, timing-policy behaviours
// (stream parallelism, RMW penalties, prefetching, page faulting, MAC
// verification), and the secure_soc assembly.

#include "attack/probe.hpp"
#include "common/bitops.hpp"
#include "common/rng.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include "compress/entropy.hpp"
#include "crypto/aes.hpp"
#include "crypto/des.hpp"
#include "edu/aegis_edu.hpp"
#include "edu/block_edu.hpp"
#include "edu/compress_edu.hpp"
#include "edu/dma_edu.hpp"
#include "edu/gi_edu.hpp"
#include "edu/gilmont_edu.hpp"
#include "edu/soc.hpp"
#include "edu/stream_edu.hpp"

#include <gtest/gtest.h>

namespace buscrypt::edu {
namespace {

using sim::access_kind;
using sim::workload;

/// Code-like image: repetitive words so ECB leakage and compression are
/// both visible.
bytes make_image(std::size_t size, u64 seed) {
  rng r(seed);
  bytes img(size);
  static constexpr u32 words[] = {0xE5921000, 0xE5832004, 0x47702000, 0xB510F000};
  for (std::size_t off = 0; off + 4 <= size; off += 4)
    store_le32(&img[off], words[r.below(4)] ^ static_cast<u32>(r.below(16)));
  return img;
}

soc_config default_cfg() {
  soc_config cfg;
  cfg.l1.size = 4 * 1024;
  cfg.l1.line_size = 32;
  cfg.l1.ways = 2;
  cfg.mem_size = 4u << 20;
  return cfg;
}

// --- parameterized over every engine ---------------------------------------

class EveryEngine : public ::testing::TestWithParam<engine_kind> {};

TEST_P(EveryEngine, InstallReadBackRoundTrip) {
  secure_soc soc(GetParam(), default_cfg());
  const bytes img = make_image(8 * 1024, 1);
  soc.load_image(0, img);
  EXPECT_EQ(soc.read_back(0, img.size()), img) << engine_name(GetParam());
}

TEST_P(EveryEngine, DramHoldsCiphertextExceptBaselines) {
  secure_soc soc(GetParam(), default_cfg());
  const bytes img = make_image(8 * 1024, 2);
  soc.load_image(0, img);
  soc.flush();

  std::size_t matches = 0;
  const auto raw = soc.memory().raw();
  for (std::size_t i = 0; i < img.size(); ++i)
    if (raw[i] == img[i]) ++matches;
  const double match_rate =
      static_cast<double>(matches) / static_cast<double>(img.size());

  if (GetParam() == engine_kind::plaintext) {
    EXPECT_GT(match_rate, 0.99);
  } else if (GetParam() == engine_kind::best_stp) {
    // Best's cipher permutes bytes without mixing; coincidental matches
    // run a few percent — itself evidence of its weakness.
    EXPECT_LT(match_rate, 0.06);
  } else {
    EXPECT_LT(match_rate, 0.02) << engine_name(GetParam());
  }
}

TEST_P(EveryEngine, WorkloadRunsAndSlowsDownSanely) {
  soc_config cfg = default_cfg();
  const workload w = sim::make_jumpy_code(30'000, 128 * 1024, 0.05, 3);

  secure_soc base(engine_kind::plaintext, cfg);
  base.load_image(0, make_image(128 * 1024, 4));
  const sim::run_stats base_rs = base.run(w);

  secure_soc soc(GetParam(), cfg);
  soc.load_image(0, make_image(128 * 1024, 4));
  const sim::run_stats rs = soc.run(w);

  EXPECT_EQ(rs.instructions, base_rs.instructions);
  const double slowdown = rs.slowdown_vs(base_rs);
  EXPECT_GE(slowdown, 0.5) << engine_name(GetParam());
  // GI's whole-segment CBC+MAC is the survey's "unacceptable" data point;
  // everything else stays within an order of magnitude.
  const double cap = GetParam() == engine_kind::gi_3des_cbc ? 200.0 : 40.0;
  EXPECT_LT(slowdown, cap) << engine_name(GetParam());
  // Engines that add prefetching (Gilmont) or compression (Fig. 8) can
  // legitimately beat the unprotected baseline.
  if (GetParam() != engine_kind::plaintext &&
      GetParam() != engine_kind::compress_otp &&
      GetParam() != engine_kind::gilmont_3des) {
    EXPECT_GE(slowdown, 1.0) << engine_name(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EveryEngine, ::testing::ValuesIn(all_engines()),
    [](const ::testing::TestParamInfo<engine_kind>& info) {
      std::string n(engine_name(info.param));
      for (char& c : n)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return n;
    });

// --- per-engine behaviours ---------------------------------------------------

TEST(StreamEdu, ParallelKeystreamHidesPadLatency) {
  // Separate DRAMs so open-row state cannot skew the comparison.
  sim::dram d1(1 << 20), d2(1 << 20), d3(1 << 20);
  sim::external_memory ext1(d1), ext2(d2), ext3(d3);
  rng r(5);
  const crypto::aes prf(r.random_bytes(16));

  stream_edu_config par;
  stream_edu parallel(ext1, prf, par);
  stream_edu_config ser = par;
  ser.parallel_keystream = false;
  stream_edu serial(ext2, prf, ser);

  bytes buf(32);
  const cycles t_par = parallel.read(0x100, buf);
  const cycles t_ser = serial.read(0x100, buf);
  EXPECT_LT(t_par, t_ser);
  // Parallel ~ max(mem, pad) + 1: barely above raw memory for a line.
  const cycles mem_only = ext3.read(0x100, buf);
  EXPECT_LE(t_par,
            std::max(mem_only, stream_edu::pad_core.time_parallel(2)) + xor_cycles);
}

TEST(StreamEdu, NoRmwForSubBlockWrites) {
  sim::dram d(1 << 20);
  sim::external_memory ext(d);
  rng r(6);
  const crypto::aes prf(r.random_bytes(16));
  stream_edu s(ext, prf, {});
  const bytes one = {0x42};
  (void)s.write(0x123, one); // 1-byte store, block size 16
  EXPECT_EQ(s.stats().rmw_ops, 0u);
  bytes back(1);
  (void)s.read(0x123, back);
  EXPECT_EQ(back, one);
}

TEST(BlockEdu, SubBlockWritePaysRmw) {
  sim::dram d(1 << 20);
  sim::external_memory ext(d);
  rng r(7);
  const crypto::aes cipher(r.random_bytes(16));
  block_edu b(ext, cipher, {block_mode::ecb, aes_iterative(), 32});

  bytes line(16);
  (void)b.write(0, line); // aligned full block: no RMW
  EXPECT_EQ(b.stats().rmw_ops, 0u);

  const bytes one = {0x55};
  const cycles t_small = b.write(0x20, one);
  EXPECT_EQ(b.stats().rmw_ops, 1u);

  bytes block(16);
  const cycles t_full = b.write(0x40, block);
  EXPECT_GT(t_small, t_full); // the five-step penalty

  bytes back(1);
  (void)b.read(0x20, back);
  EXPECT_EQ(back[0], 0x55);
}

TEST(BlockEdu, CbcEncryptChainsSerially) {
  // Separate DRAMs, same address: only the chaining policy differs.
  sim::dram d1(1 << 20), d2(1 << 20);
  sim::external_memory ext1(d1), ext2(d2);
  rng r(8);
  const crypto::aes cipher(r.random_bytes(16));
  block_edu ecb(ext1, cipher, {block_mode::ecb, aes_pipelined(), 32});
  block_edu cbc(ext2, cipher, {block_mode::cbc_line, aes_pipelined(), 32});

  bytes line(32);
  const cycles t_ecb = ecb.write(0, line);
  const cycles t_cbc = cbc.write(0, line);
  EXPECT_GT(t_cbc, t_ecb); // chained encryption drains the pipeline
}

TEST(BlockEdu, EcbLeaksStructureCbcDoesNot) {
  sim::dram d(1 << 20);
  sim::external_memory ext(d);
  rng r(9);
  const crypto::aes cipher(r.random_bytes(16));
  block_edu ecb(ext, cipher, {block_mode::ecb, aes_iterative(), 32});
  block_edu cbc(ext, cipher, {block_mode::cbc_line, aes_iterative(), 32});

  const bytes img(4096, 0xAA); // maximally repetitive
  ecb.install_image(0, img);
  cbc.install_image(1 << 19, img);
  const auto raw = d.raw();
  const std::size_t ecb_reps = compress::repeated_blocks(raw.subspan(0, 4096), 16);
  const std::size_t cbc_reps =
      compress::repeated_blocks(raw.subspan(1 << 19, 4096), 16);
  EXPECT_EQ(ecb_reps, 4096u / 16);
  EXPECT_EQ(cbc_reps, 0u);
}

TEST(GilmontEdu, PrefetchHitsOnSequentialFetch) {
  sim::dram d(1 << 20);
  sim::external_memory ext(d);
  rng r(10);
  const crypto::triple_des cipher(r.random_bytes(24));
  gilmont_edu g(ext, cipher, {});
  g.install_image(0, make_image(4096, 11));

  bytes line(32);
  cycles first = g.read(0, line);
  cycles second = g.read(32, line); // predicted!
  EXPECT_LT(second, first / 4);
  EXPECT_GE(g.prefetch_hits(), 1u);
}

TEST(GilmontEdu, DataRegionIsClearForm) {
  sim::dram d(1 << 21);
  sim::external_memory ext(d);
  rng r(12);
  const crypto::triple_des cipher(r.random_bytes(24));
  gilmont_edu g(ext, cipher, {});

  const bytes data = {1, 2, 3, 4};
  (void)g.write(gilmont_edu::code_limit + 64, data);
  bytes raw(4);
  d.read_bytes(gilmont_edu::code_limit + 64, raw);
  EXPECT_EQ(raw, data); // the surveyed limitation: data travels in clear
}

TEST(GilmontEdu, SubLineCodeWriteChargesItsDecipher) {
  // The five-step write deciphers the line before re-ciphering it, and
  // crypto_cycles counts both passes, as block_edu's does.
  sim::dram d(1 << 20);
  sim::external_memory ext(d);
  rng r(14);
  const crypto::triple_des cipher(r.random_bytes(24));
  gilmont_edu g(ext, cipher, {});
  g.install_image(0, make_image(4096, 15));
  g.reset_stats();

  const bytes word = {1, 2, 3, 4};
  const cycles took = g.write(0x104, word);
  constexpr pipeline_model core = tdes_pipelined();
  const cycles line = core.time_parallel(core.blocks_for(32));
  EXPECT_EQ(g.stats().rmw_ops, 1u);
  EXPECT_EQ(g.stats().crypto_cycles, 2 * line);
  EXPECT_EQ(took, 182u);
  bytes back(4);
  (void)g.read(0x104, back);
  EXPECT_EQ(back, word);
}

TEST(DmaEdu, PageFaultsAmortize) {
  sim::dram d(1 << 20);
  sim::external_memory ext(d);
  rng r(13);
  const crypto::aes cipher(r.random_bytes(16));

  // Install via one engine instance, then measure on a fresh one with
  // cold page buffers (same key and config -> same ciphertext mapping).
  {
    dma_edu installer(ext, cipher, {});
    installer.install_image(0, make_image(64 * 1024, 14));
    (void)installer.flush();
  }
  dma_edu dma(ext, cipher, {});

  bytes buf(32);
  const cycles fault = dma.read(0, buf);
  const cycles hit = dma.read(32, buf);
  EXPECT_GT(fault, hit * 10);
  EXPECT_EQ(dma.page_faults(), 1u);

  // Touch more pages than buffers: faults every time.
  for (int p = 0; p < 8; ++p) (void)dma.read(static_cast<addr_t>(p) * 4096, buf);
  EXPECT_GE(dma.page_faults(), 5u);
}

TEST(DmaEdu, DirtyPageWritebackPreservesData) {
  sim::dram d(1 << 20);
  sim::external_memory ext(d);
  rng r(15);
  const crypto::aes cipher(r.random_bytes(16));
  dma_edu dma(ext, cipher, {4096, 2});

  const bytes v1 = {0xDE, 0xAD};
  (void)dma.write(100, v1);
  // Evict page 0 by touching three other pages.
  bytes buf(8);
  for (int p = 1; p <= 3; ++p) (void)dma.read(static_cast<addr_t>(p) * 4096, buf);
  bytes back(2);
  (void)dma.read(100, back);
  EXPECT_EQ(back, v1);
  // And DRAM holds ciphertext of it, not plaintext.
  bytes raw(2);
  d.read_bytes(100, raw);
  EXPECT_NE(raw, v1);
}

TEST(GiEdu, TamperDetectedByKeyedHash) {
  sim::dram d(1 << 20);
  sim::external_memory ext(d);
  rng r(16);
  const crypto::triple_des cipher(r.random_bytes(24));
  gi_edu_config cfg;
  cfg.verified_cache_entries = 1; // re-verify on every segment change
  gi_edu gi(ext, cipher, r.random_bytes(16), cfg);
  gi.install_image(0, make_image(4096, 17));

  bytes buf(32);
  (void)gi.read(0, buf);
  EXPECT_EQ(gi.auth_failures(), 0u);

  // Class-II tamper: flip a bit in external memory, then return to the
  // segment after its verified-cache entry has aged out.
  d.raw()[100] ^= 0x01;
  (void)gi.read(2048, buf); // evicts segment 0 from the verified window
  (void)gi.read(64, buf);   // segment 0 again -> verification fires
  EXPECT_GE(gi.auth_failures(), 1u);
}

TEST(GiEdu, RandomAccessCostsWholeSegment) {
  sim::dram d(1 << 20);
  sim::external_memory ext(d);
  rng r(18);
  const crypto::triple_des cipher(r.random_bytes(24));
  gi_edu gi(ext, cipher, r.random_bytes(16), {});
  gi.install_image(0, make_image(64 * 1024, 19));

  bytes line(32);
  const cycles random_touch = gi.read(40'000, line);

  // Compare to a stream EDU touching the same line.
  rng r2(20);
  const crypto::aes prf(r2.random_bytes(16));
  stream_edu s(ext, prf, {});
  const cycles stream_touch = s.read(40'000 + 70'000, line);
  EXPECT_GT(random_touch, stream_touch * 5);
}

TEST(AegisEdu, FreshNoncePerWrite) {
  sim::dram d(1 << 20);
  sim::external_memory ext(d);
  rng r(21);
  const crypto::aes cipher(r.random_bytes(16));
  aegis_edu a(ext, cipher, {});

  bytes line(32, 0x77);
  (void)a.write(0, line);
  bytes ct1(32);
  d.read_bytes(0, ct1);
  (void)a.write(0, line); // same data, same address
  bytes ct2(32);
  d.read_bytes(0, ct2);
  EXPECT_NE(ct1, ct2); // freshness: ciphertext changes anyway

  bytes back(32);
  (void)a.read(0, back);
  EXPECT_EQ(back, line);
}

TEST(AegisEdu, CounterNoncesAreSequential) {
  sim::dram d(1 << 20);
  sim::external_memory ext(d);
  rng r(22);
  const crypto::aes cipher(r.random_bytes(16));
  aegis_edu a(ext, cipher, {32, aegis_iv_mode::counter, 1});
  bytes line(32);
  for (int i = 0; i < 5; ++i) (void)a.write(64, line);
  EXPECT_EQ(a.nonces().at(64), 5u);
}

TEST(AegisEdu, IvsNeverRepeatAcrossLinesOrNonces) {
  // A zero line's first ciphertext block is E_K(IV), so distinct IVs show
  // as distinct first blocks: four adjacent lines, 40 counter nonces each.
  sim::dram d(1 << 20);
  sim::external_memory ext(d);
  rng r(27);
  const crypto::aes cipher(r.random_bytes(16));
  aegis_edu a(ext, cipher, {});
  const bytes zero(32, 0);
  std::set<bytes> first_blocks;
  for (int n = 1; n <= 40; ++n) {
    for (addr_t line = 0; line < 0x80; line += 32) {
      (void)a.write(line, zero);
      bytes c0(16);
      d.read_bytes(line, c0);
      first_blocks.insert(c0);
    }
  }
  EXPECT_EQ(first_blocks.size(), 40u * 4u);
}

TEST(AegisEdu, AlignedMultiLineWriteNeedsNoReadModifyWrite) {
  // Two whole lines: each gets a fresh nonce and its own line write, with
  // nothing to read, decipher or merge first.
  sim::dram d(1 << 20);
  sim::external_memory ext(d);
  rng r(29);
  const crypto::aes cipher(r.random_bytes(16));
  aegis_edu a(ext, cipher, {});
  bytes two(64);
  for (std::size_t i = 0; i < two.size(); ++i) two[i] = static_cast<u8>(i * 3);
  (void)a.write(0x100, two);
  EXPECT_EQ(ext.bytes_read(), 0u);
  EXPECT_EQ(a.stats().rmw_ops, 0u);
  EXPECT_EQ(a.stats().reads, 0u);
  EXPECT_EQ(a.stats().cipher_blocks, 6u); // 2 data blocks + the IV, per line
  EXPECT_EQ(a.stats().crypto_cycles, 84u);
  EXPECT_EQ(a.nonces().at(0x100), 1u);
  EXPECT_EQ(a.nonces().at(0x120), 1u);
  bytes back(64);
  (void)a.read(0x100, back);
  EXPECT_EQ(back, two);
}

TEST(AegisEdu, RejectsCipherNarrowerThanSixteenBytes) {
  // An 8-byte counter block folds line and nonce into one half: line 0x20
  // at nonce 1 and line 0 at nonce 33 would share an IV.
  sim::dram d(1 << 20);
  sim::external_memory ext(d);
  rng r(28);
  const crypto::des cipher(r.random_bytes(8));
  EXPECT_THROW(aegis_edu(ext, cipher, {}), std::invalid_argument);
}

TEST(CompressEdu, DensityGainOnCode) {
  sim::dram d(1 << 20);
  sim::external_memory ext(d);
  rng r(23);
  const crypto::aes prf(r.random_bytes(16));
  compress_edu ce(ext, prf, {});

  const bytes img = make_image(64 * 1024, 24);
  ce.install_code(0, img);
  EXPECT_GT(ce.density_gain(), 0.15);

  bytes line(32);
  (void)ce.read(1024, line);
  EXPECT_TRUE(std::equal(line.begin(), line.end(), img.begin() + 1024));
}

TEST(CompressEdu, CodeRegionReadOnly) {
  sim::dram d(1 << 20);
  sim::external_memory ext(d);
  rng r(25);
  const crypto::aes prf(r.random_bytes(16));
  compress_edu ce(ext, prf, {});
  ce.install_code(0, make_image(4096, 26));
  const bytes data = {1};
  EXPECT_THROW((void)ce.write(100, data), std::logic_error);
  (void)ce.write(8192, data); // data region is fine
}

TEST(CompressEdu, CompressedFetchReadsFewerBusBytes) {
  sim::dram d(1 << 20);
  sim::external_memory ext(d);
  rng r(27);
  const crypto::aes prf(r.random_bytes(16));
  compress_edu ce(ext, prf, {});
  const bytes img = make_image(64 * 1024, 28);
  ce.install_code(0, img);

  const u64 before = ext.bytes_read();
  bytes line(64);
  (void)ce.read(4096, line);
  const u64 moved = ext.bytes_read() - before;
  EXPECT_LT(moved, 64u); // compressed group smaller than the line
}

TEST(SecureSoc, EngineNamesRoundTrip) {
  for (engine_kind k : all_engines()) {
    secure_soc soc(k, default_cfg());
    EXPECT_FALSE(engine_name(k).empty());
  }
}

TEST(SecureSoc, BusProbeSeesOnlyCiphertext) {
  soc_config cfg = default_cfg();
  secure_soc soc(engine_kind::stream_otp, cfg);
  const bytes img = make_image(32 * 1024, 29);
  soc.load_image(0, img);

  sim::recording_probe probe;
  soc.attach_probe(probe);
  const workload w = sim::make_jumpy_code(20'000, 32 * 1024, 0.1, 30);
  (void)soc.run(w);

  ASSERT_FALSE(probe.log().empty());
  EXPECT_LT(attack::leakage_fraction(probe, 0, img), 0.02);
}

TEST(SecureSoc, PlaintextBaselineLeaksEverythingTouched) {
  soc_config cfg = default_cfg();
  secure_soc soc(engine_kind::plaintext, cfg);
  const bytes img = make_image(32 * 1024, 31);
  soc.load_image(0, img);

  sim::recording_probe probe;
  soc.attach_probe(probe);
  const workload w = sim::make_jumpy_code(20'000, 32 * 1024, 0.1, 32);
  (void)soc.run(w);

  EXPECT_GT(attack::leakage_fraction(probe, 0, img), 0.5);
}

} // namespace
} // namespace buscrypt::edu
