// The integrity EDU (the paper's "future exploration"), the tamper-attack
// trio, pad-reuse, and address-trace leakage.

#include "attack/pad_reuse.hpp"
#include "attack/tamper.hpp"
#include "attack/trace_analysis.hpp"
#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/des.hpp"
#include "edu/integrity_edu.hpp"
#include "edu/soc.hpp"
#include "edu/stream_edu.hpp"

#include <gtest/gtest.h>

#include <set>

namespace buscrypt {
namespace {

using edu::integrity_edu;
using edu::integrity_edu_config;
using edu::integrity_level;

struct rig {
  sim::dram chip{8u << 20};
  sim::external_memory ext{chip};
  rng r{99};
  crypto::aes prf{r.random_bytes(16)};
  bytes mac_key{r.random_bytes(16)};

  integrity_edu make(integrity_level level) {
    integrity_edu_config cfg;
    cfg.level = level;
    return integrity_edu(ext, prf, mac_key, cfg);
  }
};

TEST(IntegrityEdu, RoundTripAllLevels) {
  for (integrity_level level :
       {integrity_level::none, integrity_level::mac, integrity_level::mac_versioned}) {
    rig rg;
    integrity_edu e = rg.make(level);
    const bytes img = rg.r.random_bytes(4096);
    e.install_image(0, img);
    bytes back(img.size());
    e.read_image(0, back);
    EXPECT_EQ(back, img) << static_cast<int>(level);
    EXPECT_EQ(e.tamper_events(), 0u);
  }
}

TEST(IntegrityEdu, CiphertextAndTagsInExternalMemory) {
  rig rg;
  integrity_edu e = rg.make(integrity_level::mac_versioned);
  const bytes line(32, 0x55);
  (void)e.write(0x100, line);

  bytes raw(32);
  rg.chip.read_bytes(0x100, raw);
  EXPECT_NE(raw, line); // ciphertext

  bytes tag(e.config().tag_bytes);
  rg.chip.read_bytes(e.authenticator()->tag_addr(0x100), tag);
  bool tag_nonzero = false;
  for (u8 b : tag)
    if (b) tag_nonzero = true;
  EXPECT_TRUE(tag_nonzero);
}

TEST(IntegrityEdu, VersionedWritesChangeCiphertext) {
  rig rg;
  integrity_edu e = rg.make(integrity_level::mac_versioned);
  const bytes line(32, 0x42);
  (void)e.write(0x200, line);
  bytes ct1(32);
  rg.chip.read_bytes(0x200, ct1);
  (void)e.write(0x200, line); // same data again
  bytes ct2(32);
  rg.chip.read_bytes(0x200, ct2);
  EXPECT_NE(ct1, ct2); // fresh pad per version: no two-time pad
}

TEST(IntegrityEdu, PadsNeverRepeatAcrossVersionsOrBlockOffsets) {
  // A zero line stores its pad. Every pad block of four adjacent lines over
  // 260 versions each is distinct, across offsets, lines and versions
  // (versions 1 and 257 share their low byte).
  rig rg;
  integrity_edu e = rg.make(integrity_level::mac_versioned);
  const bytes zero(integrity_edu::line_bytes, 0);
  std::set<bytes> pads;
  std::size_t blocks = 0;
  for (int v = 1; v <= 260; ++v) {
    for (addr_t line = 0x200; line < 0x280; line += integrity_edu::line_bytes) {
      (void)e.write(line, zero);
      bytes ct(integrity_edu::line_bytes);
      rg.chip.read_bytes(line, ct);
      for (std::size_t off = 0; off < ct.size(); off += 16, ++blocks)
        pads.emplace(ct.begin() + off, ct.begin() + off + 16);
    }
  }
  EXPECT_EQ(blocks, 260u * 4u * 2u);
  EXPECT_EQ(pads.size(), blocks);
}

TEST(IntegrityEdu, UnversionedWritesReusePad) {
  rig rg;
  integrity_edu e = rg.make(integrity_level::mac);
  const bytes line(32, 0x42);
  (void)e.write(0x200, line);
  bytes ct1(32);
  rg.chip.read_bytes(0x200, ct1);
  (void)e.write(0x200, line);
  bytes ct2(32);
  rg.chip.read_bytes(0x200, ct2);
  EXPECT_EQ(ct1, ct2); // deterministic: the weakness pad_reuse exploits
}

TEST(IntegrityEdu, SubLineWritePaysRmw) {
  rig rg;
  integrity_edu e = rg.make(integrity_level::mac);
  const bytes word = {1, 2, 3, 4};
  (void)e.write(0x304, word);
  EXPECT_EQ(e.stats().rmw_ops, 1u);
  bytes back(4);
  (void)e.read(0x304, back);
  EXPECT_EQ(back, word);
}

TEST(IntegrityEdu, CostOrderingAcrossLevels) {
  const bytes line(32, 0x11);
  cycles t[3];
  int idx = 0;
  for (integrity_level level :
       {integrity_level::none, integrity_level::mac, integrity_level::mac_versioned}) {
    rig rg;
    integrity_edu e = rg.make(level);
    (void)e.write(0, line);
    bytes buf(32);
    t[idx++] = e.read(0, buf);
  }
  EXPECT_LT(t[0], t[1]); // MAC adds tag fetch + MAC unit time
  EXPECT_LE(t[1], t[2] + 1);
}

TEST(IntegrityEdu, RejectsBadConfig) {
  rig rg;
  integrity_edu_config cfg;
  cfg.tag_bytes = 0;
  EXPECT_THROW(integrity_edu(rg.ext, rg.prf, rg.mac_key, cfg), std::invalid_argument);
  cfg = {};
  cfg.tag_base = 0; // overlaps protected range
  EXPECT_THROW(integrity_edu(rg.ext, rg.prf, rg.mac_key, cfg), std::invalid_argument);
  cfg = {};
  cfg.level = integrity_level::mac_versioned;
  cfg.tag_bytes = 12; // some tags would straddle two 64-byte tag lines
  EXPECT_THROW(integrity_edu(rg.ext, rg.prf, rg.mac_key, cfg), std::invalid_argument);
  // An 8-byte counter block folds block index and version into one half:
  // at line 0x200, block 0 at version 1 and block 3 at version 2 would
  // share a pad.
  const crypto::des narrow(rg.r.random_bytes(8));
  EXPECT_THROW(integrity_edu(rg.ext, narrow, rg.mac_key, {}), std::invalid_argument);
}

// --- the detection matrix ---------------------------------------------------

TEST(TamperSuite, NoProtectionMissesEverything) {
  rig rg;
  integrity_edu e = rg.make(integrity_level::none);
  const auto rep = attack::run_tamper_suite(e, rg.chip, 0x400, 0x800);
  EXPECT_FALSE(rep.clean_faulted) << "false fault on a clean round trip";
  EXPECT_FALSE(rep.spoof_detected);
  EXPECT_FALSE(rep.splice_detected);
  EXPECT_FALSE(rep.replay_detected);
  EXPECT_TRUE(rep.spoof_corrupted_data); // and the CPU silently ate garbage
}

TEST(TamperSuite, MacCatchesSpoofAndSpliceButNotReplay) {
  rig rg;
  integrity_edu e = rg.make(integrity_level::mac);
  const auto rep = attack::run_tamper_suite(e, rg.chip, 0x400, 0x800);
  EXPECT_FALSE(rep.clean_faulted) << "false fault on a clean round trip";
  EXPECT_TRUE(rep.spoof_detected);
  EXPECT_TRUE(rep.splice_detected);
  EXPECT_FALSE(rep.replay_detected);
  EXPECT_TRUE(rep.replay_restored_stale); // the rollback WORKED
}

TEST(TamperSuite, VersionedMacCatchesAllThree) {
  rig rg;
  integrity_edu e = rg.make(integrity_level::mac_versioned);
  const auto rep = attack::run_tamper_suite(e, rg.chip, 0x400, 0x800);
  EXPECT_FALSE(rep.clean_faulted) << "false fault on a clean round trip";
  EXPECT_TRUE(rep.spoof_detected);
  EXPECT_TRUE(rep.splice_detected);
  EXPECT_TRUE(rep.replay_detected);
  EXPECT_FALSE(rep.replay_restored_stale);
}

// --- pad reuse ----------------------------------------------------------------

TEST(PadReuse, StreamEduLeaksXorOfPlaintexts) {
  // The address-only pad of stream_edu reuses its pad on rewrite; a probe
  // capturing both versions cancels it.
  sim::dram chip(1 << 20);
  sim::external_memory ext(chip);
  rng r(7);
  const crypto::aes prf(r.random_bytes(16));
  edu::stream_edu s(ext, prf, {});

  const char* msg1 = "balance: $0000100.00 USD acct#777 ";
  const char* msg2 = "balance: $9999999.99 USD acct#777 ";
  const bytes pt1(reinterpret_cast<const u8*>(msg1),
                  reinterpret_cast<const u8*>(msg1) + 34);
  const bytes pt2(reinterpret_cast<const u8*>(msg2),
                  reinterpret_cast<const u8*>(msg2) + 34);

  (void)s.write(0x500, pt1);
  bytes ct1(34);
  chip.read_bytes(0x500, ct1);
  (void)s.write(0x500, pt2);
  bytes ct2(34);
  chip.read_bytes(0x500, ct2);

  // The attacker knows msg1 (e.g. the advertised default) and recovers msg2.
  const bytes recovered = attack::two_time_pad_recover(ct1, ct2, pt1);
  EXPECT_EQ(recovered, pt2);
  EXPECT_GT(attack::printable_fraction(recovered), 0.95);
}

TEST(PadReuse, VersionedPadsDefeatIt) {
  sim::dram chip(8u << 20);
  sim::external_memory ext(chip);
  rng r(8);
  const crypto::aes prf(r.random_bytes(16));
  integrity_edu e(ext, prf, r.random_bytes(16), {});

  bytes pt1(32, 'A');
  bytes pt2(32, 'B');
  (void)e.write(0x4e0, pt1);
  bytes ct1(32);
  chip.read_bytes(0x4e0, ct1);
  (void)e.write(0x4e0, pt2);
  bytes ct2(32);
  chip.read_bytes(0x4e0, ct2);

  const bytes recovered = attack::two_time_pad_recover(ct1, ct2, pt1);
  EXPECT_NE(recovered, pt2); // pads differ: XOR does not cancel
}

TEST(PadReuse, InputValidation) {
  EXPECT_THROW((void)attack::xor_ciphertexts(bytes(4), bytes(5)), std::invalid_argument);
  EXPECT_THROW((void)attack::two_time_pad_recover(bytes(4), bytes(4), bytes(5)),
               std::invalid_argument);
}

// --- address-trace leakage ------------------------------------------------------

TEST(TraceAnalysis, LoopStructureVisibleThroughEncryption) {
  // Data is perfectly encrypted; the fetch ADDRESS sequence still shows a
  // loop bigger than the cache, its period, and the working set.
  edu::soc_config cfg;
  cfg.l1.size = 4 * 1024;
  cfg.mem_size = 4u << 20;
  edu::secure_soc soc(edu::engine_kind::stream_otp, cfg);
  rng r(9);
  soc.load_image(0, r.random_bytes(256 * 1024));

  sim::recording_probe probe;
  soc.attach_probe(probe);
  // A 64 KiB loop: 16x the cache, so every iteration misses the same way.
  const std::size_t loop_bytes = 64 * 1024;
  sim::workload w;
  w.name = "big-loop";
  for (int iter = 0; iter < 6; ++iter)
    for (addr_t pc = 0; pc < loop_bytes; pc += 4)
      w.accesses.push_back({pc, 4, sim::access_kind::fetch});
  (void)soc.run(w);

  const auto profile = attack::profile_bus_trace(probe, cfg.l1.line_size);
  EXPECT_EQ(profile.distinct_lines, loop_bytes / cfg.l1.line_size);
  EXPECT_EQ(profile.loop_period, loop_bytes / cfg.l1.line_size);
  EXPECT_EQ(profile.write_beats, 0u);
}

TEST(TraceAnalysis, WriteFractionVisible) {
  edu::soc_config cfg;
  cfg.l1.size = 1024;
  cfg.l1.ways = 2;
  cfg.l1.write_back = false;
  cfg.mem_size = 4u << 20;
  edu::secure_soc soc(edu::engine_kind::stream_otp, cfg);
  rng r(10);
  soc.load_image(0, r.random_bytes(64 * 1024));
  soc.load_image(1 << 20, bytes(64 * 1024, 0));

  sim::recording_probe probe;
  soc.attach_probe(probe);
  const auto w = sim::make_data_rw(20'000, 64 * 1024, 0.5, 0.5, 4, 11);
  (void)soc.run(w);

  const auto profile = attack::profile_bus_trace(probe, 32);
  EXPECT_GT(profile.write_beats, 0u);
  EXPECT_GT(profile.write_fraction(), 0.05);
  EXPECT_GT(profile.distinct_lines, 100u);
}

TEST(TraceAnalysis, EmptyTrace) {
  sim::recording_probe probe;
  const auto profile = attack::profile_bus_trace(probe, 32);
  EXPECT_EQ(profile.distinct_lines, 0u);
  EXPECT_EQ(profile.loop_period, 0u);
}

} // namespace
} // namespace buscrypt
