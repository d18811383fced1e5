// The crash-safe update agent: clean commits, the anti-downgrade
// fail-stop, manifest/geometry rejection, journal-driven recovery after
// seeded power cuts at every phase, bounded stall retry, and the journal
// MAC chain against both torn tails (crash signature) and mid-chain
// tampering. The whole-device sweeps drive update/lifetime.hpp — the same
// runner tab13 and the fleet lifetime cells use — so the invariant is
// stated once: every episode ends exactly-old or exactly-new.

#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "crypto/rsa.hpp"
#include "engine/bus_encryption_engine.hpp"
#include "engine/cipher_backend.hpp"
#include "engine/keyslot_manager.hpp"
#include "fleet/fleet.hpp"
#include "keymgmt/session.hpp"
#include "sim/bus.hpp"
#include "sim/dram.hpp"
#include "sim/fault_injector.hpp"
#include "update/lifetime.hpp"
#include "update/update_agent.hpp"

#include <gtest/gtest.h>

#include <cstdio>

namespace buscrypt {
namespace {

using update::update_journal;
using update::update_state;
using update::update_status;

constexpr std::size_t k_image = 4u << 10;
constexpr std::size_t k_chunk = 512;

update::update_config test_cfg(engine::auth_mode mode = engine::auth_mode::none,
                               const std::string& backend = "aes-ctr") {
  update::update_config c;
  c.slot_base_a = 0;
  c.slot_base_b = k_image;
  c.slot_bytes = k_image;
  c.staging_base = 2 * k_image;
  c.auth = mode;
  c.tag_base_a = 4 * k_image;
  c.tag_base_b = 6 * k_image;
  c.tag_base_staging = 8 * k_image;
  c.backend = backend;
  c.chunk_bytes = k_chunk;
  return c;
}

/// One device: DRAM, injectable external path, keyslot engine, agent,
/// provisioned with a v1 image and holding a packaged v2.
struct rig {
  rng r{0x0DDC0FFEEULL};
  crypto::rsa_keypair keys{crypto::rsa_generate(r, 256)};
  keymgmt::insecure_channel net;
  sim::dram chip{64u << 10};
  sim::external_memory ext{chip};
  sim::fault_injector fi{ext};
  engine::keyslot_manager slots{engine::backend_registry::builtin(), 4};
  engine::bus_encryption_engine eng{fi, slots};
  update::update_agent agent;
  bytes v1{rng(11).random_bytes(k_image)};
  bytes v2{rng(12).random_bytes(k_image)};
  update::update_package up;

  explicit rig(update::update_config cfg = test_cfg())
      : agent(eng, fi, keys.priv, cfg) {
    agent.provision(v1, 1);
    up = update::make_update_package(v2, 2, keys.pub, net, r, k_chunk);
  }
};

TEST(Update, CleanCommitBumpsVersionAndSwapsSlot) {
  rig rg;
  EXPECT_EQ(rg.agent.version(), 1u);
  EXPECT_EQ(rg.agent.active_slot(), 0u);
  EXPECT_EQ(rg.agent.active_image(), rg.v1);

  const update::update_report rep = rg.agent.apply(rg.up);
  EXPECT_EQ(rep.status, update_status::committed);
  EXPECT_EQ(rg.agent.version(), 2u);
  EXPECT_EQ(rg.agent.active_slot(), 1u);
  EXPECT_EQ(rg.agent.active_image(), rg.v2);
  EXPECT_GT(rep.verify_cycles, 0u);
  EXPECT_GT(rep.install_cycles, 0u);
}

TEST(Update, JournalRecordsTheStateSequence) {
  rig rg;
  (void)rg.agent.apply(rg.up);
  const auto es = rg.agent.journal().entries();
  ASSERT_EQ(es.size(), 5u);
  const update_state want[] = {update_state::committed, update_state::staged,
                               update_state::installing, update_state::installed,
                               update_state::committed};
  for (std::size_t i = 0; i < es.size(); ++i) {
    EXPECT_TRUE(es[i].valid) << i;
    EXPECT_EQ(es[i].state, want[i]) << i;
    EXPECT_EQ(es[i].seq, i + 1) << i; // seq is 1-based: records() + 1 at append
  }
  EXPECT_EQ(es.back().version, 2u);
  EXPECT_FALSE(rg.agent.journal().tampered());
}

TEST(Update, DowngradeFailStopsBeforeStaging) {
  rig rg;
  (void)rg.agent.apply(rg.up);
  const update::update_package stale =
      update::make_update_package(rg.v1, 1, rg.keys.pub, rg.net, rg.r, k_chunk);
  const update::update_report rep = rg.agent.apply(stale);
  EXPECT_EQ(rep.status, update_status::downgrade_blocked);
  EXPECT_EQ(rg.agent.version(), 2u);
  EXPECT_EQ(rg.agent.active_image(), rg.v2);
  // Nothing was journaled for the refused attempt.
  EXPECT_EQ(rg.agent.journal().records(), 5u);
}

TEST(Update, ManifestTamperIsRejected) {
  rig rg;
  update::update_package bad = rg.up;
  bad.manifest_mac[3] ^= 0x40;
  EXPECT_EQ(rg.agent.apply(bad).status, update_status::verify_failed);
  EXPECT_EQ(rg.agent.version(), 1u);
  EXPECT_EQ(rg.agent.active_image(), rg.v1);
}

TEST(Update, VersionFieldIsBoundByTheManifest) {
  rig rg;
  (void)rg.agent.apply(rg.up);
  // Replay the stale v1 package with its version field forged to 3: the
  // manifest MAC (keyed by K, which binds the version) must catch it.
  update::update_package forged =
      update::make_update_package(rg.v1, 1, rg.keys.pub, rg.net, rg.r, k_chunk);
  forged.version = 3;
  EXPECT_EQ(rg.agent.apply(forged).status, update_status::verify_failed);
  EXPECT_EQ(rg.agent.version(), 2u);
  EXPECT_EQ(rg.agent.active_image(), rg.v2);
}

TEST(Update, WrongChunkGeometryIsRejected) {
  rig rg;
  const update::update_package odd =
      update::make_update_package(rg.v2, 2, rg.keys.pub, rg.net, rg.r, 2 * k_chunk);
  EXPECT_EQ(rg.agent.apply(odd).status, update_status::verify_failed);
  EXPECT_EQ(rg.agent.version(), 1u);
}

TEST(Update, PowerCycleWithNothingPendingRecoversNonePending) {
  rig rg;
  (void)rg.agent.apply(rg.up);
  rg.agent.power_cycle();
  const update::update_report rep = rg.agent.recover();
  EXPECT_EQ(rep.status, update_status::none_pending);
  EXPECT_EQ(rg.agent.version(), 2u);
  EXPECT_EQ(rg.agent.active_image(), rg.v2);
}

TEST(Update, CutMidInstallWithoutReofferRollsBack) {
  rig rg;
  sim::fault_plan plan;
  plan.point = sim::fault_point::journal;
  plan.trigger = 2; // the `installed` record: cut after the slot program
  rg.fi.arm(plan);
  EXPECT_THROW((void)rg.agent.apply(rg.up), sim::power_cut);
  rg.agent.power_cycle();
  rg.fi.disarm();
  const update::update_report rep = rg.agent.recover(nullptr);
  EXPECT_EQ(rep.status, update_status::rolled_back);
  EXPECT_EQ(rg.agent.version(), 1u);
  EXPECT_EQ(rg.agent.active_slot(), 0u);
  EXPECT_EQ(rg.agent.active_image(), rg.v1);
}

TEST(Update, JournalCutAtEveryRecordResumesToCommit) {
  for (u64 trigger = 0; trigger < 4; ++trigger) {
    update::lifetime_config lc;
    lc.seed = 100 + trigger;
    lc.inject = sim::fault_point::journal;
    lc.trigger = trigger;
    const update::lifetime_result lr = update::run_lifetime(lc);
    EXPECT_TRUE(lr.cut) << trigger;
    EXPECT_TRUE(update::lifetime_safe(lr)) << trigger;
    // The daemon re-offers the package, so every cut re-drives to commit.
    EXPECT_TRUE(lr.committed_new) << trigger;
  }
}

TEST(Update, FlushCutAtEveryBoundaryIsSafe) {
  for (u64 trigger = 0; trigger < 3; ++trigger) {
    update::lifetime_config lc;
    lc.seed = 200 + trigger;
    lc.inject = sim::fault_point::flush;
    lc.trigger = trigger;
    const update::lifetime_result lr = update::run_lifetime(lc);
    EXPECT_TRUE(lr.cut) << trigger;
    EXPECT_TRUE(update::lifetime_safe(lr)) << trigger;
  }
}

TEST(Update, BusBeatCutsNeverTearAnyAuthScheme) {
  struct scheme {
    engine::auth_mode mode;
    const char* backend;
  };
  const scheme schemes[] = {{engine::auth_mode::none, "aes-ctr"},
                            {engine::auth_mode::mac, "aes-ctr"},
                            {engine::auth_mode::area, "aes-ecb"},
                            {engine::auth_mode::hash_tree, "aes-ctr"}};
  for (const scheme& s : schemes) {
    rng r(static_cast<u64>(s.mode) * 977 + 5);
    for (int i = 0; i < 5; ++i) {
      update::lifetime_config lc;
      lc.seed = r.next_u64();
      lc.auth = s.mode;
      lc.backend = s.backend;
      lc.inject = sim::fault_point::bus_beat;
      lc.trigger = r.between(8, 6000);
      const update::lifetime_result lr = update::run_lifetime(lc);
      EXPECT_TRUE(update::lifetime_safe(lr))
          << engine::auth_mode_name(s.mode) << " trigger " << lc.trigger
          << " status " << update::update_status_name(lr.status);
    }
  }
}

TEST(Update, StagedBitFlipsAreAlwaysCaughtOrOutrun) {
  for (const engine::auth_mode mode :
       {engine::auth_mode::none, engine::auth_mode::mac, engine::auth_mode::hash_tree}) {
    rng r(static_cast<u64>(mode) * 31 + 7);
    for (int i = 0; i < 4; ++i) {
      update::lifetime_config lc;
      lc.seed = r.next_u64();
      lc.auth = mode;
      lc.inject = sim::fault_point::bit_flip;
      lc.trigger = r.between(8, 6000);
      const update::lifetime_result lr = update::run_lifetime(lc);
      // Flip caught (old intact) or it landed after the image was safely
      // through (new committed) — but never a torn or silently wrong image.
      EXPECT_TRUE(update::lifetime_safe(lr))
          << engine::auth_mode_name(mode) << " trigger " << lc.trigger;
    }
  }
}

TEST(Update, StallsWithinTheRetryBudgetCommit) {
  update::lifetime_config lc;
  lc.seed = 42;
  lc.inject = sim::fault_point::bus_stall;
  lc.stalls = 3;
  const update::lifetime_result lr = update::run_lifetime(lc);
  EXPECT_EQ(lr.status, update_status::committed);
  EXPECT_EQ(lr.retries, 3u);
  EXPECT_TRUE(lr.committed_new);
}

TEST(Update, StallsBeyondTheRetryBudgetAbortToTheOldImage) {
  update::lifetime_config lc;
  lc.seed = 43;
  lc.inject = sim::fault_point::bus_stall;
  lc.stalls = 20;
  const update::lifetime_result lr = update::run_lifetime(lc);
  EXPECT_EQ(lr.status, update_status::stall_aborted);
  EXPECT_TRUE(lr.old_intact);
  EXPECT_TRUE(lr.downgrade_blocked);
}

TEST(Update, TornTailIsNeutralizedNotEscalatedToTamper) {
  // Regression: recovery appends records past the torn cell (rollback
  // here), making it interior. Without the in-place `torn` acknowledgement
  // every later recovery would misread the benign crash signature as
  // tampering and fail-stop the device forever.
  rig rg;
  sim::fault_plan plan;
  plan.point = sim::fault_point::journal;
  plan.trigger = 2; // tear the `installed` record mid-write
  rg.fi.arm(plan);
  EXPECT_THROW((void)rg.agent.apply(rg.up), sim::power_cut);
  rg.agent.power_cycle();
  rg.fi.disarm();
  EXPECT_EQ(rg.agent.recover(nullptr).status, update_status::rolled_back);

  // The journal chain reads clean: the torn cell was re-MAC'd as `torn`.
  EXPECT_FALSE(rg.agent.journal().tampered());
  const auto es = rg.agent.journal().entries();
  EXPECT_EQ(es[3].state, update_state::torn);
  EXPECT_EQ(es[3].seq, 4u);

  // Later crash recoveries keep working instead of reporting tampering.
  rg.agent.power_cycle();
  EXPECT_EQ(rg.agent.recover(nullptr).status, update_status::none_pending);
  EXPECT_EQ(rg.agent.version(), 1u);
  EXPECT_EQ(rg.agent.active_image(), rg.v1);

  // And the device still takes the update afterwards.
  EXPECT_EQ(rg.agent.apply(rg.up).status, update_status::committed);
  EXPECT_EQ(rg.agent.active_image(), rg.v2);
  rg.agent.power_cycle();
  EXPECT_EQ(rg.agent.recover(nullptr).status, update_status::none_pending);
}

TEST(Update, ResumePastATornTailLeavesACleanJournal) {
  rig rg;
  sim::fault_plan plan;
  plan.point = sim::fault_point::journal;
  plan.trigger = 2; // tear the `installed` record; `staged` is intact
  rg.fi.arm(plan);
  EXPECT_THROW((void)rg.agent.apply(rg.up), sim::power_cut);
  rg.agent.power_cycle();
  rg.fi.disarm();
  // The daemon re-offers the package: the torn marker must stay invisible
  // to the pending-update detection (the intact `staged` record drives it).
  EXPECT_EQ(rg.agent.recover(&rg.up).status, update_status::resumed);
  EXPECT_EQ(rg.agent.version(), 2u);
  EXPECT_EQ(rg.agent.active_image(), rg.v2);
  EXPECT_FALSE(rg.agent.journal().tampered());
  rg.agent.power_cycle();
  EXPECT_EQ(rg.agent.recover(nullptr).status, update_status::none_pending);
  EXPECT_EQ(rg.agent.version(), 2u);
}

TEST(Update, RecoverBeforeProvisioningReportsInsteadOfThrowing) {
  // Regression: recover(pkg) on a factory-fresh device (empty journal,
  // pkg version > 0) fell through to apply(), which throws — an exception
  // escape from a path documented to return a report.
  rng r{1};
  crypto::rsa_keypair keys = crypto::rsa_generate(r, 256);
  keymgmt::insecure_channel net;
  sim::dram chip{64u << 10};
  sim::external_memory ext{chip};
  sim::fault_injector fi{ext};
  engine::keyslot_manager slots{engine::backend_registry::builtin(), 4};
  engine::bus_encryption_engine eng{fi, slots};
  update::update_agent agent(eng, fi, keys.priv, test_cfg());
  const bytes img = rng(2).random_bytes(k_image);
  const update::update_package up =
      update::make_update_package(img, 1, keys.pub, net, r, k_chunk);
  EXPECT_EQ(agent.recover(&up).status, update_status::none_pending);
  EXPECT_EQ(agent.recover(nullptr).status, update_status::none_pending);
}

TEST(Update, MidChainJournalTamperFailStops) {
  rig rg;
  (void)rg.agent.apply(rg.up);
  rg.agent.power_cycle();
  // Flip a byte of the `staged` record (index 1 of 5): mid-chain MAC
  // breakage is tampering, not a crash signature.
  rg.agent.journal().raw()[update_journal::k_record_bytes + 5] ^= 0x01;
  EXPECT_TRUE(rg.agent.journal().tampered());
  const update::update_report rep = rg.agent.recover(nullptr);
  EXPECT_EQ(rep.status, update_status::journal_tampered);
  EXPECT_EQ(rg.agent.version(), 2u);
  EXPECT_EQ(rg.agent.active_image(), rg.v2);
}

TEST(Update, TailJournalTamperCannotRewindTheVersion) {
  rig rg;
  (void)rg.agent.apply(rg.up);
  rg.agent.power_cycle();
  // Corrupt the newest `committed` record. It now looks like a torn tail
  // (a crash), but the monotonic on-chip version mirror must not rewind
  // to the baseline commit — that would be a downgrade primitive.
  rg.agent.journal().raw()[4 * update_journal::k_record_bytes + 20] ^= 0x80;
  const update::update_report rep = rg.agent.recover(nullptr);
  EXPECT_EQ(rep.status, update_status::rolled_back);
  EXPECT_EQ(rg.agent.version(), 2u);
  EXPECT_EQ(rg.agent.active_image(), rg.v2);
}

TEST(Update, LifetimeEpisodesAreDeterministic) {
  update::lifetime_config lc;
  lc.seed = 777;
  lc.inject = sim::fault_point::bus_beat;
  lc.trigger = 1234;
  const update::lifetime_result a = update::run_lifetime(lc);
  const update::lifetime_result b = update::run_lifetime(lc);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.beats, b.beats);
  EXPECT_EQ(a.dram_fingerprint, b.dram_fingerprint);
  EXPECT_EQ(a.update_cycles, b.update_cycles);
}

/// The episode the fleet drives for lifetime cell \p c.
update::lifetime_config lifetime_of(const fleet::fleet_cell& c) {
  update::lifetime_config lc;
  lc.seed = c.seed;
  lc.auth = c.auth;
  lc.backend = c.backend.empty()
                   ? (c.auth == engine::auth_mode::area ? "aes-ecb" : "aes-ctr")
                   : c.backend;
  lc.inject = c.inject;
  lc.trigger = c.inject_trigger;
  lc.stalls = c.inject == sim::fault_point::bus_stall
                  ? static_cast<unsigned>(c.inject_trigger)
                  : 0;
  lc.offer_package = c.offer_package;
  return lc;
}

TEST(LifetimeGolden, PinsEveryCellOfTheFaultByAuthMatrix) {
  // Status, cut, beats, retries, both cycle counts and the DRAM image of
  // each of the 24 cells (6 fault points x 4 auth schemes) of
  // lifetime_matrix(1, 1), folded into one FNV-1a. perfbench's
  // update_lifetime workload drives these episodes.
  std::string list;
  for (const fleet::fleet_cell& c : fleet::lifetime_matrix(1, 1)) {
    const update::lifetime_result lr = update::run_lifetime(lifetime_of(c));
    char line[160];
    std::snprintf(line, sizeof line, "%s cut=%d beats=%llu retries=%u upd=%llu "
                  "traffic=%llu dram=%016llx\n",
                  std::string(update::update_status_name(lr.status)).c_str(),
                  lr.cut ? 1 : 0, static_cast<unsigned long long>(lr.beats), lr.retries,
                  static_cast<unsigned long long>(lr.update_cycles),
                  static_cast<unsigned long long>(lr.traffic_cycles),
                  static_cast<unsigned long long>(lr.dram_fingerprint));
    list += c.label() + " " + line;
  }
  const std::span<const u8> text(reinterpret_cast<const u8*>(list.data()), list.size());
  char fnv[17];
  std::snprintf(fnv, sizeof fnv, "%016llx", static_cast<unsigned long long>(fnv1a(text)));
  EXPECT_EQ(std::string(fnv), "67d40764ee7474ea") << list;
}

} // namespace
} // namespace buscrypt
