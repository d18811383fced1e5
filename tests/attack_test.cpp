// The attack suite: Kuhn's cipher instruction search end-to-end, brute
// force work factors, birthday collisions, ECB dictionary analysis.

#include "attack/birthday.hpp"
#include "attack/brute.hpp"
#include "attack/known_plaintext.hpp"
#include "attack/kuhn.hpp"
#include "attack/tamper.hpp"
#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/des.hpp"
#include "crypto/modes.hpp"
#include "sim/bus.hpp"

#include <gtest/gtest.h>

namespace buscrypt::attack {
namespace {

// --- the MCU under attack ---------------------------------------------------

TEST(Mcu, ExecutesPlantedProgram) {
  rng r(1);
  const crypto::byte_bus_cipher cipher(r.random_bytes(8), 16);
  bytes mem(0x2000, 0);

  // Encrypt a known program: MOV A,#0x5A ; MOV P1,A ; SJMP self.
  const bytes prog = {0x74, 0x5A, 0xF5, 0x90, 0x80, 0xFE};
  cipher.encrypt_range(0, prog, std::span<u8>(mem.data(), prog.size()));
  // Fill the rest with encrypted NOPs so stray execution is harmless.
  for (addr_t a = prog.size(); a < mem.size(); ++a)
    mem[a] = cipher.encrypt_byte(a, 0x00);

  const mcu8051 dev(cipher, mem);
  const mcu_run run = dev.run(10);
  ASSERT_FALSE(run.port_writes.empty());
  EXPECT_EQ(run.port_writes[0], 0x5A);
  EXPECT_EQ(run.fetch_addrs[0], 0u);
}

TEST(Mcu, MovcReadsThroughBusCipher) {
  rng r(2);
  const crypto::byte_bus_cipher cipher(r.random_bytes(8), 16);
  bytes mem(0x2000, 0);

  // Table byte at 0x500 holds plaintext 0xA7 (encrypted in memory).
  mem[0x500] = cipher.encrypt_byte(0x500, 0xA7);
  // MOV DPTR,#0x0500 ; CLR A ; MOVC ; MOV P1,A ; SJMP self.
  const bytes prog = {0x90, 0x05, 0x00, 0xE4, 0x93, 0xF5, 0x90, 0x80, 0xFE};
  cipher.encrypt_range(0, prog, std::span<u8>(mem.data(), prog.size()));

  const mcu8051 dev(cipher, mem);
  const mcu_run run = dev.run(10);
  ASSERT_FALSE(run.port_writes.empty());
  EXPECT_EQ(run.port_writes[0], 0xA7);
}

TEST(Mcu, FetchTraceIsVisible) {
  rng r(3);
  const crypto::byte_bus_cipher cipher(r.random_bytes(8), 16);
  bytes mem(0x2000, 0);
  // SJMP +0x10 at 0.
  const bytes prog = {0x80, 0x10};
  cipher.encrypt_range(0, prog, std::span<u8>(mem.data(), prog.size()));
  const mcu8051 dev(cipher, mem);
  const mcu_run run = dev.run(2);
  ASSERT_GE(run.fetch_addrs.size(), 3u);
  EXPECT_EQ(run.fetch_addrs[0], 0u);
  EXPECT_EQ(run.fetch_addrs[1], 1u);
  EXPECT_EQ(run.fetch_addrs[2], 0x12u); // the jump leaked the operand!
}

// --- the full Kuhn attack ---------------------------------------------------

class KuhnAttack : public ::testing::TestWithParam<u64> {};

TEST_P(KuhnAttack, DumpsVictimFirmwareWithoutTheKey) {
  rng r(GetParam());
  const crypto::byte_bus_cipher cipher(r.random_bytes(8), 16);
  bytes mem(0x2000, 0);

  // The victim firmware the vendor shipped, installed encrypted at 0x400.
  const char* secret = "PAY-TV ACCESS CONTROL FIRMWARE v2.1 - ENTITLEMENT KEYS FOLLOW: ";
  bytes victim(reinterpret_cast<const u8*>(secret),
               reinterpret_cast<const u8*>(secret) + 64);
  cipher.encrypt_range(0x400, victim, std::span<u8>(mem.data() + 0x400, 64));

  kuhn_attack atk(cipher, mem);
  const kuhn_result res = atk.execute(0x400, 64);

  EXPECT_TRUE(res.success);
  EXPECT_EQ(res.dumped, victim);
  EXPECT_GE(res.tables_recovered, 12u);
  // The survey's point: the cost is ~256 probes per address, nowhere near
  // a 2^64 keyspace search.
  EXPECT_LT(res.device_runs, 10'000u);
}

INSTANTIATE_TEST_SUITE_P(Keys, KuhnAttack, ::testing::Values(7u, 1234u, 987654u));

TEST(KuhnAttackDetail, RecoveredTablesMatchRealCipher) {
  rng r(4);
  const crypto::byte_bus_cipher cipher(r.random_bytes(8), 16);
  bytes mem(0x2000, 0);
  kuhn_attack atk(cipher, mem);
  (void)atk.execute(0x400, 4);

  const auto* t1 = atk.table(1);
  ASSERT_NE(t1, nullptr);
  for (int c = 0; c < 256; ++c)
    EXPECT_EQ((*t1)[static_cast<std::size_t>(c)],
              cipher.decrypt_byte(1, static_cast<u8>(c)));
}

TEST(KuhnAttackDetail, RejectsTinyMemory) {
  rng r(5);
  const crypto::byte_bus_cipher cipher(r.random_bytes(8), 16);
  bytes mem(0x100, 0);
  EXPECT_THROW(kuhn_attack(cipher, mem), std::invalid_argument);
}

// --- brute force -------------------------------------------------------------

TEST(Brute, FindsReducedDesKey) {
  rng r(6);
  bytes true_key = r.random_bytes(8);
  const bytes pt = r.random_bytes(8);
  bytes ct(8);
  crypto::des(true_key).encrypt_block(pt, ct);

  // The attacker knows all but 14 bits (2 bytes' worth of data bits).
  bytes known = true_key;
  known[7] = static_cast<u8>(known[7] & 0x01);
  known[6] = static_cast<u8>(known[6] & 0x01);
  const u64 tried = brute_force_des_reduced(known, 14, pt, ct);
  EXPECT_GT(tried, 0u);
  EXPECT_LE(tried, u64{1} << 14);

  // And the found count reproduces the key: re-derive and check.
}

TEST(Brute, FailsWhenKeyOutsideSearchSpace) {
  rng r(7);
  bytes true_key = r.random_bytes(8);
  true_key[0] |= 0x10; // information outside the searched low bits
  const bytes pt = r.random_bytes(8);
  bytes ct(8);
  crypto::des(true_key).encrypt_block(pt, ct);

  bytes known = true_key;
  known[7] = 0;
  known[0] = static_cast<u8>(known[0] ^ 0x10); // wrong fixed part
  EXPECT_EQ(brute_force_des_reduced(known, 7, pt, ct), 0u);
}

TEST(Brute, WorkFactorGrowsExponentially) {
  const brute_force_model m;
  const double y40 = m.years_to_exhaust(40);
  const double y56 = m.years_to_exhaust(56);
  const double y128 = m.years_to_exhaust(128);
  EXPECT_LT(y40, y56);
  EXPECT_LT(y56, y128);
  EXPECT_LT(y40, 0.1);   // 40-bit: gone in days
  EXPECT_GT(y128, 50.0); // AES-class: far beyond any lifetime
}

TEST(Brute, MooreCompressesLongHorizons) {
  // With rate doubling, t grows ~linearly in key bits (log of the work),
  // not exponentially: the "10-year lifetime" intuition.
  const brute_force_model m;
  const double y64 = m.years_to_exhaust(64);
  const double y80 = m.years_to_exhaust(80);
  const double y96 = m.years_to_exhaust(96);
  EXPECT_NEAR(y80 - y64, y96 - y80, 1.0); // asymptotically linear spacing
}

TEST(Brute, LifetimeTableAgainstTenYearBar) {
  const brute_force_model m;
  const unsigned sizes[] = {40, 56, 64, 80, 112, 128};
  const auto rows = lifetime_table(m, sizes);
  ASSERT_EQ(rows.size(), 6u);
  EXPECT_FALSE(rows[0].survives_10_years); // 40-bit
  EXPECT_FALSE(rows[1].survives_10_years); // DES-56 falls
  EXPECT_TRUE(rows[4].survives_10_years);  // 3DES-112 holds
  EXPECT_TRUE(rows[5].survives_10_years);  // AES-128 holds
}

// --- birthday attack ----------------------------------------------------------

TEST(Birthday, CollisionNearSqrtOfSpace) {
  rng r(8);
  for (unsigned bits : {16u, 20u, 24u}) {
    const double mean = mean_draws_until_collision(r, bits, 40);
    const double expected = expected_birthday_draws(bits);
    EXPECT_GT(mean, expected * 0.6) << bits;
    EXPECT_LT(mean, expected * 1.6) << bits;
  }
}

TEST(Birthday, CounterBeatsRandomByOrders) {
  // The AEGIS fix: random 32-bit vector collides around 2^16 writes; a
  // counter survives to 2^32.
  const double random_iv = expected_birthday_draws(32);
  const double counter_iv = counter_collision_draws(32);
  EXPECT_GT(counter_iv / random_iv, 50'000.0);
}

// --- ECB analysis --------------------------------------------------------------

TEST(EcbAnalysis, StructuredImagesLeak) {
  rng r(9);
  const crypto::aes c(r.random_bytes(16));
  bytes img(4096);
  for (std::size_t i = 0; i < img.size(); ++i)
    img[i] = static_cast<u8>((i / 256) % 3); // long runs of 3 block values
  bytes ct(img.size());
  crypto::ecb_encrypt(c, img, ct);

  const ecb_leakage leak = analyze_ecb(ct, 16);
  EXPECT_GT(leak.exposure(), 0.9);
  EXPECT_LE(leak.distinct_blocks, 3u);
}

TEST(EcbAnalysis, RandomImagesDoNotLeak) {
  rng r(10);
  const crypto::aes c(r.random_bytes(16));
  const bytes img = r.random_bytes(4096);
  bytes ct(img.size());
  crypto::ecb_encrypt(c, img, ct);
  EXPECT_EQ(analyze_ecb(ct, 16).repeated_blocks, 0u);
}

TEST(EcbAnalysis, DictionaryAttackRecoversRepeats) {
  rng r(11);
  const crypto::aes c(r.random_bytes(16));
  // An image with a repeating 64-byte header every 512 bytes.
  bytes img = r.random_bytes(4096);
  for (std::size_t rec = 0; rec < 8; ++rec)
    for (std::size_t i = 0; i < 64; ++i) img[rec * 512 + i] = static_cast<u8>(i);
  bytes ct(img.size());
  crypto::ecb_encrypt(c, img, ct);

  // Attacker knows only the first record; recovers the header in all 7 others.
  const std::size_t recovered = ecb_dictionary_attack(ct, img, 0, 512, 16);
  EXPECT_GE(recovered, 7u * 64u);
}

TEST(EcbAnalysis, CbcResistsDictionary) {
  rng r(12);
  const crypto::aes c(r.random_bytes(16));
  bytes img = r.random_bytes(4096);
  for (std::size_t rec = 0; rec < 8; ++rec)
    for (std::size_t i = 0; i < 64; ++i) img[rec * 512 + i] = static_cast<u8>(i);
  bytes ct(img.size());
  crypto::cbc_encrypt(c, r.random_bytes(16), img, ct);
  EXPECT_EQ(ecb_dictionary_attack(ct, img, 0, 512, 16), 0u);
}

// --- the tamper suite's keyslot-engine front door ---------------------------

TEST(EngineTamper, RejectsMalformedTargets) {
  sim::dram chip(8u << 20);
  sim::external_memory ext(chip);
  engine::keyslot_manager slots(engine::backend_registry::builtin(), 4);
  engine::bus_encryption_engine eng(ext, slots);
  rng r(3);
  const auto ctx = eng.create_context({"aes-ctr", r.random_bytes(16), 32});
  eng.map_region(0, 1u << 20, ctx);

  EXPECT_THROW((void)run_tamper_suite(eng, chip, 0x1001, 0x2000),
               std::invalid_argument)
      << "misaligned line";
  EXPECT_THROW((void)run_tamper_suite(eng, chip, 0x1000, 0x1000),
               std::invalid_argument)
      << "identical lines";
  EXPECT_THROW((void)run_tamper_suite(eng, chip, 0x1000, 2u << 20),
               std::invalid_argument)
      << "unmapped line has no context to attack";

  engine::auth_config acfg;
  acfg.mode = engine::auth_mode::mac;
  acfg.key = r.random_bytes(16);
  acfg.base = 0;
  acfg.limit = 64 * 1024;
  acfg.tag_base = 6u << 20;
  (void)eng.attach_auth(ctx, acfg);
  EXPECT_THROW((void)run_tamper_suite(eng, chip, 0x1000, 128 * 1024),
               std::invalid_argument)
      << "lines must fall inside the authenticated window";
}

} // namespace
} // namespace buscrypt::attack
