// Keyslot-based bus-encryption engine: slot lifecycle, backend round-trips
// and known answers, address-derived IV uniqueness, RMW writes, fallback,
// and the Fig. 1 session-key -> keyslot integration.

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/best_cipher.hpp"
#include "crypto/des.hpp"
#include "crypto/modes.hpp"
#include "edu/engine_edu.hpp"
#include "edu/soc.hpp"
#include "engine/bus_encryption_engine.hpp"
#include "keymgmt/session.hpp"
#include "sim/bus.hpp"
#include "sim/dram.hpp"

#include <gtest/gtest.h>

#include <string>

namespace buscrypt::engine {
namespace {

bytes key_for(const cipher_backend& b, rng& r) {
  // Smallest accepted key length <= 32 bytes.
  for (std::size_t len = 1; len <= 32; ++len)
    if (b.key_len_ok(len)) return r.random_bytes(len);
  ADD_FAILURE() << b.name() << ": no usable key length";
  return {};
}

keyslot_key make_key(std::string backend, u8 fill, std::size_t du = 32) {
  const backend_registry& reg = backend_registry::builtin();
  const cipher_backend& b = reg.at(backend);
  for (std::size_t len = 1; len <= 32; ++len)
    if (b.key_len_ok(len)) return {std::move(backend), bytes(len, fill), du};
  return {std::move(backend), bytes(16, fill), du};
}

// --- registry ---------------------------------------------------------------

TEST(BackendRegistry, BuiltinCoversTheCryptoLayer) {
  const backend_registry& reg = backend_registry::builtin();
  for (const char* name : {"aes-ecb", "aes-cbc", "aes-ctr", "des-cbc", "3des-cbc",
                           "3des-ctr", "best-ecb", "rc4-stream", "lfsr-stream",
                           "trivium-stream"}) {
    EXPECT_NE(reg.find(name), nullptr) << name;
  }
  EXPECT_EQ(reg.find("rot13"), nullptr);
  EXPECT_THROW((void)reg.at("rot13"), std::out_of_range);
}

TEST(BackendRegistry, KeyLengthIsEnforced) {
  const cipher_backend& aes = backend_registry::builtin().at("aes-ctr");
  EXPECT_TRUE(aes.key_len_ok(16));
  EXPECT_FALSE(aes.key_len_ok(7));
  EXPECT_THROW((void)aes.make_keyed(bytes(7, 1)), std::invalid_argument);
}

// Round trip + determinism for every registered backend.
class EveryBackend : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryBackend, UnitRoundTripAndDeterminism) {
  rng r(7);
  const cipher_backend& b = backend_registry::builtin().at(GetParam());
  const auto kc = b.make_keyed(key_for(b, r));

  // A unit length every granule divides (lcm of 1/8/16 = 16, use 64).
  const bytes pt = r.random_bytes(64);
  bytes ct(64), ct2(64), back(64);
  kc->encrypt_unit(5, pt, ct);
  kc->encrypt_unit(5, pt, ct2);
  EXPECT_EQ(ct, ct2) << "write-back re-encryption must reproduce ciphertext";
  kc->decrypt_unit(5, ct, back);
  EXPECT_EQ(back, pt);
  EXPECT_NE(ct, pt);
}

TEST_P(EveryBackend, AddressDerivedIvMakesUnitsDiffer) {
  rng r(8);
  const cipher_backend& b = backend_registry::builtin().at(GetParam());
  const auto kc = b.make_keyed(key_for(b, r));

  const bytes pt = r.random_bytes(64);
  bytes c0(64), c1(64);
  kc->encrypt_unit(0, pt, c0);
  kc->encrypt_unit(1, pt, c1);
  if (GetParam() == "aes-ecb" || GetParam() == "best-ecb") {
    // ECB ignores the DUN — the Section 2.2 weakness, kept on purpose.
    EXPECT_EQ(c0, c1);
  } else {
    EXPECT_NE(c0, c1) << "same plaintext at two addresses must not collide";
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, EveryBackend,
                         ::testing::Values("aes-ecb", "aes-cbc", "aes-ctr", "des-cbc",
                                           "3des-cbc", "3des-ctr", "best-ecb",
                                           "rc4-stream", "lfsr-stream", "trivium-stream"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string n = info.param;
                           for (char& c : n) if (c == '-') c = '_';
                           return n;
                         });

// --- known answers: the block backends' DRAM format -------------------------

/// One unit as the backend's mode lays it out, built block by block from
/// the bare core: ECB blocks; CBC under the ESSIV IV E_K(le64(DUN)); CTR
/// XORing the pads E_K(counter_block(nonce, (DUN << 16) + i)).
bytes known_unit(const crypto::block_cipher& c, unit_mode mode, u64 dun,
                 std::span<const u8> pt) {
  constexpr u64 ctr_nonce = 0x42E5'C0DE'0D1E'5EEDULL;
  const std::size_t bs = c.block_size();
  bytes out(pt.begin(), pt.end());
  bytes chain(bs, 0);
  store_le64(chain.data(), dun);
  c.encrypt_block(chain, chain);
  for (std::size_t off = 0, i = 0; off < out.size(); off += bs, ++i) {
    const std::span<u8> block = std::span<u8>(out).subspan(off, bs);
    bytes pad(bs);
    switch (mode) {
      case unit_mode::ecb:
        c.encrypt_block(block, block);
        break;
      case unit_mode::cbc:
        for (std::size_t j = 0; j < bs; ++j) block[j] ^= chain[j];
        c.encrypt_block(block, block);
        chain.assign(block.begin(), block.end());
        break;
      case unit_mode::ctr:
        crypto::counter_block(pad, ctr_nonce, (dun << 16) + i);
        c.encrypt_block(pad, pad);
        for (std::size_t j = 0; j < bs; ++j) block[j] ^= pad[j];
        break;
    }
  }
  return out;
}

void expect_known_answers(const char* backend, unit_mode mode,
                          const crypto::block_cipher& core, std::span<const u8> key) {
  SCOPED_TRACE(backend);
  const auto kc = backend_registry::builtin().at(backend).make_keyed(key);
  rng r(44);
  constexpr std::size_t unit = 32;
  for (const u64 dun : {u64{0}, u64{1}, u64{77}, u64{1} << 20}) {
    const bytes pt = r.random_bytes(4 * unit);
    bytes want;
    for (u64 u = 0; u < 4; ++u) {
      const bytes one =
          known_unit(core, mode, dun + u, std::span(pt).subspan(u * unit, unit));
      want.insert(want.end(), one.begin(), one.end());
    }
    bytes got(unit);
    kc->encrypt_unit(dun, std::span(pt).first(unit), got);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin())) << "unit at " << dun;
    got.resize(pt.size());
    kc->encrypt_units(dun, unit, pt, got);
    EXPECT_EQ(got, want) << "4-unit run at " << dun;
    kc->decrypt_units(dun, unit, got, got);
    EXPECT_EQ(got, pt);
  }
}

TEST(BackendKnownAnswer, AesBackends) {
  const bytes key(16, 0xA5);
  const crypto::aes core(key);
  expect_known_answers("aes-ecb", unit_mode::ecb, core, key);
  expect_known_answers("aes-cbc", unit_mode::cbc, core, key);
  expect_known_answers("aes-ctr", unit_mode::ctr, core, key);
}

TEST(BackendKnownAnswer, DesAndTripleDesBackends) {
  const bytes key8(8, 0x3C);
  expect_known_answers("des-cbc", unit_mode::cbc, crypto::des(key8), key8);
  const bytes key24 = rng(45).random_bytes(24);
  const crypto::triple_des core(key24);
  expect_known_answers("3des-cbc", unit_mode::cbc, core, key24);
  expect_known_answers("3des-ctr", unit_mode::ctr, core, key24);
}

TEST(BackendKnownAnswer, BestEcbBackend) {
  const bytes key(16, 0x69);
  expect_known_answers("best-ecb", unit_mode::ecb, crypto::best_cipher(key), key);
}

// --- keyslot manager --------------------------------------------------------

TEST(KeyslotManager, ProgramHitEvictReuse) {
  keyslot_manager mgr(backend_registry::builtin(), 2);
  const keyslot_key ka = make_key("aes-ctr", 0xA1);
  const keyslot_key kb = make_key("aes-ctr", 0xB2);
  const keyslot_key kc = make_key("3des-cbc", 0xC3);

  const int sa = mgr.acquire(ka);
  ASSERT_NE(sa, keyslot_manager::no_slot);
  EXPECT_EQ(mgr.stats().programs, 1u);
  mgr.release(sa);

  // Warm reuse: same key hits the same slot, no reprogram.
  const int sa2 = mgr.acquire(ka);
  EXPECT_EQ(sa2, sa);
  EXPECT_EQ(mgr.stats().hits, 1u);
  EXPECT_EQ(mgr.stats().programs, 1u);
  mgr.release(sa2);

  // Fill the pool, then a third key LRU-evicts the oldest idle slot (ka).
  const int sb = mgr.acquire(kb);
  mgr.release(sb);
  const int sc = mgr.acquire(kc);
  EXPECT_EQ(sc, sa) << "LRU victim should be the least-recently-used slot";
  EXPECT_EQ(mgr.stats().evictions, 1u);
  EXPECT_EQ(mgr.stats().programs, 3u);
  mgr.release(sc);

  // ka was evicted: acquiring it again reprograms.
  const int sa3 = mgr.acquire(ka);
  EXPECT_EQ(mgr.stats().programs, 4u);
  mgr.release(sa3);
}

TEST(KeyslotManager, PinnedSlotsAreNotVictims) {
  keyslot_manager mgr(backend_registry::builtin(), 2);
  const keyslot_key ka = make_key("aes-ctr", 1);
  const keyslot_key kb = make_key("aes-ctr", 2);
  const keyslot_key kc = make_key("aes-ctr", 3);

  const int sa = mgr.acquire(ka); // pinned
  const int sb = mgr.acquire(kb);
  mgr.release(sb);                // idle

  const int sc = mgr.acquire(kc);
  EXPECT_EQ(sc, sb) << "only the idle slot may be evicted";
  EXPECT_EQ(mgr.slots_in_use(), 2u);

  // Everything pinned now: denial.
  EXPECT_EQ(mgr.acquire(kb), keyslot_manager::no_slot);
  EXPECT_EQ(mgr.stats().denials, 1u);
  mgr.release(sa);
  mgr.release(sc);
}

TEST(KeyslotManager, ExplicitEvictRespectsRefcounts) {
  keyslot_manager mgr(backend_registry::builtin(), 2);
  const keyslot_key ka = make_key("aes-ctr", 9);
  const int sa = mgr.acquire(ka);
  EXPECT_FALSE(mgr.evict(ka)) << "in-use keys must not be evictable";
  mgr.release(sa);
  EXPECT_TRUE(mgr.evict(ka));
  EXPECT_FALSE(mgr.evict(ka)) << "already gone";
  EXPECT_EQ(mgr.key_of(sa), nullptr);
}

TEST(KeyslotManager, RejectsBadConfigs) {
  EXPECT_THROW(keyslot_manager(backend_registry::builtin(), 0), std::invalid_argument);
  keyslot_manager mgr(backend_registry::builtin(), 1);
  EXPECT_THROW((void)mgr.acquire({"rot13", bytes(16, 0), 32}), std::out_of_range);
  EXPECT_THROW((void)mgr.acquire({"aes-ctr", bytes(3, 0), 32}), std::invalid_argument);
}

// --- engine datapath --------------------------------------------------------

struct engine_rig {
  sim::dram dram{1 << 20};
  sim::external_memory ext{dram};
  keyslot_manager slots{backend_registry::builtin(), 4};
  bus_encryption_engine eng{ext, slots};
};

TEST(BusEncryptionEngine, RoundTripThroughDram) {
  engine_rig rig;
  const auto ctx = rig.eng.create_context(make_key("aes-ctr", 0x11));
  rig.eng.map_region(0, 1 << 20, ctx);

  rng r(3);
  const bytes data = r.random_bytes(4096);
  (void)rig.eng.write(512, data);

  bytes back(4096);
  (void)rig.eng.read(512, back);
  EXPECT_EQ(back, data);

  // DRAM holds ciphertext, not plaintext.
  bytes raw(4096);
  (void)rig.ext.read(512, raw);
  EXPECT_NE(raw, data);
}

TEST(BusEncryptionEngine, PartialWritesReadModifyWrite) {
  engine_rig rig;
  const auto ctx = rig.eng.create_context(make_key("aes-cbc", 0x22, 32));
  rig.eng.map_region(0, 1 << 16, ctx);

  rng r(4);
  const bytes base = r.random_bytes(128);
  rig.eng.install(0, base);

  // 7-byte write straddling nothing: single-unit RMW.
  const bytes patch{1, 2, 3, 4, 5, 6, 7};
  (void)rig.eng.write(40, patch);
  EXPECT_EQ(rig.eng.stats().rmw_ops, 1u);

  // Straddle two units: head and tail RMW.
  (void)rig.eng.write(60, patch);
  EXPECT_EQ(rig.eng.stats().rmw_ops, 3u);

  bytes expect = base;
  for (std::size_t i = 0; i < 7; ++i) expect[40 + i] = patch[i];
  for (std::size_t i = 0; i < 7; ++i) expect[60 + i] = patch[i];
  bytes back(128);
  rig.eng.read_plain(0, back);
  EXPECT_EQ(back, expect);
}

TEST(BusEncryptionEngine, RegionsIsolateContextsAndPassthrough) {
  engine_rig rig;
  const auto aes = rig.eng.create_context(make_key("aes-ctr", 0x31));
  const auto tdes = rig.eng.create_context(make_key("3des-cbc", 0x32));
  rig.eng.map_region(0, 4096, aes);
  rig.eng.map_region(4096, 4096, tdes);
  // [8192, ...) stays unmapped: plaintext passthrough.

  rng r(5);
  const bytes img = r.random_bytes(12288);
  rig.eng.install(0, img);

  bytes back(12288);
  rig.eng.read_plain(0, back);
  EXPECT_EQ(back, img);

  bytes raw(12288);
  (void)rig.ext.read(0, raw);
  // Both protected regions differ from plaintext; the unmapped tail matches.
  EXPECT_NE(bytes(raw.begin(), raw.begin() + 4096),
            bytes(img.begin(), img.begin() + 4096));
  EXPECT_NE(bytes(raw.begin() + 4096, raw.begin() + 8192),
            bytes(img.begin() + 4096, img.begin() + 8192));
  EXPECT_EQ(bytes(raw.begin() + 8192, raw.end()), bytes(img.begin() + 8192, img.end()));

  // A timed access to the unmapped tail takes the passthrough path.
  bytes tail(64);
  (void)rig.eng.read(8192, tail);
  EXPECT_EQ(tail, bytes(img.begin() + 8192, img.begin() + 8256));
  EXPECT_GT(rig.eng.stats().passthrough, 0u);
}

TEST(BusEncryptionEngine, FallbackWhenPoolPinned) {
  sim::dram dram(1 << 16);
  sim::external_memory ext(dram);
  keyslot_manager slots(backend_registry::builtin(), 1);
  bus_encryption_engine eng(ext, slots);

  const auto ctx = eng.create_context(make_key("aes-ctr", 0x41));
  eng.map_region(0, 1 << 16, ctx);

  // Pin the only slot with an unrelated key, as a concurrent user would.
  const keyslot_key other = make_key("aes-ctr", 0x42);
  const int pinned = slots.acquire(other);
  ASSERT_NE(pinned, keyslot_manager::no_slot);

  const bytes data(64, 0x5A);
  (void)eng.write(0, data);
  EXPECT_GT(eng.stats().fallbacks, 0u);
  EXPECT_GT(slots.stats().denials, 0u);

  // Functional despite the fallback — and consistent with the slot path.
  slots.release(pinned);
  bytes back(64);
  (void)eng.read(0, back);
  EXPECT_EQ(back, data);
  EXPECT_EQ(eng.stats().fallbacks, 1u) << "released pool should serve from a slot again";
}

TEST(BusEncryptionEngine, ContextValidation) {
  engine_rig rig;
  EXPECT_THROW((void)rig.eng.create_context({"rot13", bytes(16, 0), 32}),
               std::out_of_range);
  EXPECT_THROW((void)rig.eng.create_context({"aes-ctr", bytes(5, 0), 32}),
               std::invalid_argument);
  // data unit must be a multiple of the cipher granule (8 for DES-CBC).
  EXPECT_THROW((void)rig.eng.create_context({"des-cbc", bytes(8, 0), 12}),
               std::invalid_argument);
  // CTR units above the per-DUN counter space would reuse keystream.
  EXPECT_THROW((void)rig.eng.create_context({"aes-ctr", bytes(16, 0), 2u << 20}),
               std::invalid_argument);
  // The largest safe CTR unit is accepted.
  EXPECT_NO_THROW((void)rig.eng.create_context({"aes-ctr", bytes(16, 0), 1u << 20}));
  EXPECT_THROW(rig.eng.map_region(0, 64, 99), std::out_of_range);

  const auto ctx = rig.eng.create_context(make_key("aes-ctr", 1));
  rig.eng.destroy_context(ctx);
  EXPECT_THROW(rig.eng.map_region(0, 64, ctx), std::out_of_range);
  EXPECT_THROW(rig.eng.destroy_context(ctx), std::out_of_range);
}

TEST(BusEncryptionEngine, SpanAtMatchesContextAt) {
  engine_rig rig;
  const auto a = rig.eng.create_context(make_key("aes-ctr", 1));
  const auto b = rig.eng.create_context(make_key("aes-ctr", 2));
  rig.eng.map_region(0, 256, a);
  rig.eng.map_region(64, 64, b);   // newer mapping carves out [64,128)
  rig.eng.map_region(512, 64, a);  // detached region further out

  // span_at must agree with byte-wise context_at at every position.
  for (addr_t addr = 0; addr < 640; ++addr) {
    const auto [ctx, n] = rig.eng.span_at(addr, 640 - addr);
    ASSERT_GE(n, 1u);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(rig.eng.context_at(addr + i), ctx) << "addr=" << addr << " i=" << i;
    if (addr + n < 640) {
      EXPECT_NE(rig.eng.context_at(addr + n), ctx) << "span ended early at " << addr;
    }
  }
}

TEST(BusEncryptionEngine, WarmSlotsAvoidReprogramming) {
  engine_rig rig;
  const auto ctx = rig.eng.create_context(make_key("aes-ctr", 0x61));
  rig.eng.map_region(0, 1 << 16, ctx);

  bytes line(32, 0xEE);
  (void)rig.eng.write(0, line);
  (void)rig.eng.write(32, line);
  (void)rig.eng.write(64, line);
  EXPECT_EQ(rig.slots.stats().programs, 1u);
  EXPECT_EQ(rig.slots.stats().hits, 2u);
}

// --- edu adapter + keymgmt integration --------------------------------------

TEST(EngineEdu, ActsAsInlineStageOnTheBus) {
  sim::dram dram(1 << 20);
  sim::external_memory ext(dram);
  edu::engine_edu_config cfg;
  cfg.backend = "trivium-stream";
  cfg.data_unit_size = 32;
  rng r(11);
  const bytes key = r.random_bytes(10);
  edu::engine_edu e(ext, key, cfg);
  EXPECT_EQ(e.name(), "Keyslot-trivium-stream");

  const bytes img = r.random_bytes(2048);
  e.install_image(0, img);
  bytes back(2048);
  e.read_image(0, back);
  EXPECT_EQ(back, img);

  bytes raw(2048);
  (void)ext.read(0, raw);
  EXPECT_NE(raw, img);

  bytes line(32);
  const cycles t = e.read(0, line);
  EXPECT_GT(t, 0u);
  EXPECT_GT(e.stats().cipher_blocks, 0u);
}

TEST(EngineEdu, SocEngineNameMatchesEduName) {
  edu::soc_config cfg;
  cfg.mem_size = 1u << 20;
  edu::secure_soc soc(edu::engine_kind::inline_keyslot, cfg);
  EXPECT_EQ(soc.engine().name(), edu::engine_name(edu::engine_kind::inline_keyslot));
}

TEST(SessionToKeyslot, Fig1SessionKeyProgramsTheEngine) {
  using namespace buscrypt::keymgmt;
  rng r(42);
  chip_manufacturer fab(r, 512);
  insecure_channel net;

  rng imgr(43);
  const bytes image = imgr.random_bytes(4096);
  software_editor editor(image);
  const software_package pkg = editor.deliver(fab.publish_public_key(net), net, r);

  sim::dram dram(1 << 20);
  sim::external_memory ext(dram);
  keyslot_manager slots(backend_registry::builtin(), 4);
  bus_encryption_engine eng(ext, slots);

  secure_processor proc(fab.provision_private_key());
  const auto ctx = proc.install_software(pkg, eng, 0x1000);

  // Installed image decrypts correctly and sits ciphered in DRAM.
  bytes back(image.size());
  eng.read_plain(0x1000, back);
  EXPECT_EQ(back, image);
  bytes raw(image.size());
  (void)ext.read(0x1000, raw);
  EXPECT_NE(raw, image);

  // The session key never crossed the channel in clear, and the engine's
  // context is keyed with exactly the recovered K.
  EXPECT_FALSE(channel_leaks(net, proc.last_session_key()));
  EXPECT_EQ(eng.context_key(ctx).key, proc.last_session_key());

  // Teardown evicts K from the pool.
  secure_processor::evict_session(eng, ctx);
  EXPECT_THROW((void)eng.context_key(ctx), std::out_of_range);
}

} // namespace
} // namespace buscrypt::engine
