// Heap allocations on engine::memory_authenticator's scalar paths and on
// the batched transaction path. This executable replaces the global
// operator new to count every allocation, which is why it links apart from
// buscrypt_tests: a replaced allocator is process-wide. After one warm-up
// call, a verify, an update, and an AREA seal and unseal each make no
// allocation; a hash-tree install makes as many at 64 KiB as at 8 KiB, and
// one fewer at 4 KiB, where its cover fits the stack window; a warm
// engine's scalar unit write and read and its AREA reads make none, and a
// batched AREA read as many for sixteen units as for one; a batched issue of
// line txns makes as many for 4096 txns as for 64; the AES kernels and the
// CBC and CTR mode routines make none; and once warm, a scalar line read,
// line write or sub-line write allocates nothing on any engine but GI and
// Compress+OTP's code region.

#include "crypto/aes.hpp"
#include "crypto/des.hpp"
#include "crypto/modes.hpp"
#include "edu/aegis_edu.hpp"
#include "edu/block_edu.hpp"
#include "edu/integrity_edu.hpp"
#include "edu/plain_edu.hpp"
#include "edu/soc.hpp"
#include "edu/stream_edu.hpp"
#include "engine/bus_encryption_engine.hpp"
#include "engine/memory_authenticator.hpp"
#include "sim/bus.hpp"
#include "sim/dram.hpp"
#include "sim/workload.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

namespace {

std::atomic<unsigned long long> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_alloc(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

} // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) { return counted_alloc(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return counted_alloc(n, al); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace buscrypt::engine {
namespace {

/// Allocations \p f makes.
template <class F>
unsigned long long allocs_of(F&& f) {
  const unsigned long long before = g_allocs.load(std::memory_order_relaxed);
  f();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

auth_config window(auth_mode mode) {
  auth_config a;
  a.mode = mode;
  a.key = bytes(16, 0x5A);
  a.base = 0;
  a.limit = 64 * 1024;
  a.tag_base = 512 * 1024;
  if (mode == auth_mode::area) a.tag_bytes = 4;
  return a;
}

/// An authenticator over raw DRAM with 32-byte units, sealed at attach.
struct rig {
  sim::dram mem{1u << 20};
  sim::external_memory ext{mem};
  memory_authenticator auth;

  explicit rig(auth_mode mode) : auth(ext, window(mode), 32) { auth.seal_from_memory(); }
};

TEST(AllocFree, HashTreeVerifyAndUpdate) {
  rig r(auth_mode::hash_tree);
  const bytes ct(32, 0x11);
  (void)r.auth.update_unit(0x100, ct, true);
  (void)r.auth.verify_unit(0x100, ct, true);
  memory_authenticator::check_result a, b;
  const auto updates = allocs_of([&] {
    a = r.auth.update_unit(0x100, ct, true);
    b = r.auth.update_unit(0x8000, ct, true);
  });
  EXPECT_EQ(updates, 0u);
  EXPECT_TRUE(a.ok && b.ok);
  const auto verifies = allocs_of([&] {
    a = r.auth.verify_unit(0x100, ct, true);
    r.auth.drop_caches(); // the next walk climbs to the root
    b = r.auth.verify_unit(0x8000, ct, true);
  });
  EXPECT_EQ(verifies, 0u);
  EXPECT_TRUE(a.ok && b.ok);
}

TEST(AllocFree, MacVerifyOnHitAndMissAndRewrite) {
  rig r(auth_mode::mac);
  const bytes ct(32, 0x22);
  (void)r.auth.update_unit(0x100, ct, true);
  (void)r.auth.verify_unit(0x100, ct, true);
  memory_authenticator::check_result hit, miss;
  const auth_stats before = r.auth.stats();
  EXPECT_EQ(allocs_of([&] { hit = r.auth.verify_unit(0x100, ct, true); }), 0u);
  r.auth.drop_caches();
  EXPECT_EQ(allocs_of([&] { miss = r.auth.verify_unit(0x100, ct, true); }), 0u);
  EXPECT_TRUE(hit.ok && miss.ok);
  EXPECT_EQ(r.auth.stats().tag_hits, before.tag_hits + 1);
  EXPECT_EQ(r.auth.stats().tag_misses, before.tag_misses + 1);
  EXPECT_EQ(allocs_of([&] { (void)r.auth.update_unit(0x100, ct, true); }), 0u);
}

TEST(AllocFree, AreaSealAndUnsealOfASealedUnit) {
  rig r(auth_mode::area);
  const auto kc = backend_registry::builtin().at("aes-ecb").make_keyed(bytes(16, 0x42));
  const bytes plain(32, 0x33);
  bytes ct(32), back(32);
  (void)r.auth.area_encipher(*kc, 0x100, plain, ct, /*initial=*/true, false);
  (void)r.auth.area_encipher(*kc, 0x100, plain, ct, /*initial=*/false, true);
  (void)r.auth.area_decipher(*kc, 0x100, ct, back, true);
  memory_authenticator::check_result unseal;
  const auto n = allocs_of([&] {
    (void)r.auth.area_encipher(*kc, 0x100, plain, ct, /*initial=*/false, true);
    unseal = r.auth.area_decipher(*kc, 0x100, ct, back, true);
  });
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(unseal.ok);
  EXPECT_EQ(back, plain);
}

TEST(AllocFree, HashTreeInstallAllocationsDoNotGrowWithImageSize) {
  auto install_allocs = [](std::size_t len) {
    sim::dram mem{1u << 20};
    sim::external_memory ext{mem};
    keyslot_manager slots{backend_registry::builtin(), 4};
    bus_encryption_engine eng{ext, slots};
    const auto ctx = eng.create_context({"aes-ctr", bytes(16, 0x17), 32});
    eng.map_region(0, 256 * 1024, ctx);
    auth_config a = window(auth_mode::hash_tree);
    a.limit = 128 * 1024;
    (void)eng.attach_auth(ctx, a);
    const bytes image(len, 0x5C);
    return allocs_of([&] { eng.install(0, image); });
  };
  // A cover over the 4 KiB stack window takes one heap buffer, whatever
  // its size; one within it takes none.
  const unsigned long long window = install_allocs(4 * 1024);
  const unsigned long long small = install_allocs(8 * 1024);
  EXPECT_EQ(install_allocs(64 * 1024), small);
  EXPECT_EQ(window + 1, small);
  std::printf("hash-tree install: %llu allocations at 4 KiB, %llu at 8 KiB and at "
              "64 KiB\n",
              window, small);
}

TEST(AllocFree, BatchedIssueAllocationsDoNotGrowWithTxnCount) {
  // A txn is a value (one span, no heap member), so a batched issue
  // allocates only its lane buffer and its batch vector, however many
  // txns it carries.
  auto issue_allocs = [](std::size_t n) {
    sim::dram mem{1u << 20};
    sim::external_memory ext{mem};
    edu::plain_edu plain{ext};
    std::vector<sim::port_op> ops(n);
    for (std::size_t i = 0; i < n; ++i) ops[i] = {32 * i, i % 3 == 0};
    return allocs_of([&] { (void)sim::issue_batched(plain, ops, 32, 8); });
  };
  const unsigned long long small = issue_allocs(64);
  EXPECT_EQ(issue_allocs(4096), small);
  std::printf("issue_batched: %llu allocations for 64 and for 4096 line txns\n", small);
}

TEST(AllocFree, WarmScalarRequestsAllocatePerRequestNotPerUnit) {
  // A scalar request builds its cover in a stack window, CTR pads go
  // through another and the slot lease is a value; AREA opens and seals
  // its units in place. So a warm write, read or AREA read allocates
  // nothing, however many units it carries.
  sim::dram mem{1u << 20};
  sim::external_memory ext{mem};
  keyslot_manager slots{backend_registry::builtin(), 4};
  bus_encryption_engine eng{ext, slots};
  const auto ctr = eng.create_context({"aes-ctr", bytes(16, 0x31), 32});
  eng.map_region(0, 64 * 1024, ctr);
  const auto ecb = eng.create_context({"aes-ecb", bytes(16, 0x32), 32});
  eng.map_region(64 * 1024, 64 * 1024, ecb);
  auth_config a = window(auth_mode::area);
  a.base = 64 * 1024;
  a.limit = 128 * 1024;
  (void)eng.attach_auth(ecb, a);

  const bytes unit(32, 0x44);
  bytes one(32), four(128);
  constexpr addr_t area_at = 64 * 1024 + 0x100;
  (void)eng.write(0x100, unit); // warm: slots programmed, domain seen
  (void)eng.read(0x100, one);
  (void)eng.read(area_at, four);
  const auto write1 = allocs_of([&] { (void)eng.write(0x100, unit); });
  const auto read1 = allocs_of([&] { (void)eng.read(0x100, one); });
  EXPECT_EQ(write1, 0u);
  EXPECT_EQ(read1, 0u);
  EXPECT_EQ(one, unit);
  const auto area4 = allocs_of([&] { (void)eng.read(area_at, four); });
  const auto area1 = allocs_of([&] { (void)eng.read(area_at, one); });
  EXPECT_EQ(area4, 0u);
  EXPECT_EQ(area1, 0u);
  EXPECT_EQ(eng.stats().integrity_faults, 0u);
  std::printf("scalar aes-ctr unit: %llu allocations to write, %llu to read; "
              "AREA read: %llu for 4 units, %llu for 1\n",
              write1, read1, area4, area1);
}

TEST(AllocFree, BatchedAreaReadAllocationsDoNotGrowWithUnits) {
  // A batched AREA read stages each unit's version and sideband snapshot
  // in the engine's one flat buffer, not in a heap object per unit.
  sim::dram mem{1u << 20};
  sim::external_memory ext{mem};
  keyslot_manager slots{backend_registry::builtin(), 4};
  bus_encryption_engine eng{ext, slots};
  const auto ecb = eng.create_context({"aes-ecb", bytes(16, 0x32), 32});
  eng.map_region(0, 64 * 1024, ecb);
  (void)eng.attach_auth(ecb, window(auth_mode::area));
  bytes one(32), sixteen(16 * 32);
  auto batched_read = [&](bytes& buf) {
    sim::mem_txn txn = sim::mem_txn::read_of(0x400, buf);
    eng.submit(std::span<sim::mem_txn>(&txn, 1));
    (void)eng.drain();
  };
  batched_read(sixteen); // warm: slot programmed, domain seen, buffers sized
  batched_read(one);
  const auto area16 = allocs_of([&] { batched_read(sixteen); });
  const auto area1 = allocs_of([&] { batched_read(one); });
  EXPECT_EQ(area16, area1);
  EXPECT_EQ(eng.stats().integrity_faults, 0u);
  std::printf("batched AREA read: %llu allocations for 16 units, %llu for 1\n", area16,
              area1);
}

TEST(AllocFree, AesKernelsAndCtrRoutinesAreHeapFree) {
  // Key expansion fills the object's schedule arrays; the kernels and the
  // CTR routines work in the caller's buffers and one stack pad window.
  const bytes key(16, 0x2F);
  bytes buf(1024, 0x5A), out(1024);
  EXPECT_EQ(allocs_of([&] {
              const crypto::aes c{key};
              c.encrypt_blocks(buf, out);
              c.decrypt_blocks(out, buf);
            }),
            0u);
  auto expect_heap_free = [&](const crypto::block_cipher& c) {
    SCOPED_TRACE(c.name());
    EXPECT_EQ(allocs_of([&] { crypto::ctr_crypt(c, 0x11, 0x22, buf, out); }), 0u);
    EXPECT_EQ(allocs_of([&] { crypto::ctr_crypt(c, 0x11, 0x22, out, out); }), 0u);
    EXPECT_EQ(allocs_of([&] {
                crypto::ctr_crypt_units(c, 0x11, 0x22 << 16, 1 << 16, 32, buf, out);
              }),
              0u);
  };
  expect_heap_free(crypto::aes{key});
  expect_heap_free(crypto::triple_des{bytes(24, 0x3E)});
}

TEST(AllocFree, AddressPadApplyIsHeapFree) {
  // The counter/pad block lives on the stack and the pad is XORed in
  // place, so the pad-XOR EDUs (stream, compress, cache-side) pay no heap
  // traffic per pad.
  const crypto::aes prf{bytes(16, 0x2F)};
  const crypto::address_pad pad{prf, 0x57E4EA11ULL};
  std::array<u8, 32> buf{};
  EXPECT_EQ(allocs_of([&] { pad.apply(0x1007, buf); }), 0u);
}

TEST(AllocFree, CbcChainsAndTheirWrappersAreHeapFree) {
  // cbc_*_chains keep their decrypt window on the stack; cbc_* and
  // cbc_*_at are single calls into them.
  auto expect_heap_free = [](const crypto::block_cipher& c) {
    SCOPED_TRACE(c.name());
    const std::size_t bs = c.block_size();
    const bytes iv(bs, 0x10);
    const bytes ivs(32 * bs, 0x20);
    bytes buf(1024, 0x5A), out(1024);
    EXPECT_EQ(allocs_of([&] { crypto::cbc_encrypt(c, iv, buf, out); }), 0u);
    EXPECT_EQ(allocs_of([&] { crypto::cbc_decrypt(c, iv, out, buf); }), 0u);
    EXPECT_EQ(allocs_of([&] { crypto::cbc_encrypt_at(c, 0x400, 0, buf); }), 0u);
    EXPECT_EQ(allocs_of([&] { crypto::cbc_decrypt_at(c, 0x400, 0, buf); }), 0u);
    EXPECT_EQ(allocs_of([&] { crypto::cbc_encrypt_chains(c, ivs, buf, 32); }), 0u);
    EXPECT_EQ(allocs_of([&] { crypto::cbc_decrypt_chains(c, ivs, buf, 32); }), 0u);
  };
  expect_heap_free(crypto::aes{bytes(16, 0x2F)});
  expect_heap_free(crypto::triple_des{bytes(24, 0x3E)});
}

/// A Stream-OTP, an AES-CBCline and an AEGIS EDU over one DRAM, each with
/// its line written and read once, so every counted access is warm.
struct warm_line_edus {
  sim::dram mem{1u << 20};
  sim::external_memory ext{mem};
  const crypto::aes prf{bytes(16, 0x2F)};
  edu::stream_edu stream{ext, prf, {}};
  edu::block_edu cbc{ext, prf, {edu::block_mode::cbc_line, edu::aes_iterative(), 32}};
  edu::aegis_edu aegis{ext, prf, {}};
  const bytes line = bytes(32, 0x66);
  bytes out = bytes(32);

  std::array<edu::edu*, 3> edus{&stream, &cbc, &aegis};

  warm_line_edus() {
    for (std::size_t i = 0; i < edus.size(); ++i) {
      (void)edus[i]->write(line_at(i), line);
      (void)edus[i]->read(line_at(i), out);
    }
  }
  static addr_t line_at(std::size_t i) { return 0x1000 * (i + 1); }
};

TEST(AllocFree, WarmScalarLineReadsBuildPadsAndIvsOnTheStack) {
  // A Stream-OTP read XORs its pad in place and the CBC EDUs build their
  // IVs and run their chains on the stack; a line is its own cover, read
  // straight into the caller's buffer.
  warm_line_edus w;
  std::array<unsigned long long, 3> n{};
  for (std::size_t i = 0; i < 3; ++i) {
    edu::edu& e = *w.edus[i];
    n[i] = allocs_of([&] { (void)e.read(w.line_at(i), w.out); });
    EXPECT_EQ(w.out, w.line) << e.name();
  }
  EXPECT_EQ(n[0], 0u);
  EXPECT_EQ(n[1], 0u);
  EXPECT_EQ(n[2], 0u);
  std::printf("warm line read: %llu allocations for Stream-OTP, %llu for "
              "AES-CBCline, %llu for AEGIS\n",
              n[0], n[1], n[2]);
}

TEST(AllocFree, WarmScalarLineWritesAllocateAtMostOnce) {
  // The ciphertext copy of the const line is a stack window, and the CBC
  // EDUs' write chains run in place in it on the stack-built IV.
  warm_line_edus w;
  std::array<unsigned long long, 3> n{};
  for (std::size_t i = 0; i < 3; ++i) {
    edu::edu& e = *w.edus[i];
    n[i] = allocs_of([&] { (void)e.write(w.line_at(i), w.line); });
    (void)e.read(w.line_at(i), w.out);
    EXPECT_EQ(w.out, w.line) << e.name();
  }
  EXPECT_EQ(n[0], 0u);
  EXPECT_EQ(n[1], 0u);
  EXPECT_EQ(n[2], 0u);
  std::printf("warm line write: %llu allocations for Stream-OTP, %llu for "
              "AES-CBCline, %llu for AEGIS\n",
              n[0], n[1], n[2]);
}

TEST(AllocFree, WarmEngineCbcUnitAllocatesOnlyItsCover) {
  // The aes-cbc backend builds its ESSIV IVs on the stack and chains in
  // place, in a cover that is itself a stack window: a warm unit write or
  // read allocates nothing.
  sim::dram mem{1u << 20};
  sim::external_memory ext{mem};
  keyslot_manager slots{backend_registry::builtin(), 4};
  bus_encryption_engine eng{ext, slots};
  const auto cbc = eng.create_context({"aes-cbc", bytes(16, 0x33), 32});
  eng.map_region(0, 64 * 1024, cbc);
  const bytes unit(32, 0x45);
  bytes one(32);
  (void)eng.write(0x100, unit); // warm: slot programmed, domain seen
  (void)eng.read(0x100, one);
  const auto write1 = allocs_of([&] { (void)eng.write(0x100, unit); });
  const auto read1 = allocs_of([&] { (void)eng.read(0x100, one); });
  EXPECT_EQ(write1, 0u);
  EXPECT_EQ(read1, 0u);
  EXPECT_EQ(one, unit);
  std::printf("scalar aes-cbc unit: %llu allocations to write, %llu to read\n", write1,
              read1);
}

/// Allocations of a warm line read, line write and 4-byte write at \p at
/// through \p e, after one round of each.
std::array<unsigned long long, 3> warm_request_allocs(edu::edu& e, addr_t at) {
  const bytes line(32, 0x5C);
  const bytes word(4, 0xA7);
  bytes out(32);
  auto line_read = [&] { (void)e.read(at, out); };
  auto line_write = [&] { (void)e.write(at, line); };
  auto word_write = [&] { (void)e.write(at + 0x0B, word); };
  line_write();
  line_read();
  word_write();
  return {allocs_of(line_read), allocs_of(line_write), allocs_of(word_write)};
}

TEST(AllocFree, WarmScalarRequestsOfEveryEngineAreHeapFree) {
  // Covers, ciphertext copies, GI segments and Compress+OTP's compressed
  // chunks and inflated groups are stack windows, and GI's tags are inline
  // digests, so once a line's nonce, version, tag, page buffer, cache line
  // or keyslot is in place a scalar request allocates nothing.
  // Compress+OTP's code region is read-only: it takes a line read there
  // and its writes in its data region.
  constexpr addr_t data_base = 1u << 20;
  for (const edu::engine_kind kind : edu::all_engines()) {
    edu::secure_soc soc(kind, edu::soc_config{});
    soc.load_image(0, bytes(4096, 0)); // Compress+OTP's code region
    const bool data_only = kind == edu::engine_kind::compress_otp;
    const auto n = warm_request_allocs(soc.engine(), data_only ? data_base : 0x100);
    EXPECT_EQ(n, (std::array<unsigned long long, 3>{})) << soc.engine().name();
    if (!data_only) continue;
    bytes out(32);
    auto code_read = [&] { (void)soc.engine().read(0x100, out); };
    code_read();
    EXPECT_EQ(allocs_of(code_read), 0u) << soc.engine().name() << " code-region read";
  }
  sim::dram mem{8u << 20};
  sim::external_memory ext{mem};
  const crypto::aes prf{bytes(16, 0x3C)};
  edu::integrity_edu integrity{ext, prf, bytes(16, 0x6B), {}};
  const auto n = warm_request_allocs(integrity, 0x100);
  EXPECT_EQ(n, (std::array<unsigned long long, 3>{})) << integrity.name();
}

} // namespace
} // namespace buscrypt::engine
