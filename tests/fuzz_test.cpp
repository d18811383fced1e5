// Differential fuzzing: every storage path in the library is compared,
// operation by operation, against a flat reference memory under thousands
// of random reads/writes. Any divergence in the functional data path —
// cipher, mode, RMW splitting, page buffering, cache coherence — fails.

#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/best_cipher.hpp"
#include "crypto/des.hpp"
#include "crypto/modes.hpp"
#include "edu/soc.hpp"
#include "sim/cache.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <memory>

namespace buscrypt {
namespace {

constexpr std::size_t k_arena = 64 * 1024;

/// One random operation against both the device under test and the model.
template <typename ReadFn, typename WriteFn>
void fuzz_ops(rng& r, std::size_t n_ops, bytes& model, ReadFn do_read, WriteFn do_write) {
  for (std::size_t op = 0; op < n_ops; ++op) {
    const std::size_t len = 1 + r.below(64);
    const addr_t addr = r.below(k_arena - len);
    if (r.chance(0.5)) {
      const bytes data = r.random_bytes(len);
      do_write(addr, data);
      for (std::size_t i = 0; i < len; ++i) model[addr + i] = data[i];
    } else {
      bytes got(len);
      do_read(addr, got);
      for (std::size_t i = 0; i < len; ++i)
        ASSERT_EQ(got[i], model[addr + i]) << "op " << op << " addr " << addr + i;
    }
  }
}

// --- every engine through the full SoC read_back/load path -----------------

class EngineFuzz : public ::testing::TestWithParam<edu::engine_kind> {};

TEST_P(EngineFuzz, RandomOpsMatchReferenceMemory) {
  edu::soc_config cfg;
  cfg.l1.size = 2 * 1024; // small cache: force evictions and refills
  cfg.l1.ways = 2;
  cfg.mem_size = 8u << 20;
  edu::secure_soc soc(GetParam(), cfg);

  rng r(static_cast<u64>(GetParam()) * 977 + 5);
  bytes model(k_arena, 0);
  soc.load_image(0, model);

  // Drive the CPU-visible port: the cache for bus-side engines, the EDU
  // itself for the Fig. 7b cache-side placement.
  sim::memory_port& port = GetParam() == edu::engine_kind::cacheside_otp
                               ? static_cast<sim::memory_port&>(soc.engine())
                               : static_cast<sim::memory_port&>(soc.l1());
  fuzz_ops(
      r, 1500, model,
      [&](addr_t a, std::span<u8> out) { (void)port.read(a, out); },
      [&](addr_t a, std::span<const u8> in) { (void)port.write(a, in); });

  // Final sweep: flush everything and audit the full arena.
  EXPECT_EQ(soc.read_back(0, k_arena), model);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EngineFuzz,
    ::testing::Values(edu::engine_kind::plaintext, edu::engine_kind::best_stp,
                      edu::engine_kind::dallas_byte, edu::engine_kind::dallas_des,
                      edu::engine_kind::block_ecb_aes, edu::engine_kind::block_cbc_aes,
                      edu::engine_kind::xom_aes, edu::engine_kind::aegis_cbc,
                      edu::engine_kind::gi_3des_cbc, edu::engine_kind::stream_otp,
                      edu::engine_kind::gilmont_3des, edu::engine_kind::secure_dma,
                      edu::engine_kind::cacheside_otp),
    [](const ::testing::TestParamInfo<edu::engine_kind>& info) {
      std::string n(edu::engine_name(info.param));
      for (char& c : n)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return n;
    });

// --- the cache alone against a scripted lower level ------------------------

TEST(CacheFuzz, AllGeometriesMatchReference) {
  for (unsigned ways : {1u, 2u, 8u}) {
    for (std::size_t line : {16u, 32u, 128u}) {
      for (bool write_back : {true, false}) {
        sim::dram d(1 << 20);
        sim::external_memory ext(d);
        sim::cache_config cfg;
        cfg.size = 4 * 1024;
        cfg.line_size = line;
        cfg.ways = ways;
        cfg.write_back = write_back;
        sim::cache c(cfg, ext);

        rng r(ways * 131 + line + (write_back ? 7 : 0));
        bytes model(k_arena, 0);
        fuzz_ops(
            r, 800, model,
            [&](addr_t a, std::span<u8> out) { (void)c.read(a, out); },
            [&](addr_t a, std::span<const u8> in) { (void)c.write(a, in); });
        (void)c.flush();
        bytes final_mem(k_arena);
        d.read_bytes(0, final_mem);
        EXPECT_EQ(final_mem, model)
            << "ways=" << ways << " line=" << line << " wb=" << write_back;
      }
    }
  }
}

// --- modes over every cipher: encrypt/decrypt identity under random sizes ---

class ModeCipherFuzz : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<crypto::block_cipher> make(rng& r) const {
    switch (GetParam()) {
      case 0: return std::make_unique<crypto::aes>(r.random_bytes(16));
      case 1: return std::make_unique<crypto::aes>(r.random_bytes(32));
      case 2: return std::make_unique<crypto::des>(r.random_bytes(8));
      case 3: return std::make_unique<crypto::triple_des>(r.random_bytes(24));
      default: return std::make_unique<crypto::best_cipher>(r.random_bytes(16));
    }
  }
};

TEST_P(ModeCipherFuzz, AllModesRoundTrip) {
  rng r(static_cast<u64>(GetParam()) + 41);
  const auto c = make(r);
  const std::size_t bs = c->block_size();

  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t blocks = 1 + r.below(16);
    const bytes pt = r.random_bytes(blocks * bs);
    const bytes iv = r.random_bytes(bs);
    bytes ct(pt.size()), back(pt.size());

    crypto::ecb_encrypt(*c, pt, ct);
    crypto::ecb_decrypt(*c, ct, back);
    ASSERT_EQ(back, pt) << c->name() << " ECB";

    crypto::cbc_encrypt(*c, iv, pt, ct);
    crypto::cbc_decrypt(*c, iv, ct, back);
    ASSERT_EQ(back, pt) << c->name() << " CBC";

    crypto::ctr_crypt(*c, 5, 9, pt, ct);
    crypto::ctr_crypt(*c, 5, 9, ct, back);
    ASSERT_EQ(back, pt) << c->name() << " CTR";
  }
}

TEST_P(ModeCipherFuzz, ModesProduceDistinctCiphertexts) {
  rng r(static_cast<u64>(GetParam()) + 97);
  const auto c = make(r);
  const std::size_t bs = c->block_size();
  const bytes pt = r.random_bytes(bs * 8);
  const bytes iv = r.random_bytes(bs);

  bytes ecb(pt.size()), cbc(pt.size()), ctr(pt.size());
  crypto::ecb_encrypt(*c, pt, ecb);
  crypto::cbc_encrypt(*c, iv, pt, cbc);
  crypto::ctr_crypt(*c, 5, 9, pt, ctr);
  EXPECT_NE(ecb, cbc);
  EXPECT_NE(cbc, ctr);
  EXPECT_NE(ecb, ctr);
}

INSTANTIATE_TEST_SUITE_P(AllCiphers, ModeCipherFuzz, ::testing::Values(0, 1, 2, 3, 4));

} // namespace
} // namespace buscrypt
