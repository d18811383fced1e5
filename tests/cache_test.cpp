// Cache model: hit/miss accounting, LRU, write policies, data integrity.

#include "common/rng.hpp"
#include "sim/bus.hpp"
#include "sim/cache.hpp"

#include <gtest/gtest.h>

namespace buscrypt::sim {
namespace {

/// A scripted lower level that records traffic and serves bytes from a
/// flat image with fixed latency.
class scripted_memory final : public memory_port {
 public:
  explicit scripted_memory(std::size_t size, cycles latency = 50)
      : image_(size, 0), latency_(latency) {}

  cycles read(addr_t addr, std::span<u8> out) override {
    ++reads;
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = image_[addr + i];
    return latency_;
  }
  cycles write(addr_t addr, std::span<const u8> in) override {
    ++writes;
    for (std::size_t i = 0; i < in.size(); ++i) image_[addr + i] = in[i];
    return latency_;
  }

  bytes image_;
  u64 reads = 0;
  u64 writes = 0;

 private:
  cycles latency_;
};

cache_config small_cache() {
  cache_config cfg;
  cfg.size = 1024;
  cfg.line_size = 32;
  cfg.ways = 2;
  return cfg;
}

TEST(Cache, ColdMissThenHit) {
  scripted_memory mem(1 << 16);
  cache c(small_cache(), mem);
  bytes buf(4);

  const cycles first = c.read(0x100, buf);
  EXPECT_EQ(c.stats().misses, 1u);
  EXPECT_GT(first, 1u);

  const cycles second = c.read(0x104, buf); // same line
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(second, 1u);
  EXPECT_EQ(mem.reads, 1u); // one line fill only
}

TEST(Cache, ReadsReturnWrittenData) {
  scripted_memory mem(1 << 16);
  rng r(1);
  for (std::size_t i = 0; i < mem.image_.size(); ++i) mem.image_[i] = r.next_byte();

  cache c(small_cache(), mem);
  bytes buf(8);
  for (int i = 0; i < 200; ++i) {
    const addr_t a = r.below((1 << 16) - 8);
    (void)c.read(a, buf);
    for (int k = 0; k < 8; ++k)
      ASSERT_EQ(buf[static_cast<std::size_t>(k)],
                mem.image_[a + static_cast<std::size_t>(k)]);
  }
}

TEST(Cache, WriteBackDefersAndFlushes) {
  scripted_memory mem(1 << 16);
  cache c(small_cache(), mem);
  const bytes data = {1, 2, 3, 4};
  (void)c.write(0x200, data);
  EXPECT_EQ(mem.writes, 0u); // dirty in cache only
  EXPECT_EQ(mem.image_[0x200], 0);

  (void)c.flush();
  EXPECT_EQ(mem.writes, 1u);
  EXPECT_EQ(mem.image_[0x200], 1);
  EXPECT_EQ(mem.image_[0x203], 4);
}

TEST(Cache, DirtyEvictionWritesBack) {
  cache_config cfg = small_cache(); // 16 sets, 2 ways
  scripted_memory mem(1 << 20);
  cache c(cfg, mem);
  const bytes data = {0xAA};
  // Three lines mapping to the same set (stride = line * sets = 512).
  (void)c.write(0x0000, data);
  (void)c.write(0x0200, data);
  EXPECT_EQ(mem.writes, 0u);
  (void)c.write(0x0400, data); // evicts the LRU dirty line 0x0000
  EXPECT_EQ(mem.writes, 1u);
  EXPECT_EQ(c.stats().writebacks, 1u);
  EXPECT_EQ(mem.image_[0x0000], 0xAA);
}

TEST(Cache, LruPrefersRecentlyUsed) {
  cache_config cfg = small_cache();
  scripted_memory mem(1 << 20);
  cache c(cfg, mem);
  bytes buf(1);
  (void)c.read(0x0000, buf); // A
  (void)c.read(0x0200, buf); // B (same set)
  (void)c.read(0x0000, buf); // touch A again
  (void)c.read(0x0400, buf); // C evicts B, not A
  EXPECT_TRUE(c.contains(0x0000));
  EXPECT_FALSE(c.contains(0x0200));
  EXPECT_TRUE(c.contains(0x0400));
}

TEST(Cache, WriteThroughAlwaysWritesBelow) {
  cache_config cfg = small_cache();
  cfg.write_back = false;
  scripted_memory mem(1 << 16);
  cache c(cfg, mem);
  const bytes data = {9, 9};
  (void)c.write(0x300, data);
  (void)c.write(0x300, data);
  EXPECT_EQ(mem.writes, 2u);
  EXPECT_EQ(mem.image_[0x300], 9);
  EXPECT_EQ(c.stats().bypass_writes, 2u);
}

TEST(Cache, WriteThroughUpdatesResidentLine) {
  cache_config cfg = small_cache();
  cfg.write_back = false;
  scripted_memory mem(1 << 16);
  mem.image_[0x100] = 5;
  cache c(cfg, mem);
  bytes buf(1);
  (void)c.read(0x100, buf); // line now resident
  EXPECT_EQ(buf[0], 5);
  const bytes data = {7};
  (void)c.write(0x100, data);
  (void)c.read(0x100, buf); // must see the new value from the cache
  EXPECT_EQ(buf[0], 7);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, AccessStraddlingLines) {
  scripted_memory mem(1 << 16);
  rng r(2);
  for (std::size_t i = 0; i < mem.image_.size(); ++i) mem.image_[i] = r.next_byte();
  cache c(small_cache(), mem);
  bytes buf(8);
  (void)c.read(32 - 4, buf); // 4 bytes in line 0, 4 in line 1
  for (int k = 0; k < 8; ++k)
    EXPECT_EQ(buf[static_cast<std::size_t>(k)],
              mem.image_[28 + static_cast<std::size_t>(k)]);
  EXPECT_EQ(c.stats().accesses, 2u);
  EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, MissRateDropsWithFootprintFit) {
  scripted_memory mem(1 << 20);
  cache c(small_cache(), mem); // 1 KiB cache
  rng r(3);
  bytes buf(4);

  // Working set fits: after warmup everything hits.
  for (int i = 0; i < 2000; ++i) (void)c.read(r.below(1024 - 4), buf);
  const double fit_rate = c.stats().miss_rate();
  EXPECT_LT(fit_rate, 0.05);

  c.reset_stats();
  for (int i = 0; i < 2000; ++i) (void)c.read(r.below((1 << 18) - 4), buf);
  EXPECT_GT(c.stats().miss_rate(), 0.5);
}

TEST(Cache, RejectsBadGeometry) {
  scripted_memory mem(1024);
  cache_config cfg = small_cache();
  cfg.line_size = 24; // not a power of two
  EXPECT_THROW(cache(cfg, mem), std::invalid_argument);
  cfg = small_cache();
  cfg.ways = 0;
  EXPECT_THROW(cache(cfg, mem), std::invalid_argument);
  cfg = small_cache();
  cfg.size = 1000; // not a multiple
  EXPECT_THROW(cache(cfg, mem), std::invalid_argument);
}

TEST(Cache, StallCyclesTrackMissCost) {
  scripted_memory mem(1 << 16, 80);
  cache c(small_cache(), mem);
  bytes buf(4);
  (void)c.read(0, buf);
  EXPECT_EQ(c.stats().stall_cycles, 80u);
  (void)c.read(4, buf);
  EXPECT_EQ(c.stats().stall_cycles, 80u); // hit adds nothing
}

} // namespace
} // namespace buscrypt::sim
