// Workload generator properties and the trace-driven CPU model.

#include "sim/bus.hpp"
#include "sim/cache.hpp"
#include "sim/cpu.hpp"
#include "sim/workload.hpp"

#include <gtest/gtest.h>

namespace buscrypt::sim {
namespace {

TEST(Workload, SequentialCodeIsSequential) {
  const workload w = make_sequential_code(1000, 64 * 1024, 0, 1);
  ASSERT_EQ(w.accesses.size(), 1000u);
  for (std::size_t i = 1; i < 100; ++i) {
    EXPECT_EQ(w.accesses[i].addr, w.accesses[i - 1].addr + 4);
    EXPECT_EQ(w.accesses[i].kind, access_kind::fetch);
  }
}

TEST(Workload, JumpRateRespected) {
  const workload w = make_jumpy_code(50'000, 1 << 20, 0.2, 2);
  std::size_t jumps = 0;
  for (std::size_t i = 1; i < w.accesses.size(); ++i)
    if (w.accesses[i].addr != w.accesses[i - 1].addr + 4 &&
        w.accesses[i].addr != 0)
      ++jumps;
  EXPECT_NEAR(static_cast<double>(jumps) / 50'000.0, 0.2, 0.02);
}

TEST(Workload, JumpTargetsAligned) {
  const workload w = make_jumpy_code(5'000, 1 << 16, 0.5, 3);
  for (const auto& a : w.accesses) {
    EXPECT_EQ(a.addr % 4, 0u);
    EXPECT_LT(a.addr + 4, (1u << 16) + 4);
  }
}

TEST(Workload, DataRwMixesKinds) {
  const workload w = make_data_rw(20'000, 1 << 16, 0.4, 0.5, 4, 4);
  std::size_t fetches = 0, loads = 0, stores = 0;
  for (const auto& a : w.accesses) {
    switch (a.kind) {
      case access_kind::fetch: ++fetches; break;
      case access_kind::load: ++loads; break;
      case access_kind::store: ++stores; break;
    }
  }
  EXPECT_EQ(fetches, 20'000u);
  EXPECT_NEAR(static_cast<double>(loads + stores) / 20'000.0, 0.4, 0.03);
  EXPECT_NEAR(static_cast<double>(stores) / static_cast<double>(loads + stores), 0.5, 0.05);
}

TEST(Workload, StoreSizeHonored) {
  const workload w = make_data_rw(5'000, 1 << 16, 0.5, 1.0, 2, 5);
  for (const auto& a : w.accesses)
    if (a.kind == access_kind::store) {
      EXPECT_EQ(a.size, 2);
      EXPECT_EQ(a.addr % 2, 0u);
    }
}

TEST(Workload, GeneratorsValidateArguments) {
  EXPECT_THROW((void)make_sequential_code(10, 8, 0, 1), std::invalid_argument);
  EXPECT_THROW((void)make_jumpy_code(10, 1024, 1.5, 1), std::invalid_argument);
  EXPECT_THROW((void)make_data_rw(10, 1024, 0.5, 0.5, 3, 1), std::invalid_argument);
}

TEST(Workload, StandardSuiteShape) {
  const auto suite = standard_suite(42);
  ASSERT_EQ(suite.size(), 5u);
  for (const auto& w : suite) {
    EXPECT_FALSE(w.accesses.empty());
    EXPECT_GT(w.footprint, 0u);
  }
  // Deterministic across calls.
  const auto again = standard_suite(42);
  EXPECT_EQ(again[0].accesses.size(), suite[0].accesses.size());
  EXPECT_EQ(again[2].accesses[100].addr, suite[2].accesses[100].addr);
}

TEST(Cpu, PerfectCacheGivesUnitCpi) {
  dram d(1 << 22);
  external_memory ext(d);
  cache_config cfg;
  cfg.size = 64 * 1024;
  cfg.line_size = 32;
  cfg.ways = 4;
  cache l1(cfg, ext);
  cpu core(l1);

  // Tiny loop fully resident after first pass.
  const workload w = make_sequential_code(50'000, 1024, 0, 6);
  const run_stats rs = core.run(w);
  EXPECT_EQ(rs.instructions, 50'000u);
  EXPECT_LT(rs.cpi(), 1.05);
}

TEST(Cpu, MissesInflateCpi) {
  dram d(1 << 22);
  external_memory ext(d);
  cache_config cfg;
  cfg.size = 1024;
  cfg.line_size = 32;
  cfg.ways = 2;
  cache l1(cfg, ext);
  cpu core(l1);

  const workload w = make_jumpy_code(20'000, 1 << 20, 0.3, 7);
  const run_stats rs = core.run(w);
  EXPECT_GT(rs.cpi(), 2.0);
  EXPECT_GT(rs.stall_cycles, 0u);
}

TEST(Cpu, SlowdownVsBaseline) {
  run_stats a, b;
  a.total_cycles = 100;
  b.total_cycles = 125;
  EXPECT_DOUBLE_EQ(b.slowdown_vs(a), 1.25);
}

TEST(Cpu, StoresChangeMemory) {
  dram d(1 << 22);
  external_memory ext(d);
  cache_config cfg;
  cfg.size = 1024;
  cfg.line_size = 32;
  cfg.ways = 2;
  cache l1(cfg, ext);
  cpu core(l1);

  workload w;
  w.name = "one-store";
  w.accesses.push_back({0, 4, access_kind::fetch});
  w.accesses.push_back({1 << 20, 8, access_kind::store});
  (void)core.run(w);
  (void)l1.flush();
  bytes out(8);
  d.read_bytes(1 << 20, out);
  bool nonzero = false;
  for (u8 b : out)
    if (b) nonzero = true;
  EXPECT_TRUE(nonzero);
}

} // namespace
} // namespace buscrypt::sim
