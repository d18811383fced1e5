// The granule map under the scalar datapaths (sim/granule.hpp): the cover
// of a request, the whole-granule predicate, the granule walk and the
// stack window.

#include "sim/granule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

namespace buscrypt::sim {
namespace {

struct cover_case {
  addr_t addr;
  std::size_t n;
  std::size_t g;
  granule_cover want;
};

// One byte, one granule and many granules, at aligned and unaligned heads
// and tails; an odd granule; and the empty request.
const cover_case cover_cases[] = {
    {0x100, 1, 32, {0x100, 32, 0}},                 // one byte, aligned
    {0x105, 1, 32, {0x100, 32, 5}},                 // one byte, unaligned
    {0x11F, 1, 32, {0x100, 32, 31}},                // the granule's last byte
    {0x100, 32, 32, {0x100, 32, 0}},                // one whole granule
    {0x110, 32, 32, {0x100, 64, 16}},               // a granule's worth over two
    {0x100, 96, 32, {0x100, 96, 0}},                // many whole granules
    {0x104, 92, 32, {0x100, 96, 4}},                // unaligned head, aligned tail
    {0x100, 100, 32, {0x100, 128, 0}},              // aligned head, unaligned tail
    {0x104, 96, 32, {0x100, 128, 4}},               // unaligned head and tail
    {0x1FF8, 0x810, 1024, {0x1C00, 0x1000, 0x3F8}}, // three GI segments
    {50, 10, 24, {48, 24, 2}},                      // a granule not a power of two
    {0x100, 0, 32, {0x100, 0, 0}},                  // empty and aligned: no cover
    {0x104, 0, 32, {0x100, 32, 4}},                 // empty, unaligned: one granule
};

TEST(Granule, CoverWidensToWholeGranules) {
  for (const cover_case& c : cover_cases) {
    const granule_cover got = cover_of(c.addr, c.n, c.g);
    SCOPED_TRACE(testing::Message() << std::hex << c.addr << " +" << c.n);
    EXPECT_EQ(got.base, c.want.base);
    EXPECT_EQ(got.len, c.want.len);
    EXPECT_EQ(got.head, c.want.head);
    EXPECT_EQ(got.base % c.g, 0u);
    EXPECT_EQ(got.len % c.g, 0u);
  }
  static_assert(cover_of(0x104, 96, 32).len == 128);
}

TEST(Granule, WholeGranulesMeansTheRequestIsItsOwnCover) {
  EXPECT_TRUE(whole_granules(0x100, 32, 32));
  EXPECT_TRUE(whole_granules(0x100, 96, 32));
  EXPECT_TRUE(whole_granules(0x100, 0, 32));
  EXPECT_FALSE(whole_granules(0x104, 32, 32));
  EXPECT_FALSE(whole_granules(0x100, 4, 32));
  EXPECT_FALSE(whole_granules(0x100, 100, 32));
  EXPECT_FALSE(whole_granules(0x104, 0, 32));
  EXPECT_TRUE(whole_granules(48, 24, 24));
  for (const cover_case& c : cover_cases) {
    const granule_cover cov = cover_of(c.addr, c.n, c.g);
    EXPECT_EQ(whole_granules(c.addr, c.n, c.g), cov.head == 0 && cov.len == c.n);
  }
}

using slice = std::tuple<addr_t, std::size_t, std::size_t, std::size_t>;

std::vector<slice> walk(addr_t addr, std::size_t n, std::size_t g) {
  std::vector<slice> out;
  walk_granules(addr, n, g,
                [&](addr_t base, std::size_t off, std::size_t len, std::size_t done) {
                  out.emplace_back(base, off, len, done);
                });
  return out;
}

TEST(Granule, WalkVisitsEachTouchedGranuleOnce) {
  // (base, offset, length, done) per granule.
  EXPECT_EQ(walk(0x100, 1, 32), (std::vector<slice>{{0x100, 0, 1, 0}}));
  EXPECT_EQ(walk(0x105, 1, 32), (std::vector<slice>{{0x100, 5, 1, 0}}));
  EXPECT_EQ(walk(0x100, 32, 32), (std::vector<slice>{{0x100, 0, 32, 0}}));
  EXPECT_EQ(walk(0x110, 32, 32),
            (std::vector<slice>{{0x100, 16, 16, 0}, {0x120, 0, 16, 16}}));
  EXPECT_EQ(walk(0x100, 96, 32), (std::vector<slice>{{0x100, 0, 32, 0},
                                                     {0x120, 0, 32, 32},
                                                     {0x140, 0, 32, 64}}));
  EXPECT_EQ(walk(0x104, 96, 32), (std::vector<slice>{{0x100, 4, 28, 0},
                                                     {0x120, 0, 32, 28},
                                                     {0x140, 0, 32, 60},
                                                     {0x160, 0, 4, 92}}));
  EXPECT_EQ(walk(0x100, 100, 32), (std::vector<slice>{{0x100, 0, 32, 0},
                                                      {0x120, 0, 32, 32},
                                                      {0x140, 0, 32, 64},
                                                      {0x160, 0, 4, 96}}));
  EXPECT_EQ(walk(50, 10, 24), (std::vector<slice>{{48, 2, 10, 0}}));
  EXPECT_TRUE(walk(0x104, 0, 32).empty());
  // Every case: the slices tile the request and stay inside its cover.
  for (const cover_case& c : cover_cases) {
    const granule_cover cov = cover_of(c.addr, c.n, c.g);
    std::size_t covered = 0;
    for (const auto& [base, off, len, done] : walk(c.addr, c.n, c.g)) {
      EXPECT_EQ(done, covered);
      EXPECT_EQ(base + off, c.addr + done);
      EXPECT_EQ(base % c.g, 0u);
      EXPECT_LE(off + len, c.g);
      EXPECT_GE(base, cov.base);
      EXPECT_LE(base + c.g, cov.base + cov.len);
      covered += len;
    }
    EXPECT_EQ(covered, c.n);
  }
}

bool inside(const stack_window& w, const u8* p) {
  const auto* lo = reinterpret_cast<const u8*>(&w);
  return p >= lo && p < lo + sizeof w;
}

/// Leave 0xAA across a full window's stack bytes.
[[gnu::noinline]] void dirty_stack() {
  stack_window w(stack_window::stack_bytes);
  std::ranges::fill(w.span(), u8{0xAA});
  asm volatile("" : : "r"(w.span().data()) : "memory");
}

/// Whether a fresh window of \p n bytes, in the frame dirty_stack left
/// behind, reads all zero.
[[gnu::noinline]] bool fresh_window_is_zero(std::size_t n) {
  stack_window w(n);
  return std::ranges::all_of(w.span(), [](u8 b) { return b == 0; });
}

TEST(Granule, StackWindowZeroFillsItsLength) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{32}, stack_window::stack_bytes,
                              stack_window::stack_bytes + 1}) {
    dirty_stack();
    EXPECT_TRUE(fresh_window_is_zero(n)) << n;
  }
  stack_window empty(0);
  EXPECT_TRUE(empty.span().empty());
}

TEST(Granule, StackWindowCopiesItsSource) {
  for (const std::size_t n : {std::size_t{4}, stack_window::stack_bytes + 1}) {
    bytes src(n);
    for (std::size_t i = 0; i < n; ++i) src[i] = static_cast<u8>(i * 7 + 1);
    stack_window w{std::span<const u8>(src)};
    EXPECT_TRUE(std::ranges::equal(w.span(), src)) << n;
  }
}

TEST(Granule, StackWindowUsesTheHeapOnlyPast4KiB) {
  static_assert(stack_window::stack_bytes == 4096);
  stack_window at_bound(4096);
  EXPECT_EQ(at_bound.span().size(), 4096u);
  EXPECT_TRUE(inside(at_bound, at_bound.span().data()));
  stack_window past(4097);
  EXPECT_EQ(past.span().size(), 4097u);
  EXPECT_FALSE(inside(past, past.span().data()));
}

} // namespace
} // namespace buscrypt::sim
