// Worker-pool stress tests: tens of thousands of tiny ParallelFor
// regions, thread-count reconfiguration between regions, and nested
// ParallelFor, all asserting bit-identical results vs. the sequential
// loop. These are the dynamic backstop for the static thread-safety
// annotations — CI also runs this binary under ThreadSanitizer, where the
// rapid region handoffs give the race detector real interleavings to
// chew on.

#include "parjoin/common/parallel_for.h"

#include <atomic>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace parjoin {
namespace {

// A few iterations of a 64-bit LCG: enough work per index that regions
// overlap worker wakeups, cheap enough that 20k regions stay fast.
// Unsigned on purpose: the multiply wraps, and signed wraparound is UB
// that -O3 exploits into different results per inlining context.
std::int64_t Work(std::int64_t i) {
  std::uint64_t acc = static_cast<std::uint64_t>(i);
  for (int k = 0; k < 8; ++k) acc = acc * 6364136223846793005ULL + 1;
  return static_cast<std::int64_t>(acc);
}

class PoolStressTest : public ::testing::Test {
 protected:
  void TearDown() override { SetParallelForThreads(0); }
};

TEST_F(PoolStressTest, TensOfThousandsOfTinyRegions) {
  SetParallelForThreads(3);
  constexpr int kRegions = 20000;
  constexpr int kWidth = 4;
  std::vector<std::int64_t> out(kWidth);
  std::int64_t checksum = 0;
  for (int r = 0; r < kRegions; ++r) {
    ParallelFor(kWidth, [&](int i) {
      out[static_cast<size_t>(i)] = Work(r + i);
    });
    for (int i = 0; i < kWidth; ++i) checksum ^= out[static_cast<size_t>(i)];
  }

  SetParallelForThreads(1);
  std::int64_t expected = 0;
  for (int r = 0; r < kRegions; ++r) {
    for (int i = 0; i < kWidth; ++i) expected ^= Work(r + i);
  }
  EXPECT_EQ(checksum, expected);
}

TEST_F(PoolStressTest, ReconfigurationBetweenRegionsIsBitIdentical) {
  // Cycle the worker count between regions; the pool must grow on demand
  // and leave non-participating workers parked, with outputs identical to
  // the sequential loop at every setting.
  constexpr int kRegions = 5000;
  constexpr int kWidth = 9;
  std::vector<std::int64_t> out(kWidth), expected(kWidth);
  for (int r = 0; r < kRegions; ++r) {
    SetParallelForThreads(1 + r % 5);
    ParallelFor(kWidth, [&](int i) {
      out[static_cast<size_t>(i)] = Work(r * kWidth + i);
    });
    for (int i = 0; i < kWidth; ++i) {
      expected[static_cast<size_t>(i)] = Work(r * kWidth + i);
    }
    ASSERT_EQ(out, expected) << "region " << r;
  }
}

TEST_F(PoolStressTest, NestedParallelForMatchesSequential) {
  // Inner regions issued from pool workers run sequentially on that
  // worker (documented contract); results must match the doubly
  // sequential loop exactly.
  SetParallelForThreads(4);
  constexpr int kOuter = 64;
  constexpr int kInner = 128;
  std::vector<std::int64_t> flat(kOuter * kInner);
  for (int rep = 0; rep < 50; ++rep) {
    ParallelFor(kOuter, [&](int o) {
      ParallelFor(kInner, [&](int i) {
        flat[static_cast<size_t>(o * kInner + i)] = Work(rep + o * kInner + i);
      });
    });
  }
  for (int o = 0; o < kOuter; ++o) {
    for (int i = 0; i < kInner; ++i) {
      EXPECT_EQ(flat[static_cast<size_t>(o * kInner + i)],
                Work(49 + o * kInner + i));
    }
  }
}

TEST_F(PoolStressTest, ManyRegionsInterleavedWithNestingAndWidthOne) {
  // Mix degenerate widths, nesting, and reconfiguration — the pattern the
  // simulator's per-round primitives actually produce.
  // The sums wrap, so they are unsigned (signed overflow is UB).
  auto work = [](int i) { return static_cast<std::uint64_t>(Work(i)); };
  std::atomic<std::uint64_t> sum{0};
  std::uint64_t expected = 0;
  for (int r = 0; r < 2000; ++r) {
    SetParallelForThreads(1 + r % 4);
    const int width = 1 + r % 7;
    ParallelFor(width, [&](int i) {
      std::uint64_t local = 0;
      ParallelFor(3, [&](int j) { local += work(i + j); });
      sum.fetch_add(local, std::memory_order_relaxed);
    });
    for (int i = 0; i < width; ++i) {
      for (int j = 0; j < 3; ++j) expected += work(i + j);
    }
  }
  EXPECT_EQ(sum.load(), expected);
}

}  // namespace
}  // namespace parjoin
