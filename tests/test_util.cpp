// Unit tests for the util module: error handling, array views, the
// thread pool, reproducible summation and statistics helpers.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <numeric>
#include <vector>

#include "util/array_view.hpp"
#include "util/error.hpp"
#include "util/ordered_sum.hpp"
#include "util/statistics.hpp"
#include "util/thread_pool.hpp"

namespace ramr {
namespace {

TEST(Error, RequireThrowsWithMessage) {
  try {
    RAMR_REQUIRE(1 == 2, "custom detail " << 42);
    FAIL() << "should have thrown";
  } catch (const util::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom detail 42"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(Error, RequirePassesSilently) {
  EXPECT_NO_THROW(RAMR_REQUIRE(2 + 2 == 4, "impossible"));
}

TEST(Error, FailAlwaysThrows) {
  EXPECT_THROW(RAMR_FAIL("boom"), util::Error);
}

TEST(ArrayView, GlobalIndexing) {
  std::vector<double> storage(20, 0.0);
  // View covering i in [3, 7], j in [-1, 2]: width 5, height 4.
  util::View v(storage.data(), 3, -1, 5, 4);
  v(3, -1) = 1.0;
  v(7, 2) = 2.0;
  EXPECT_DOUBLE_EQ(storage.front(), 1.0);
  EXPECT_DOUBLE_EQ(storage.back(), 2.0);
  EXPECT_TRUE(v.contains(5, 0));
  EXPECT_FALSE(v.contains(8, 0));
  EXPECT_FALSE(v.contains(3, 3));
}

TEST(ArrayView, RowMajorLayout) {
  std::vector<double> storage(6);
  std::iota(storage.begin(), storage.end(), 0.0);
  util::View v(storage.data(), 0, 0, 3, 2);
  EXPECT_DOUBLE_EQ(v(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(v(2, 0), 2.0);
  EXPECT_DOUBLE_EQ(v(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(v(2, 1), 5.0);
}

TEST(ThreadPool, CoversFullRangeExactlyOnce) {
  util::ThreadPool pool(4);
  constexpr std::int64_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& h : hits) {
    ASSERT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, EmptyAndSingleElementRanges) {
  util::ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(0, [&](std::int64_t, std::int64_t) { count = -100; });
  EXPECT_EQ(count.load(), 0);
  pool.parallel_for(1, [&](std::int64_t b, std::int64_t e) {
    count += static_cast<int>(e - b);
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, NestedCallsRunInline) {
  util::ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  pool.parallel_for(8, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      pool.parallel_for(10, [&](std::int64_t bb, std::int64_t ee) {
        total += (ee - bb);
      });
    }
  });
  EXPECT_EQ(total.load(), 80);
}

/// Terms spanning many magnitudes, so any change of association changes
/// the low bits of the sum.
double wild_term(std::int64_t i) {
  return std::sin(0.37 * static_cast<double>(i)) *
         std::pow(10.0, static_cast<double>(i % 17) - 8.0);
}

/// The association ordered_sum promises, computed serially.
double blocked_reference(std::int64_t n) {
  double total = 0.0;
  for (std::int64_t lo = 0; lo < n; lo += util::kOrderedSumBlock) {
    double block = 0.0;
    for (std::int64_t i = lo; i < std::min(n, lo + util::kOrderedSumBlock);
         ++i) {
      block += wild_term(i);
    }
    total += block;
  }
  return total;
}

TEST(OrderedSum, BitwiseEqualAcrossPoolSizes) {
  for (const std::int64_t n : {std::int64_t{1}, std::int64_t{511},
                               std::int64_t{512}, std::int64_t{513},
                               std::int64_t{100003}}) {
    const auto expect = std::bit_cast<std::uint64_t>(blocked_reference(n));
    for (const unsigned workers : {1u, 2u, 4u}) {
      util::ThreadPool pool(workers);
      // Several rounds per pool: chunk finish order varies run to run.
      for (int round = 0; round < 5; ++round) {
        const double got = util::ordered_sum<double>(n, wild_term, pool);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got), expect)
            << "n=" << n << " workers=" << workers << " round=" << round;
      }
    }
  }
}

TEST(OrderedSum, NestedInlineCallGivesTheSameBits) {
  // Called from inside a pool body the loop runs inline on one thread;
  // the fixed blocks keep the association, hence the bits, unchanged.
  constexpr std::int64_t n = 20000;
  util::ThreadPool pool(4);
  const double outer = util::ordered_sum<double>(n, wild_term, pool);
  std::vector<double> inner(8);
  pool.parallel_for(8, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t k = b; k < e; ++k) {
      inner[static_cast<std::size_t>(k)] =
          util::ordered_sum<double>(n, wild_term, pool);
    }
  });
  for (const double v : inner) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v),
              std::bit_cast<std::uint64_t>(outer));
  }
}

TEST(OrderedSum, EmptyRangeAndStructuredTerms) {
  EXPECT_EQ(util::ordered_sum<double>(0, wild_term), 0.0);
  struct Pair {
    double a = 0.0;
    std::int64_t b = 0;
    Pair& operator+=(const Pair& o) {
      a += o.a;
      b += o.b;
      return *this;
    }
  };
  const Pair p = util::ordered_sum<Pair>(
      2000, [](std::int64_t i) { return Pair{0.5, i}; });
  EXPECT_EQ(p.a, 1000.0);
  EXPECT_EQ(p.b, 2000 * 1999 / 2);
}

TEST(ThreadPool, SequentialReuse) {
  util::ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.parallel_for(1000, [&](std::int64_t b, std::int64_t e) {
      std::int64_t local = 0;
      for (std::int64_t i = b; i < e; ++i) {
        local += i;
      }
      sum += local;
    });
    ASSERT_EQ(sum.load(), 1000 * 999 / 2);
  }
}

TEST(RunningStats, Accumulates) {
  util::RunningStats s;
  for (double x : {3.0, 1.0, 2.0}) {
    s.add(x);
  }
  EXPECT_EQ(s.count(), 3);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.sum(), 6.0);
}

TEST(RunningStats, MergeMatchesCombined) {
  util::RunningStats a;
  util::RunningStats b;
  util::RunningStats all;
  for (int i = 0; i < 10; ++i) {
    const double x = i * 0.7 - 2.0;
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.sum(), all.sum());
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RelDiff, BasicProperties) {
  EXPECT_DOUBLE_EQ(util::rel_diff(1.0, 1.0), 0.0);
  EXPECT_NEAR(util::rel_diff(1.0, 1.1), 0.1 / 1.1, 1e-12);
  EXPECT_GT(util::rel_diff(0.0, 1.0), 0.99);
}

}  // namespace
}  // namespace ramr
