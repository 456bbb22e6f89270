// Reproducible parallel summation: the same bits whatever the worker
// count, the chunking or the finish order of the pool's chunks.
//
// The index range is cut into fixed blocks of kOrderedSumBlock terms —
// a size that depends on neither the pool nor the chunking — each block
// is summed in index order, and the block partials are added in block
// order on the calling thread. This is the simplest form of the
// reproducible-summation idea of Demmel & Nguyen, "Fast reproducible
// floating-point summation" (ARITH 2013): fix the association, then
// parallelise only over work whose result does not depend on the order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/thread_pool.hpp"

namespace ramr::util {

/// Terms per block of ordered_sum.
inline constexpr std::int64_t kOrderedSumBlock = 512;

/// Returns the sum of term(i) for i in [0, n) with a fixed association:
/// ((t0 + ... + t511) + (t512 + ... + t1023)) + ... . T needs a zero
/// default value and operator+=; term must be safe to call concurrently.
template <typename T, typename F>
T ordered_sum(std::int64_t n, F&& term,
              ThreadPool& pool = ThreadPool::global()) {
  if (n <= 0) {
    return T{};
  }
  const std::int64_t blocks = (n + kOrderedSumBlock - 1) / kOrderedSumBlock;
  std::vector<T> partial(static_cast<std::size_t>(blocks));
  pool.parallel_for(blocks, [&](std::int64_t first, std::int64_t last) {
    for (std::int64_t b = first; b < last; ++b) {
      const std::int64_t end = std::min(n, (b + 1) * kOrderedSumBlock);
      T acc{};
      for (std::int64_t i = b * kOrderedSumBlock; i < end; ++i) {
        acc += term(i);
      }
      partial[static_cast<std::size_t>(b)] = acc;
    }
  });
  T total{};
  for (const T& p : partial) {
    total += p;
  }
  return total;
}

}  // namespace ramr::util
