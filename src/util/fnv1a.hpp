// Byte-wise 64-bit FNV-1a: the one digest of the library and its tests
// (checkpoint checksums, recorded box-list and field digests). Cheap,
// deterministic, and chainable: feed the previous hash back in as `h`
// to digest several buffers as one stream.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ramr::util {

/// Initial hash value (the FNV-1a 64-bit offset basis).
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

/// Folds `n` bytes at `data` into `h`.
inline std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace ramr::util
