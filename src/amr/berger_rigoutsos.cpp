#include "amr/berger_rigoutsos.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/error.hpp"

namespace ramr::amr {

using mesh::Box;
using mesh::IntVector;

namespace {

/// Column (axis 0) and row (axis 1) tag signatures over a box.
struct Signatures {
  std::vector<std::int64_t> x;  // per column i
  std::vector<std::int64_t> y;  // per row j
  std::int64_t total = 0;
};

/// Summed-area table of the tags inside `box`: at(x, y) counts the tags
/// in the first x columns of the first y rows. Built once per
/// clustering call, it answers a box's signatures and tag count in
/// O(width + height) instead of O(area) (Gunney, Wissink & Hysom, JPDC
/// 2006); `box` need only hold every tag of the clustering region.
class SummedAreaTable {
 public:
  SummedAreaTable(const TagBitmap& tags, const Box& box)
      : box_(box),
        pitch_(box.empty() ? 0 : box.width() + 1),
        sums_(box.empty() ? 0
                          : static_cast<std::size_t>(pitch_) *
                                static_cast<std::size_t>(box.height() + 1),
              0u) {
    if (box.empty()) {
      return;
    }
    RAMR_REQUIRE(box.size() < (std::int64_t{1} << 32),
                 "summed-area table over " << box << " overflows 32 bits");
    const int x0 = box.lower().i - tags.region().lower().i;
    for (int y = 0; y < box.height(); ++y) {
      const std::uint64_t* row = tags.row(box.lower().j + y).data();
      const std::uint32_t* above = &sums_[static_cast<std::size_t>(y) * pitch_];
      std::uint32_t* out = &sums_[static_cast<std::size_t>(y + 1) * pitch_];
      std::uint32_t run = 0;
      for (int x = 0; x < box.width(); ++x) {
        const int bit = x0 + x;
        run += static_cast<std::uint32_t>((row[bit >> 6] >> (bit & 63)) & 1u);
        out[x + 1] = above[x + 1] + run;
      }
    }
  }

  /// Signatures of `b` (tags outside the table's box count zero).
  Signatures signatures(const Box& b) const {
    Signatures s;
    s.x.assign(static_cast<std::size_t>(b.width()), 0);
    s.y.assign(static_cast<std::size_t>(b.height()), 0);
    const Box c = b.intersect(box_);
    if (c.empty()) {
      return s;
    }
    // c in table-local columns [xa, xb) and rows [ya, yb).
    const int xa = c.lower().i - box_.lower().i;
    const int xb = c.upper().i - box_.lower().i + 1;
    const int ya = c.lower().j - box_.lower().j;
    const int yb = c.upper().j - box_.lower().j + 1;
    const int dx = box_.lower().i - b.lower().i;
    const int dy = box_.lower().j - b.lower().j;
    for (int x = xa; x < xb; ++x) {
      s.x[static_cast<std::size_t>(x + dx)] = rect(x, x + 1, ya, yb);
    }
    for (int y = ya; y < yb; ++y) {
      s.y[static_cast<std::size_t>(y + dy)] = rect(xa, xb, y, y + 1);
    }
    s.total = rect(xa, xb, ya, yb);
    return s;
  }

 private:
  std::uint32_t at(int x, int y) const {
    return sums_[static_cast<std::size_t>(y) * pitch_ + x];
  }

  /// Tags in table-local columns [xa, xb) and rows [ya, yb).
  std::int64_t rect(int xa, int xb, int ya, int yb) const {
    return std::int64_t{at(xb, yb)} - at(xa, yb) - at(xb, ya) + at(xa, ya);
  }

  Box box_;
  int pitch_;
  std::vector<std::uint32_t> sums_;
};

/// Shrinks `box` to the bounding box of its tags (empty when untagged).
Box tag_bounding_box(const Box& box, const Signatures& s) {
  if (s.total == 0) {
    return {};
  }
  int ilo = box.lower().i;
  while (s.x[static_cast<std::size_t>(ilo - box.lower().i)] == 0) ++ilo;
  int ihi = box.upper().i;
  while (s.x[static_cast<std::size_t>(ihi - box.lower().i)] == 0) --ihi;
  int jlo = box.lower().j;
  while (s.y[static_cast<std::size_t>(jlo - box.lower().j)] == 0) ++jlo;
  int jhi = box.upper().j;
  while (s.y[static_cast<std::size_t>(jhi - box.lower().j)] == 0) --jhi;
  return Box(ilo, jlo, ihi, jhi);
}

/// A split position along one axis, expressed as the last index of the
/// lower part in box-local coordinates; -1 when no acceptable split.
int find_hole(const std::vector<std::int64_t>& sig, int min_size) {
  const int n = static_cast<int>(sig.size());
  for (int k = min_size - 1; k < n - min_size; ++k) {
    if (sig[static_cast<std::size_t>(k)] == 0 ||
        sig[static_cast<std::size_t>(k + 1)] == 0) {
      return k;
    }
  }
  return -1;
}

/// Strongest zero crossing of the discrete Laplacian of the signature.
int find_inflection(const std::vector<std::int64_t>& sig, int min_size) {
  const int n = static_cast<int>(sig.size());
  if (n < 2 * min_size || n < 4) {
    return -1;
  }
  std::vector<std::int64_t> lap(static_cast<std::size_t>(n), 0);
  for (int k = 1; k < n - 1; ++k) {
    lap[static_cast<std::size_t>(k)] =
        sig[static_cast<std::size_t>(k - 1)] - 2 * sig[static_cast<std::size_t>(k)] +
        sig[static_cast<std::size_t>(k + 1)];
  }
  int best = -1;
  std::int64_t best_jump = 0;
  for (int k = std::max(1, min_size - 1); k < std::min(n - 2, n - min_size); ++k) {
    const std::int64_t a = lap[static_cast<std::size_t>(k)];
    const std::int64_t b = lap[static_cast<std::size_t>(k + 1)];
    if ((a <= 0 && b >= 0) || (a >= 0 && b <= 0)) {
      const std::int64_t jump = std::llabs(a - b);
      if (jump > best_jump) {
        best_jump = jump;
        best = k;
      }
    }
  }
  return best;
}

/// Bounding box of the tags inside `region` (empty when untagged), from
/// whole-word row scans: the summed-area table needs to cover no more.
Box tag_bounds(const TagBitmap& tags, const Box& region) {
  const int x0 = region.lower().i - tags.region().lower().i;
  const int x1 = region.upper().i - tags.region().lower().i;
  const int w0 = x0 >> 6;
  const int w1 = x1 >> 6;
  const std::uint64_t first = ~std::uint64_t{0} << (x0 & 63);
  const std::uint64_t last =
      (x1 & 63) == 63 ? ~std::uint64_t{0} : (std::uint64_t{2} << (x1 & 63)) - 1;
  int ilo = x1 + 1;
  int ihi = x0 - 1;
  int jlo = region.upper().j + 1;
  int jhi = region.lower().j - 1;
  for (int j = region.lower().j; j <= region.upper().j; ++j) {
    const std::uint64_t* row = tags.row(j).data();
    for (int w = w0; w <= w1; ++w) {
      std::uint64_t v = row[w];
      if (w == w0) v &= first;
      if (w == w1) v &= last;
      if (v == 0) {
        continue;
      }
      ilo = std::min(ilo, 64 * w + std::countr_zero(v));
      ihi = std::max(ihi, 64 * w + 63 - std::countl_zero(v));
      jlo = std::min(jlo, j);
      jhi = j;
    }
  }
  if (jhi < jlo) {
    return {};
  }
  const int i0 = tags.region().lower().i;
  return Box(i0 + ilo, jlo, i0 + ihi, jhi);
}

void cluster_recursive(const SummedAreaTable& sat, const Box& candidate,
                       const ClusterParams& params, std::vector<Box>& out) {
  const Signatures s = sat.signatures(candidate);
  if (s.total == 0) {
    return;
  }
  // The bounding box holds every tag of the candidate: its count is s.total.
  const Box box = tag_bounding_box(candidate, s);
  const double efficiency =
      static_cast<double>(s.total) / static_cast<double>(box.size());
  const bool small = box.width() <= 2 * params.min_size &&
                     box.height() <= 2 * params.min_size;
  if ((efficiency >= params.efficiency && box.size() <= params.max_box_cells) ||
      (small && box.size() <= params.max_box_cells)) {
    out.push_back(box);
    return;
  }

  const Signatures sb = sat.signatures(box);
  // Prefer splitting the longer axis; try hole, then inflection, then
  // midpoint. Split position k: lower part is [lo, lo+k].
  const bool x_first = box.width() >= box.height();
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool along_x = (attempt == 0) ? x_first : !x_first;
    const auto& sig = along_x ? sb.x : sb.y;
    const int extent = along_x ? box.width() : box.height();
    if (extent < 2 * params.min_size) {
      continue;
    }
    int k = find_hole(sig, params.min_size);
    if (k < 0) {
      k = find_inflection(sig, params.min_size);
    }
    if (k < 0) {
      k = extent / 2 - 1;
    }
    if (k < params.min_size - 1 || k >= extent - params.min_size) {
      continue;
    }
    Box lower_part;
    Box upper_part;
    if (along_x) {
      const int cut = box.lower().i + k;
      lower_part = Box(box.lower(), IntVector(cut, box.upper().j));
      upper_part = Box(IntVector(cut + 1, box.lower().j), box.upper());
    } else {
      const int cut = box.lower().j + k;
      lower_part = Box(box.lower(), IntVector(box.upper().i, cut));
      upper_part = Box(IntVector(box.lower().i, cut + 1), box.upper());
    }
    cluster_recursive(sat, lower_part, params, out);
    cluster_recursive(sat, upper_part, params, out);
    return;
  }
  // No admissible split: accept as-is.
  out.push_back(box);
}

}  // namespace

std::vector<Box> berger_rigoutsos(const TagBitmap& tags, const Box& within,
                                  const ClusterParams& params) {
  RAMR_REQUIRE(params.efficiency > 0.0 && params.efficiency <= 1.0,
               "efficiency must be in (0, 1]");
  RAMR_REQUIRE(params.min_size >= 1, "min_size must be positive");
  std::vector<Box> out;
  const Box region = tags.region().intersect(within);
  if (!region.empty()) {
    cluster_recursive(SummedAreaTable(tags, tag_bounds(tags, region)), region,
                      params, out);
  }
  return out;
}

}  // namespace ramr::amr
