#include "amr/load_balancer.hpp"

#include <algorithm>
#include <numeric>
#include <tuple>

#include "util/error.hpp"

namespace ramr::amr {

using hier::GlobalPatch;
using mesh::Box;
using mesh::IntVector;

std::vector<Box> chop_boxes(const std::vector<Box>& boxes,
                            const BalanceParams& params) {
  std::vector<Box> out;
  std::vector<Box> work(boxes.begin(), boxes.end());
  while (!work.empty()) {
    const Box b = work.back();
    work.pop_back();
    if (b.empty()) {
      continue;
    }
    const bool can_split_x = b.width() >= 2 * params.min_size;
    const bool can_split_y = b.height() >= 2 * params.min_size;
    if (b.size() <= params.max_patch_cells || (!can_split_x && !can_split_y)) {
      out.push_back(b);
      continue;
    }
    // Split the longer splittable axis at its midpoint.
    const bool along_x = can_split_x && (!can_split_y || b.width() >= b.height());
    if (along_x) {
      const int cut = b.lower().i + b.width() / 2 - 1;
      work.emplace_back(b.lower(), IntVector(cut, b.upper().j));
      work.emplace_back(IntVector(cut + 1, b.lower().j), b.upper());
    } else {
      const int cut = b.lower().j + b.height() / 2 - 1;
      work.emplace_back(b.lower(), IntVector(b.upper().i, cut));
      work.emplace_back(IntVector(b.lower().i, cut + 1), b.upper());
    }
  }
  return out;
}

std::uint64_t morton_code(const Box& box) {
  // Interleave the bits of the (non-negative, shifted) centre coordinates.
  const std::uint32_t cx =
      static_cast<std::uint32_t>(box.lower().i + box.width() / 2 + (1 << 30));
  const std::uint32_t cy =
      static_cast<std::uint32_t>(box.lower().j + box.height() / 2 + (1 << 30));
  auto spread = [](std::uint32_t v) {
    std::uint64_t x = v;
    x = (x | (x << 16)) & 0x0000FFFF0000FFFFull;
    x = (x | (x << 8)) & 0x00FF00FF00FF00FFull;
    x = (x | (x << 4)) & 0x0F0F0F0F0F0F0F0Full;
    x = (x | (x << 2)) & 0x3333333333333333ull;
    x = (x | (x << 1)) & 0x5555555555555555ull;
    return x;
  };
  return spread(cx) | (spread(cy) << 1);
}

std::vector<GlobalPatch> balance_boxes(const std::vector<Box>& boxes,
                                       int world_size,
                                       const BalanceParams& params) {
  RAMR_REQUIRE(world_size >= 1, "world_size must be positive");
  std::vector<Box> chopped = chop_boxes(boxes, params);

  std::vector<GlobalPatch> out;
  out.reserve(chopped.size());

  // kMorton and kMeasured share the curve partitioning: measurement only
  // changes the patch->device mapping (assign_devices), not the globally
  // replicated rank decomposition.
  std::sort(chopped.begin(), chopped.end(), [](const Box& a, const Box& b) {
    const std::uint64_t ma = morton_code(a);
    const std::uint64_t mb = morton_code(b);
    if (ma != mb) {
      return ma < mb;
    }
    // Total order for identical codes.
    return std::make_tuple(a.lower().i, a.lower().j, a.upper().i,
                           a.upper().j) <
           std::make_tuple(b.lower().i, b.lower().j, b.upper().i,
                           b.upper().j);
  });
  const std::int64_t total = std::accumulate(
      chopped.begin(), chopped.end(), std::int64_t{0},
      [](std::int64_t acc, const Box& b) { return acc + b.size(); });
  // Prefix-sum partitioning along the curve.
  std::int64_t seen = 0;
  int gid = 0;
  for (const Box& b : chopped) {
    const std::int64_t midpoint = seen + b.size() / 2;
    int rank = static_cast<int>((midpoint * world_size) /
                                std::max<std::int64_t>(total, 1));
    rank = std::min(rank, world_size - 1);
    out.push_back(GlobalPatch{b, rank, gid++});
    seen += b.size();
  }
  return out;
}

void assign_devices(std::vector<GlobalPatch>& patches, int my_rank,
                    const BalanceParams& params,
                    const std::vector<MeasuredDeviceCosts>* measured) {
  const int devices = std::max(params.devices_per_rank, 1);
  if (devices == 1) {
    for (GlobalPatch& p : patches) {
      p.device = 0;
    }
    return;
  }
  // Seconds-per-cell rate per device. Uniform unless every ordinal has a
  // valid measurement (first regrid, or a device that ran no cells yet).
  std::vector<double> rate(static_cast<std::size_t>(devices), 1.0);
  if (measured != nullptr && static_cast<int>(measured->size()) >= devices) {
    bool valid = true;
    for (int d = 0; d < devices; ++d) {
      const MeasuredDeviceCosts& m = (*measured)[static_cast<std::size_t>(d)];
      if (m.cells <= 0 || m.busy_seconds <= 0.0) {
        valid = false;
        break;
      }
    }
    if (valid) {
      for (int d = 0; d < devices; ++d) {
        const MeasuredDeviceCosts& m = (*measured)[static_cast<std::size_t>(d)];
        rate[static_cast<std::size_t>(d)] =
            m.busy_seconds / static_cast<double>(m.cells);
      }
    }
  }
  // Greedy in global-id order (the vector is already id-sorted): patch to
  // the device finishing earliest under its rate. Strict < keeps ties on
  // the lowest ordinal, so the mapping is deterministic.
  std::vector<double> load(static_cast<std::size_t>(devices), 0.0);
  for (GlobalPatch& p : patches) {
    if (p.owner_rank != my_rank) {
      p.device = 0;
      continue;
    }
    const double cells = static_cast<double>(p.box.size());
    int best = 0;
    double best_t = load[0] + cells * rate[0];
    for (int d = 1; d < devices; ++d) {
      const double t = load[static_cast<std::size_t>(d)] +
                       cells * rate[static_cast<std::size_t>(d)];
      if (t < best_t) {
        best_t = t;
        best = d;
      }
    }
    p.device = best;
    load[static_cast<std::size_t>(best)] = best_t;
  }
}

double load_imbalance(const std::vector<GlobalPatch>& patches, int world_size) {
  if (patches.empty() || world_size <= 0) {
    return 1.0;
  }
  std::vector<std::int64_t> load(static_cast<std::size_t>(world_size), 0);
  std::int64_t total = 0;
  for (const GlobalPatch& p : patches) {
    load[static_cast<std::size_t>(p.owner_rank)] += p.box.size();
    total += p.box.size();
  }
  const double mean = static_cast<double>(total) / world_size;
  const std::int64_t max_load = *std::max_element(load.begin(), load.end());
  return mean > 0.0 ? static_cast<double>(max_load) / mean : 1.0;
}

}  // namespace ramr::amr
