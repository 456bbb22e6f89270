// Load balancing: assigns clustered boxes to ranks.
//
// Patches are the unit of work (paper §II: "work can be easily shared
// between multiple processes"). Boxes larger than max_patch_cells are
// chopped first; assignment follows a Morton (Z-order) curve with
// prefix-sum partitioning (locality preserving).
#pragma once

#include <cstdint>
#include <vector>

#include "hier/patch_level.hpp"
#include "mesh/box.hpp"

namespace ramr::amr {

enum class BalanceMethod {
  kMorton,
  /// Morton rank partitioning plus measured-cost device assignment:
  /// patch->device placement uses per-device seconds-per-cell rates
  /// observed between regrids (Timeline gpu-lane busy time) instead of
  /// assuming uniform devices.
  kMeasured,
};

struct BalanceParams {
  std::int64_t max_patch_cells = 64 * 64;
  int min_size = 4;  ///< do not chop below this side length
  BalanceMethod method = BalanceMethod::kMorton;
  int devices_per_rank = 1;  ///< vgpu::Topology device count
};

/// What one device actually did between two regrids: busy seconds on its
/// Timeline compute lane and the cells it was responsible for. The ratio
/// is the measured cost rate assign_devices uses under kMeasured.
struct MeasuredDeviceCosts {
  double busy_seconds = 0.0;
  std::int64_t cells = 0;
};

/// Splits oversized boxes into roughly equal halves until every piece is
/// at most max_patch_cells (or cannot be split further).
std::vector<mesh::Box> chop_boxes(const std::vector<mesh::Box>& boxes,
                                  const BalanceParams& params);

/// Morton code of a box centre (for locality ordering).
std::uint64_t morton_code(const mesh::Box& box);

/// Assigns boxes to `world_size` ranks; returns GlobalPatch descriptors
/// with dense global ids (stable across ranks: the function is
/// deterministic in its inputs).
std::vector<hier::GlobalPatch> balance_boxes(const std::vector<mesh::Box>& boxes,
                                             int world_size,
                                             const BalanceParams& params);

/// Max-over-ranks load divided by mean load (1.0 is perfect).
double load_imbalance(const std::vector<hier::GlobalPatch>& patches,
                      int world_size);

/// Assigns this rank's patches to its devices: deterministic greedy in
/// global-id order, each patch to the device whose predicted completion
/// (accumulated load + cells * rate) is smallest. Rates are uniform
/// unless `measured` supplies valid per-ordinal costs (kMeasured), in
/// which case slower devices receive proportionally fewer cells. Remote
/// patches keep device 0 — their placement is never consulted here.
void assign_devices(std::vector<hier::GlobalPatch>& patches, int my_rank,
                    const BalanceParams& params,
                    const std::vector<MeasuredDeviceCosts>* measured = nullptr);

}  // namespace ramr::amr
