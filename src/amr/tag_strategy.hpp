// Application callbacks for the gridding algorithm: initial data and the
// refinement-flagging heuristic (evaluated as a device kernel in the
// GPU-resident application; paper §IV-C).
#pragma once

#include "amr/tag_buffer.hpp"
#include "hier/patch.hpp"
#include "hier/patch_level.hpp"
#include "mesh/grid_geometry.hpp"

namespace ramr::amr {

/// Strategy supplied by the application (CleverLeaf).
class TagStrategy {
 public:
  virtual ~TagStrategy() = default;

  /// Sets initial conditions on a freshly created patch (used when the
  /// initial hierarchy is built; later regrids transfer data instead).
  virtual void initialize_level_data(hier::Patch& patch,
                                     const hier::PatchLevel& level,
                                     const mesh::GridGeometry& geometry,
                                     double time) = 0;

  /// Flags the cells of every local patch of `level` that need
  /// refinement (writes 0/1 into `tags`, whose patch p is the level's
  /// local patch p). Runs data-parallel on the devices: one fused launch
  /// per LevelTagData::DeviceGroup keeps the tag pass's launch count
  /// independent of the patch count.
  virtual void tag_cells(const hier::PatchLevel& level,
                         const mesh::GridGeometry& geometry,
                         LevelTagData& tags, double time) = 0;
};

}  // namespace ramr::amr
