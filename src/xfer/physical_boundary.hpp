// Strategy interface for filling ghost cells that lie outside the
// physical domain. As in the paper (§IV-B2), physical boundary
// conditions are supplied by the application (CleverLeaf uses the
// reflective CloverLeaf boundaries); the schedules call this after all
// same-level and coarse-to-fine fills complete.
#pragma once

#include <span>
#include <vector>

#include "hier/patch.hpp"
#include "mesh/box.hpp"

namespace ramr::xfer {

/// Application-supplied physical boundary condition filler.
class PhysicalBoundaryStrategy {
 public:
  virtual ~PhysicalBoundaryStrategy() = default;

  /// Fills all ghost regions outside `level_domain_box` of every listed
  /// patch for the listed variables. The patches are one device's local
  /// patches of a level, so an implementation can fuse the whole level's
  /// fill into a few launches. Interior-adjacent values are already
  /// valid.
  virtual void fill_physical_boundaries(std::span<hier::Patch* const> patches,
                                        const mesh::Box& level_domain_box,
                                        const std::vector<int>& var_ids) = 0;
};

}  // namespace ramr::xfer
