// CloverLeaf's reflective physical boundary conditions as device
// kernels. Ghost values mirror the interior with a per-field parity:
// thermodynamic fields reflect symmetrically, the wall-normal velocity
// and flux components flip sign. A level's whole fill is two fused
// launches (docs/kernel_batching.md, "Boundary and initialization
// launches").
#pragma once

#include <map>

#include "app/fields.hpp"
#include "xfer/physical_boundary.hpp"

namespace ramr::app {

/// Parity of one variable under reflection across x / y boundaries,
/// per component.
struct Parity {
  double across_x = 1.0;
  double across_y = 1.0;
};

/// Reflective (free-slip wall) boundaries on all four domain edges.
class ReflectiveBoundary : public xfer::PhysicalBoundaryStrategy {
 public:
  explicit ReflectiveBoundary(const Fields& fields);

  void fill_physical_boundaries(std::span<hier::Patch* const> patches,
                                const mesh::Box& level_domain_box,
                                const std::vector<int>& var_ids) override;

 private:
  /// parity_[var_id][component]
  std::map<int, std::vector<Parity>> parity_;
};

}  // namespace ramr::app
