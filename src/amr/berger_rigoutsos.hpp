// Berger-Rigoutsos clustering: groups flagged cells into rectangular
// patches (the "clustering" step of the regridding procedure, paper §II).
//
// The classic signature algorithm: shrink each candidate box to the
// bounding box of its tags; accept when the fill efficiency is high
// enough; otherwise split at a hole in a signature, at the strongest
// inflection of the signature Laplacian, or at the midpoint, and recurse.
// Signatures come from one summed-area table of the tags per call, so
// each recursion step costs O(width + height), not O(area).
#pragma once

#include <vector>

#include "amr/tag_buffer.hpp"
#include "mesh/box_list.hpp"

namespace ramr::amr {

/// Tuning knobs for the clustering.
struct ClusterParams {
  double efficiency = 0.75;  ///< minimum tagged fraction to accept a box
  int min_size = 4;          ///< minimum box side length (cells)
  std::int64_t max_box_cells = 1 << 30;  ///< split boxes larger than this
};

/// Clusters the tags within `within` into boxes covering every tag.
/// Returned boxes are disjoint, tag-tight and respect params.min_size
/// where possible (boxes clipped by `within` may be smaller).
std::vector<mesh::Box> berger_rigoutsos(const TagBitmap& tags,
                                        const mesh::Box& within,
                                        const ClusterParams& params);

}  // namespace ramr::amr
