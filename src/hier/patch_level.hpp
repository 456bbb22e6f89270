// A PatchLevel groups all patches of one refinement level G_l.
//
// The *metadata* (every patch's box and owner rank) is replicated on all
// ranks, SAMRAI-style, so communication schedules and regridding are
// computed identically everywhere with no extra negotiation; patch
// *data* is allocated only on the owner.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "hier/patch.hpp"
#include "mesh/box_list.hpp"
#include "mesh/box_tree.hpp"
#include "mesh/grid_geometry.hpp"

namespace ramr::vgpu {
class Topology;
}  // namespace ramr::vgpu

namespace ramr::hier {

/// Globally replicated descriptor of one patch.
struct GlobalPatch {
  mesh::Box box;
  int owner_rank = 0;
  int global_id = 0;
  /// Rank-local device ordinal the owner allocates on (vgpu::Topology).
  /// Meaningful only on the owner rank; remote ranks never consult it.
  int device = 0;
};

/// One level of the AMR hierarchy.
class PatchLevel {
 public:
  /// `ratio_to_coarser` is r_l (1,1 for the base level); `ratio_to_zero`
  /// the cumulative product defining this level's index space.
  PatchLevel(int level_number, mesh::IntVector ratio_to_coarser,
             mesh::IntVector ratio_to_zero, std::vector<GlobalPatch> patches,
             int my_rank, const mesh::GridGeometry& geometry);

  int number() const { return number_; }
  mesh::IntVector ratio_to_coarser() const { return ratio_to_coarser_; }
  mesh::IntVector ratio_to_level_zero() const { return ratio_to_zero_; }

  const std::vector<GlobalPatch>& global_patches() const { return global_; }
  std::size_t patch_count() const { return global_.size(); }

  /// Union of all patch boxes (disjoint by construction).
  const mesh::BoxList& boxes() const { return boxes_; }

  /// This level's index-space image of the physical domain.
  const mesh::Box& domain_box() const { return domain_box_; }

  /// Mesh spacing h_l.
  std::array<double, 2> dx() const { return dx_; }

  /// Total cells on the level (all ranks).
  std::int64_t total_cells() const { return boxes_.size(); }

  /// Cells owned by this rank.
  std::int64_t local_cells() const;

  const std::vector<std::shared_ptr<Patch>>& local_patches() const {
    return local_;
  }

  /// The local Patch with the given global id (null when remote).
  std::shared_ptr<Patch> local_patch(int global_id) const;

  /// Indices into global_patches() of the local patches, ascending.
  const std::vector<int>& local_indices() const { return local_index_; }

  /// Box tree over the global patch boxes in metadata order (query hits
  /// index global_patches()). Built on first use; the call that builds it
  /// adds the build's work to `*work` when given.
  const mesh::BoxTree& box_tree(mesh::BoxTree::Work* work = nullptr) const;

  /// Allocates data for every local patch. With a topology, each patch's
  /// data goes to its assigned device (GlobalPatch::device); without one,
  /// every factory uses its default device.
  void allocate_data(const VariableDatabase& db,
                     vgpu::Topology* topology = nullptr);

  /// Sets the logical simulation time on all local data.
  void set_time(double time, const VariableDatabase& db);

 private:
  int number_;
  mesh::IntVector ratio_to_coarser_;
  mesh::IntVector ratio_to_zero_;
  std::vector<GlobalPatch> global_;
  mesh::BoxList boxes_;
  mesh::Box domain_box_;
  std::array<double, 2> dx_;
  std::vector<std::shared_ptr<Patch>> local_;
  std::vector<int> local_index_;
  std::map<int, std::shared_ptr<Patch>> local_by_id_;
  mutable std::once_flag tree_once_;
  mutable mesh::BoxTree tree_;
};

}  // namespace ramr::hier
