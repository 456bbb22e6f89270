#include "hier/patch_level.hpp"

#include "util/error.hpp"
#include "vgpu/topology.hpp"

namespace ramr::hier {

PatchLevel::PatchLevel(int level_number, mesh::IntVector ratio_to_coarser,
                       mesh::IntVector ratio_to_zero,
                       std::vector<GlobalPatch> patches, int my_rank,
                       const mesh::GridGeometry& geometry)
    : number_(level_number),
      ratio_to_coarser_(ratio_to_coarser),
      ratio_to_zero_(ratio_to_zero),
      global_(std::move(patches)),
      domain_box_(geometry.domain_box_at(ratio_to_zero)),
      dx_(geometry.dx_at(ratio_to_zero)) {
  RAMR_REQUIRE(ratio_to_coarser.all_gt(mesh::IntVector::zero()) &&
                   ratio_to_zero.all_gt(mesh::IntVector::zero()),
               "refinement ratios must be positive");
  for (std::size_t n = 0; n < global_.size(); ++n) {
    const GlobalPatch& gp = global_[n];
    RAMR_REQUIRE(!gp.box.empty(), "empty patch box on level " << number_);
    RAMR_REQUIRE(domain_box_.contains(gp.box),
                 "patch " << gp.box << " outside level domain " << domain_box_);
    boxes_.push_back(gp.box);
    if (gp.owner_rank == my_rank) {
      auto patch = std::make_shared<Patch>(gp.box, number_, gp.global_id,
                                           gp.owner_rank, gp.device);
      local_.push_back(patch);
      local_index_.push_back(static_cast<int>(n));
      RAMR_REQUIRE(local_by_id_.emplace(gp.global_id, patch).second,
                   "duplicate global patch id " << gp.global_id);
    }
  }
}

std::int64_t PatchLevel::local_cells() const {
  std::int64_t total = 0;
  for (const auto& p : local_) {
    total += p->box().size();
  }
  return total;
}

const mesh::BoxTree& PatchLevel::box_tree(mesh::BoxTree::Work* work) const {
  std::call_once(tree_once_, [&] {
    std::vector<mesh::Box> boxes;
    boxes.reserve(global_.size());
    for (const GlobalPatch& gp : global_) {
      boxes.push_back(gp.box);
    }
    tree_ = mesh::BoxTree(std::move(boxes));
    if (work != nullptr) {
      work->build += tree_.build_work();
    }
  });
  return tree_;
}

std::shared_ptr<Patch> PatchLevel::local_patch(int global_id) const {
  const auto it = local_by_id_.find(global_id);
  return it == local_by_id_.end() ? nullptr : it->second;
}

void PatchLevel::allocate_data(const VariableDatabase& db,
                               vgpu::Topology* topology) {
  for (const auto& p : local_) {
    vgpu::Device* dev = nullptr;
    if (topology != nullptr) {
      dev = &topology->device(p->device_ordinal());
    }
    p->allocate(db, dev);
  }
}

void PatchLevel::set_time(double time, const VariableDatabase& db) {
  for (const auto& p : local_) {
    for (int id = 0; id < db.count(); ++id) {
      p->data(id).set_time(time);
    }
  }
}

}  // namespace ramr::hier
