#include "xfer/coarsen_schedule.hpp"

#include <algorithm>

#include "pdat/box_overlap.hpp"
#include "util/error.hpp"
#include "vgpu/topology.hpp"

namespace ramr::xfer {

using hier::GlobalPatch;
using mesh::Box;
using mesh::BoxList;
using mesh::IntVector;

std::unique_ptr<CoarsenSchedule> CoarsenAlgorithm::create_schedule(
    std::shared_ptr<hier::PatchLevel> coarse_level,
    std::shared_ptr<hier::PatchLevel> fine_level,
    const hier::VariableDatabase& db, ParallelContext& ctx) const {
  RAMR_REQUIRE(coarse_level != nullptr && fine_level != nullptr,
               "coarsen schedule needs both levels");
  RAMR_REQUIRE(!items_.empty(), "coarsen schedule with no items");

  auto sched = std::unique_ptr<CoarsenSchedule>(new CoarsenSchedule());
  sched->items_ = items_;
  sched->coarse_level_ = coarse_level;
  sched->fine_level_ = fine_level;
  sched->db_ = &db;
  sched->ctx_ = &ctx;
  sched->engine_.initialize(ctx);

  // Overlapping node-seam contributions must land identically on every
  // rank layout, so the plan order (fine x coarse metadata order, items
  // within) is the apply order on every rank — the engine guarantees it.
  // Only edges touching this rank are planned, found from the local side:
  // each local fine patch queries the coarse tree with its coarsened box,
  // and, when the fine level has remote patches, each local coarse patch
  // queries the fine tree with its refined box for edges from a remote
  // fine patch. Sorted in (fine, coarse) metadata order, the retained
  // subset keeps its relative order, which is all a peer message depends
  // on.
  const int me = ctx.my_rank;
  const IntVector ratio = fine_level->ratio_to_coarser();
  const auto& fine = fine_level->global_patches();
  const auto& coarse = coarse_level->global_patches();
  mesh::BoxTree::Work work;
  std::vector<std::pair<int, int>> edges;
  std::vector<int> hits;
  const mesh::BoxTree& coarse_tree = coarse_level->box_tree(&work);
  for (const int f : fine_level->local_indices()) {
    coarse_tree.query(fine[f].box.coarsen(ratio), hits, work);
    for (const int c : hits) {
      edges.emplace_back(f, c);
    }
  }
  if (fine_level->local_indices().size() < fine.size()) {
    const mesh::BoxTree& fine_tree = fine_level->box_tree(&work);
    for (const int c : coarse_level->local_indices()) {
      fine_tree.query(coarse[c].box.refine(ratio), hits, work);
      for (const int f : hits) {
        if (fine[f].owner_rank != me) {
          edges.emplace_back(f, c);
        }
      }
    }
  }
  std::sort(edges.begin(), edges.end());
  for (const auto& [fi, ci] : edges) {
    const GlobalPatch& f = fine[fi];
    const GlobalPatch& c = coarse[ci];
    const Box region = f.box.coarsen(ratio).intersect(c.box);
    for (std::size_t n = 0; n < items_.size(); ++n) {
      pdat::BoxOverlap ov = pdat::overlap_for_region(
          db.variable(items_[n].var_id).centering, BoxList(region));
      if (ov.empty()) {
        continue;
      }
      sched->xacts_.push_back(CoarsenSchedule::Xact{f.global_id, c.global_id,
                                                    n, region, std::move(ov)});
      sched->engine_.add(Transaction{f.owner_rank, c.owner_rank,
                                     sched->xacts_.size() - 1});
    }
  }
  sched->engine_.finalize(*sched);
  // Host cost: the counted tree work plus the box calculus of the edges
  // planned here.
  ctx.charge_host_ops(4.0 * static_cast<double>(work.total()) +
                      16.0 * static_cast<double>(edges.size()));
  return sched;
}

void CoarsenSchedule::coarsen_data() {
  prepare_scratch();
  engine_.execute(*this);
  scratch_cache_.clear();
}

void CoarsenSchedule::prepare_scratch() {
  // Unlike the per-transaction path this replaced (allocate, coarsen,
  // consume, free — one scratch live at a time), the batched pre-pass
  // holds every locally-sourced transaction's scratch at once: the sum
  // over all coarse overlap regions and items, ~1/r^2 of the fine
  // level's field footprint per cell item. The scratch stays alive
  // through the engine's (fused) pack/copy and is dropped as one batch
  // when coarsen_data() finishes.
  scratch_cache_.clear();
  scratch_cache_.resize(xacts_.size());
  const IntVector ratio = fine_level_->ratio_to_coarser();
  std::vector<std::vector<CoarsenTask>> tasks_by_item(items_.size());
  for (std::size_t h = 0; h < xacts_.size(); ++h) {
    const Xact& x = xacts_[h];
    const CoarsenItem& item = items_[x.item];
    const auto fine = fine_level_->local_patch(x.fine_gid);
    if (fine == nullptr) {
      continue;  // remote fine source: its owner coarsens and sends
    }
    // Scratch follows the fine source patch's device: the coarsening
    // kernel reads the fine arrays, so source and scratch must be
    // device-local on a multi-device rank.
    vgpu::Device* dev = nullptr;
    if (ctx_->topology != nullptr) {
      dev = &ctx_->topology->device(fine->device_ordinal());
    }
    auto scratch =
        db_->factory(item.var_id)
            .allocate_with_ghosts_on(x.coarse_cells, IntVector::zero(), dev);
    const pdat::PatchData* aux =
        item.aux_var_id >= 0 ? &fine->data(item.aux_var_id) : nullptr;
    RAMR_REQUIRE(!item.op->needs_aux() || aux != nullptr,
                 "operator " << item.op->name() << " needs an aux field");
    tasks_by_item[x.item].push_back(CoarsenTask{
        scratch.get(), &fine->data(item.var_id), aux, x.coarse_cells});
    scratch_cache_[h] = std::move(scratch);
  }
  // Per-device fan-out: each group's coarsening launches ride the fine
  // patches' device lane, forked from the caller's lane; the caller
  // rejoins at the slowest device once every item has been issued.
  vgpu::DeviceFanOut fan_out(ctx_->topology);
  for (std::size_t n = 0; n < items_.size(); ++n) {
    if (tasks_by_item[n].empty()) {
      continue;
    }
    // One fused call per destination device: the operator charges the
    // whole batch to its first task's device, and a multi-device rank's
    // scratch is spread over the fine patches' devices.
    std::vector<const vgpu::Device*> seen;
    std::vector<CoarsenTask> group;
    for (const CoarsenTask& probe : tasks_by_item[n]) {
      const vgpu::Device* key = probe.dst->transfer_device();
      bool visited = false;
      for (const vgpu::Device* d : seen) {
        visited = visited || d == key;
      }
      if (visited) {
        continue;
      }
      seen.push_back(key);
      group.clear();
      for (const CoarsenTask& t : tasks_by_item[n]) {
        if (t.dst->transfer_device() == key) {
          group.push_back(t);
        }
      }
      fan_out.run(key->ordinal(),
                  [&] { items_[n].op->coarsen_batched(group, ratio); });
    }
  }
}

TransferGeometry CoarsenSchedule::geometry(std::size_t handle) const {
  const Xact& x = xacts_[handle];
  TransferGeometry g;
  g.overlap = &x.overlap;
  g.depth = db_->variable(items_[x.item].var_id).depth;
  // Destination-object id for the engine's write clipping: every
  // contribution targets one (coarse patch, item) datum; node-seam
  // contributions from adjacent fine patches overlap there and must land
  // last-writer-wins in plan order.
  g.dst_slot =
      x.coarse_gid * static_cast<int>(items_.size()) + static_cast<int>(x.item);
  return g;
}

TransferEndpoints CoarsenSchedule::endpoints(std::size_t handle) {
  const Xact& x = xacts_[handle];
  TransferEndpoints ep;
  ep.src = scratch_cache_[handle].get();  // null when the fine source is remote
  if (const auto coarse = coarse_level_->local_patch(x.coarse_gid)) {
    ep.dst = &coarse->data(items_[x.item].var_id);
  }
  return ep;
}

}  // namespace ramr::xfer
