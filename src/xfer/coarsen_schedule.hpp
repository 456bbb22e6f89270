// CoarsenAlgorithm / CoarsenSchedule: level synchronisation. After each
// step the fine solution conservatively replaces the coarse solution in
// covered cells (paper §II): the fine owner runs the data-parallel
// coarsen operator into device scratch, packs it (Fig. 4) and ships it
// to the coarse patch owner, who unpacks directly into the coarse data.
// Execution rides the shared TransferSchedule engine, so one sync sends
// ONE aggregated message per coarse-owner peer covering every (edge,
// variable) contribution.
#pragma once

#include <memory>
#include <vector>

#include "hier/patch_hierarchy.hpp"
#include "xfer/coarsen_operator.hpp"
#include "xfer/parallel_context.hpp"
#include "xfer/transfer_schedule.hpp"

namespace ramr::xfer {

/// One quantity handled by a coarsen schedule.
struct CoarsenItem {
  int var_id = -1;
  std::shared_ptr<CoarsenOperator> op;
  /// Auxiliary source variable for operators with needs_aux() (the fine
  /// density id for mass-weighted energy coarsening); -1 otherwise.
  int aux_var_id = -1;
};

/// Builder for coarsen schedules.
class CoarsenAlgorithm {
 public:
  void add(CoarsenItem item) { items_.push_back(std::move(item)); }
  const std::vector<CoarsenItem>& items() const { return items_; }

  std::unique_ptr<class CoarsenSchedule> create_schedule(
      std::shared_ptr<hier::PatchLevel> coarse_level,
      std::shared_ptr<hier::PatchLevel> fine_level,
      const hier::VariableDatabase& db, ParallelContext& ctx) const;

 private:
  std::vector<CoarsenItem> items_;
};

/// Executable synchronisation plan.
class CoarsenSchedule : private TransferDelegate {
 public:
  /// Restricts fine data onto the coarse level.
  void coarsen_data();

  std::uint64_t bytes_sent_per_sync() const {
    return engine_.bytes_sent_per_exchange();
  }
  std::uint64_t messages_sent_per_sync() const {
    return engine_.messages_sent_per_exchange();
  }
  std::uint64_t messages_received_per_sync() const {
    return engine_.messages_received_per_exchange();
  }

  /// Engine exchange of one sync, for plan-level observability in tests.
  const TransferSchedule& transfer_engine() const { return engine_; }

  /// One (fine patch -> coarse patch, variable) contribution.
  struct Xact {
    int fine_gid;
    int coarse_gid;
    std::size_t item;         ///< index into items_
    mesh::Box coarse_cells;   ///< coarse cell region covered by the fine patch
    pdat::BoxOverlap overlap;
  };

  /// The contributions this rank retained, in plan order (tests).
  const std::vector<Xact>& transactions() const { return xacts_; }

  /// The level objects the plan was built from.
  const std::shared_ptr<hier::PatchLevel>& coarse_level() const {
    return coarse_level_;
  }
  const std::shared_ptr<hier::PatchLevel>& fine_level() const {
    return fine_level_;
  }

 private:
  friend class CoarsenAlgorithm;
  CoarsenSchedule() = default;

  // TransferDelegate (shared engine: geometry at compile, endpoints at
  // execute).
  TransferGeometry geometry(std::size_t handle) const override;
  TransferEndpoints endpoints(std::size_t handle) override;

  /// Runs every locally-sourced transaction's coarsen operator into
  /// per-transaction scratch, batched by item: one fused launch per
  /// (item, component) for the whole sync instead of one launch per
  /// transaction. The engine then packs/copies from scratch_cache_.
  void prepare_scratch();

  std::vector<CoarsenItem> items_;
  std::shared_ptr<hier::PatchLevel> coarse_level_;
  std::shared_ptr<hier::PatchLevel> fine_level_;
  const hier::VariableDatabase* db_ = nullptr;
  ParallelContext* ctx_ = nullptr;
  std::vector<Xact> xacts_;
  TransferSchedule engine_;

  /// Per-transaction coarsened scratch, indexed by handle; alive only
  /// while coarsen_data() runs.
  std::vector<std::unique_ptr<pdat::PatchData>> scratch_cache_;
};

}  // namespace ramr::xfer
