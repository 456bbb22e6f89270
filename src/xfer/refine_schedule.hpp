// RefineAlgorithm / RefineSchedule: fill patch data (ghost regions, or
// whole new patches during regridding) from three sources, in the order
// the paper describes (§II):
//   (i)   same-level neighbours (copy, or device-pack -> MPI -> unpack
//         when the neighbour lives on another rank, Fig. 4),
//   (ii)  the next coarser level (gather coarse data into a device
//         scratch region, then apply a data-parallel RefineOperator),
//   (iii) physical boundary conditions (application strategy).
//
// The schedule is the precomputed communication plan; executing it moves
// data. Each rank plans, from the replicated level metadata, only the
// destinations it takes part in, found through each level's box tree;
// sender and receiver derive the same transactions in the same order, so
// matching sends/receives need no negotiation. Execution is
// delegated to the shared TransferSchedule engine: planning expands every
// (edge, variable) pair into a Transaction with a precomputed overlap,
// and the schedule implements TransferDelegate — describing each
// transaction's geometry once (the engine compiles fused per-message
// transfer plans from it) and binding endpoint objects each fill().
#pragma once

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "hier/patch_hierarchy.hpp"
#include "xfer/parallel_context.hpp"
#include "xfer/physical_boundary.hpp"
#include "xfer/refine_operator.hpp"
#include "xfer/transfer_schedule.hpp"

namespace ramr::xfer {

/// One quantity handled by a refine schedule.
struct RefineItem {
  int var_id = -1;
  /// Interpolator for coarse->fine fill; when null the variable is only
  /// copied from same-level sources (work arrays, fluxes).
  std::shared_ptr<RefineOperator> op;
};

/// What the schedule fills on each destination patch.
enum class FillMode {
  kGhostsOnly,        ///< halo exchange during time integration
  kInteriorAndGhosts  ///< populating a freshly created level (regrid)
};

/// Builder: register items, then create schedules for levels.
class RefineAlgorithm {
 public:
  void add(RefineItem item) { items_.push_back(std::move(item)); }
  const std::vector<RefineItem>& items() const { return items_; }

  /// Creates a schedule that fills `dst_level` from `src_level` (same
  /// index space; usually dst_level itself, or the old level during
  /// regridding; may be null), from `coarse_level` (next coarser index
  /// space; may be null), and from physical boundary conditions.
  std::unique_ptr<class RefineSchedule> create_schedule(
      std::shared_ptr<hier::PatchLevel> dst_level,
      std::shared_ptr<hier::PatchLevel> src_level,
      std::shared_ptr<hier::PatchLevel> coarse_level,
      const hier::VariableDatabase& db, ParallelContext& ctx,
      PhysicalBoundaryStrategy* bc, FillMode mode) const;

 private:
  std::vector<RefineItem> items_;
};

/// Executable communication plan. Rebuild after any regrid that changes
/// the participating levels (rebuilding also recompiles the engine's
/// fused transfer plans — the plan cache is the schedule's lifetime).
class RefineSchedule : private TransferDelegate {
 public:
  /// Moves the data. May be executed repeatedly (every timestep).
  /// Equivalent to fill_begin() + fill_finish().
  void fill();

  /// Split-phase fill. fill_begin() starts the same-level exchange
  /// (posts receives, fused pack + isend per peer, local ghost copies) —
  /// under a timeline on the comm/network lanes, so its wire time
  /// overlaps whatever the caller runs before fill_finish(). Under
  /// ParallelContext::wide_overlap it also starts the EARLY half of the
  /// coarse gather: the transactions sourced from strictly-interior
  /// coarse data, whose values cannot change before fill_finish() (the
  /// coarse level's own exchange only rewrites its ghost and seam
  /// indices, and the overlapped interior compute sweeps stay off the
  /// boundary shell), so the bulk of the gather's wire time hides too.
  /// Safe to interleave with compute that neither writes the exchanged
  /// variables' interiors nor reads their ghosts — the ghost-free
  /// interior sweeps of the stencil stages (hydro::SweepPart), of which
  /// the EOS stage is the trivial whole-stage case. fill_finish()
  /// completes the same-level exchange and the early gather, runs the
  /// LATE gather (coarse boundary-shell and ghost sources, which need
  /// the coarse level's finished exchange), then interpolation and the
  /// physical boundaries exactly as fill() does. Launch contents are
  /// identical either way, so split and single-phase fills are
  /// bit-identical by construction.
  void fill_begin();
  void fill_finish();

  /// Wire bytes this rank sends per execution (diagnostics / tests).
  std::uint64_t bytes_sent_per_fill() const {
    return same_engine_.bytes_sent_per_exchange() +
           coarse_engine_.bytes_sent_per_exchange() +
           coarse_late_engine_.bytes_sent_per_exchange();
  }

  /// Aggregated messages this rank sends / receives per execution: at
  /// most one per (peer, exchange phase) regardless of how many patch
  /// edges and variables the fill covers.
  std::uint64_t messages_sent_per_fill() const {
    return same_engine_.messages_sent_per_exchange() +
           coarse_engine_.messages_sent_per_exchange() +
           coarse_late_engine_.messages_sent_per_exchange();
  }
  std::uint64_t messages_received_per_fill() const {
    return same_engine_.messages_received_per_exchange() +
           coarse_engine_.messages_received_per_exchange() +
           coarse_late_engine_.messages_received_per_exchange();
  }

  /// The engine exchanges of one fill (same-level; early coarse gather
  /// from strictly-interior sources; late coarse gather from
  /// boundary-shell and ghost sources), for plan-level observability in
  /// tests.
  const TransferSchedule& same_level_engine() const { return same_engine_; }
  const TransferSchedule& coarse_engine() const { return coarse_engine_; }
  const TransferSchedule& coarse_late_engine() const {
    return coarse_late_engine_;
  }

  /// The level objects the plan was built from (null when absent): the
  /// plan stays valid exactly as long as these do.
  const std::shared_ptr<hier::PatchLevel>& dst_level() const {
    return dst_level_;
  }
  const std::shared_ptr<hier::PatchLevel>& src_level() const {
    return src_level_;
  }
  const std::shared_ptr<hier::PatchLevel>& coarse_level() const {
    return coarse_level_;
  }

  /// One planned (edge, variable) movement with its precomputed overlap.
  struct Xact {
    enum class Kind {
      kSameLevel,    ///< source patch -> destination patch, same level
      kCoarseGather  ///< coarse patch -> interpolation scratch region
    };
    Kind kind;
    int src_gid;
    int dst_gid;
    std::size_t item;  ///< index into items_
    std::size_t fill;  ///< index into coarse_fills_ (kCoarseGather only)
    pdat::BoxOverlap overlap;
  };

  /// Scratch region on the coarse level feeding one destination patch.
  struct CoarseFill {
    int dst_gid = -1;
    int dst_owner = -1;
    mesh::Box scratch_cells;        ///< coarse cell box of the scratch
    mesh::BoxList fine_fill_cells;  ///< fine cell regions to interpolate
    /// Pieces of scratch_cells no coarse source covers (stencil fringe
    /// outside the coarse level's patch+ghost union), each paired with
    /// the nearest covered box. fill() clamp-fills them after the gather
    /// so interpolation stencils read defined, locally plausible values
    /// instead of the raw allocation (seed bug: NaN densities after
    /// regrids near coverage corners).
    std::vector<std::pair<mesh::Box, mesh::Box>> uncovered_clamp;
    /// The covered complement (scratch_cells minus the uncovered pieces):
    /// the clamp fill must not overwrite any node/side seam index these
    /// boxes own, however the cell-space pieces adjoin.
    mesh::BoxList covered;
  };

  /// The transactions this rank retained, in plan order, and the coarse
  /// fills their gathers index (plan-level observability in tests).
  const std::vector<Xact>& transactions() const { return xacts_; }
  const std::vector<CoarseFill>& coarse_fills() const { return coarse_fills_; }

 private:
  friend class RefineAlgorithm;
  RefineSchedule() = default;

  // TransferDelegate (shared engine: geometry at compile, endpoints at
  // execute).
  TransferGeometry geometry(std::size_t handle) const override;
  TransferEndpoints endpoints(std::size_t handle) override;

  void allocate_scratch();
  void clamp_fill_uncovered_scratch();
  void interpolate_coarse_fills();
  void execute_physical_boundaries();

  std::vector<RefineItem> items_;
  std::vector<int> var_ids_;
  std::shared_ptr<hier::PatchLevel> dst_level_;
  std::shared_ptr<hier::PatchLevel> src_level_;
  std::shared_ptr<hier::PatchLevel> coarse_level_;
  const hier::VariableDatabase* db_ = nullptr;
  ParallelContext* ctx_ = nullptr;
  PhysicalBoundaryStrategy* bc_ = nullptr;
  FillMode mode_ = FillMode::kGhostsOnly;

  std::vector<Xact> xacts_;
  std::vector<CoarseFill> coarse_fills_;
  TransferSchedule same_engine_;
  /// Early coarse gather: sources strictly inside a coarse patch (at
  /// least one cell off its boundary), whose values are stable between
  /// fill_begin and fill_finish; may therefore start in fill_begin.
  TransferSchedule coarse_engine_;
  /// Late coarse gather: coarse boundary-shell and ghost sources, valid
  /// only after the coarse level's own exchange finished — always
  /// executed whole in fill_finish. Runs after the early engine's
  /// writes, reproducing the pre-split single-engine plan order where
  /// their seam node/side images overlap.
  TransferSchedule coarse_late_engine_;
  /// True while the early coarse engine is in flight (wide_overlap
  /// split fills); scratch is then allocated at begin, not finish.
  bool coarse_in_flight_ = false;

  /// Per-CoarseFill, per-item interpolation scratch; alive only while
  /// fill() runs the coarse exchange.
  std::vector<std::vector<std::unique_ptr<pdat::PatchData>>> scratch_;
};

}  // namespace ramr::xfer
