// LagrangianEulerianIntegrator (paper Fig. 6): manages the adaptive
// hierarchy and advances the simulation. One advance() performs the
// CloverLeaf timestep on every level (non-subcycled, as CleverLeaf),
// with halo exchanges between stages, conservative fine-to-coarse
// synchronisation afterwards, and periodic regridding — charging each
// phase to the named clock components the paper's Fig. 11 reports
// (hydro / boundary / timestep / sync / regrid).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "amr/gridding_algorithm.hpp"
#include "app/level_integrator.hpp"
#include "app/reflective_boundary.hpp"
#include "hier/patch_hierarchy.hpp"
#include "xfer/coarsen_schedule.hpp"
#include "xfer/refine_schedule.hpp"

namespace ramr::app {

/// Cumulative transfer-layer traffic of one rank's integration, counted
/// by the aggregated-message engine (diagnostics for the paper's Fig. 10
/// communication analysis: messages shrink to one per peer per fill).
struct TransferCounters {
  std::uint64_t halo_fills = 0;         ///< schedule executions (fill + sync)
  std::uint64_t messages_sent = 0;      ///< aggregated peer messages sent
  std::uint64_t messages_received = 0;  ///< aggregated peer messages received
  std::uint64_t bytes_sent = 0;         ///< wire bytes sent
  /// Fills executed split-phase (begin / overlapped compute / finish) on
  /// the async-overlap path; 0 on the synchronous path.
  std::uint64_t split_fills = 0;
  /// Always 0: the compiled plans are the only transfer path, so no
  /// execute can fall back. Kept because the `transfer.plan_fallbacks`
  /// run metric and the benches that assert it zero still read it.
  std::uint64_t plan_fallbacks = 0;

  /// The per-step fill windows of the integrator, named after the
  /// exchanged quantity. Windows executed more than once per step (the
  /// pressure fill after EOS and after the Lagrangian predictor, the
  /// post-cell fill after each advection sweep) accumulate into one slot.
  enum Window : int {
    kState = 0,   ///< start-of-step state exchange (hidden by EOS)
    kPressure,    ///< pressure fills (hidden by viscosity / acceleration)
    kViscosity,   ///< viscosity fill (hidden by dt + Lagrangian predictor)
    kPreAdvec,    ///< pre-advection fill (hidden by the first cell sweep)
    kPostCell,    ///< post-cell fills (hidden by the momentum sweeps)
    kWindowCount
  };
  static const char* window_name(int w) {
    static constexpr const char* kNames[kWindowCount] = {
        "state", "pressure", "viscosity", "preadvec", "postcell"};
    return kNames[w];
  }

  /// Per-window breakdown: how often each exchange ran, how often it ran
  /// split-phase, how much comm/net-lane work the window issued, and how
  /// much modeled time the timeline attributes to it (the
  /// overlap_seconds_saved delta across it) — which fill windows
  /// actually hide time, not just the step aggregate.
  struct WindowStats {
    std::uint64_t fills = 0;
    std::uint64_t split_fills = 0;
    /// comm+net lane busy seconds issued inside the window (an upper
    /// bound on what the window could hide); 0 without a timeline.
    double comm_seconds = 0.0;
    double overlap_seconds_saved = 0.0;
  };
  std::array<WindowStats, kWindowCount> window{};
};

/// Hierarchy-wide time integration.
class LagrangianEulerianIntegrator {
 public:
  LagrangianEulerianIntegrator(hier::PatchHierarchy& hierarchy,
                               LagrangianEulerianLevelIntegrator& level_integrator,
                               amr::GriddingAlgorithm& gridding,
                               const Fields& fields,
                               xfer::ParallelContext& ctx,
                               ReflectiveBoundary& bc, vgpu::SimClock& clock,
                               int regrid_interval = 10);

  /// Builds the initial hierarchy and the communication schedules.
  void initialize(double time);

  /// One timestep; returns the dt taken.
  double advance();

  double time() const { return time_; }
  int step_count() const { return step_count_; }
  double last_dt() const { return last_dt_; }

  /// Conservation diagnostics over the composite mesh: cells covered by
  /// a finer level are excluded, so totals are physical.
  hydro::FieldSummary composite_summary();

  /// Cumulative aggregated-message traffic since construction.
  const TransferCounters& transfer_counters() const { return xfer_counters_; }

  /// Rebuilds every communication schedule.
  void rebuild_schedules();

  /// The refine schedules of one fill window, one per level, and the
  /// fine-to-coarse sync schedules, finest pair first (tests compare
  /// schedule identities across regrids).
  const std::vector<std::unique_ptr<xfer::RefineSchedule>>& refine_schedules(
      TransferCounters::Window window) const;
  const std::vector<std::unique_ptr<xfer::CoarsenSchedule>>& sync_schedules()
      const {
    return sched_sync_;
  }

  /// Restores the integration state after a checkpoint reload.
  void restore_state(double time, int step_count) {
    time_ = time;
    step_count_ = step_count;
  }

 private:
  /// Builds the communication schedules of the current hierarchy. With
  /// keep_unchanged, a schedule whose level objects are all still in the
  /// hierarchy is kept and only the others are rebuilt (SAMRAI's
  /// resetHierarchyConfiguration over the replaced levels): a regrid
  /// never replaces level 0, so its refine schedules survive it.
  void build_schedules(bool keep_unchanged);

  void fill_all(std::vector<std::unique_ptr<xfer::RefineSchedule>>& scheds,
                TransferCounters::Window window);

  // Split-phase halves of fill_all (async-overlap path): begin starts
  // every level's same-level exchange (and, under wide_overlap, the
  // early half of each coarse gather); finish completes them in level
  // order (so a level's coarse gather still sees the coarser level's
  // finished ghosts) and accounts the traffic.
  void begin_all(std::vector<std::unique_ptr<xfer::RefineSchedule>>& scheds);
  void finish_all(std::vector<std::unique_ptr<xfer::RefineSchedule>>& scheds,
                  TransferCounters::Window window);

  /// Runs the stencil stage of one fill window over every level.
  using StageFn = std::function<void(hydro::SweepPart)>;

  /// One overlapped fill window (wide_overlap): begin the exchange, run
  /// the stage's ghost-free interior sweep on the host lane while the
  /// messages fly, finish the exchange, then run the boundary rind
  /// sweep. Without wide overlap this degrades to the synchronous
  /// fill-then-full-stage pair, unchanged from the single-window
  /// subsystem. Either way the launch inputs match the synchronous
  /// order, so fields are bit-identical (docs/async_overlap.md).
  void fill_window(TransferCounters::Window window,
                   std::vector<std::unique_ptr<xfer::RefineSchedule>>& scheds,
                   const StageFn& stage);

  /// True when the widened overlap window is in effect: timeline
  /// attached, wide_overlap requested, batched route, distributed world.
  bool wide_overlap_active() const;

  /// overlap_seconds_saved of the attached timeline (0 without one).
  double overlap_saved_now() const;

  /// comm+net lane busy seconds of the attached timeline (0 without one).
  double comm_busy_now() const;

  /// Per-device compute cost observed since the previous regrid: the
  /// "gpu<i>" lane busy delta plus the device's current cell count — the
  /// measured inputs of amr::BalanceMethod::kMeasured. Only meaningful
  /// with a multi-device topology in ctx_.
  std::vector<amr::MeasuredDeviceCosts> measure_device_costs();

  hier::PatchHierarchy* hierarchy_;
  LagrangianEulerianLevelIntegrator* li_;
  amr::GriddingAlgorithm* gridding_;
  Fields fields_;
  xfer::ParallelContext* ctx_;
  ReflectiveBoundary* bc_;
  vgpu::SimClock* clock_;
  int regrid_interval_;

  xfer::RefineAlgorithm alg_state_;
  xfer::RefineAlgorithm alg_pressure_;
  xfer::RefineAlgorithm alg_viscosity_;
  xfer::RefineAlgorithm alg_preadvec_;
  xfer::RefineAlgorithm alg_postcell_;
  xfer::CoarsenAlgorithm alg_sync_;

  std::vector<std::unique_ptr<xfer::RefineSchedule>> sched_state_;
  std::vector<std::unique_ptr<xfer::RefineSchedule>> sched_pressure_;
  std::vector<std::unique_ptr<xfer::RefineSchedule>> sched_viscosity_;
  std::vector<std::unique_ptr<xfer::RefineSchedule>> sched_preadvec_;
  std::vector<std::unique_ptr<xfer::RefineSchedule>> sched_postcell_;
  std::vector<std::unique_ptr<xfer::CoarsenSchedule>> sched_sync_;

  double time_ = 0.0;
  double last_dt_ = 0.0;
  int step_count_ = 0;
  TransferCounters xfer_counters_;
  /// Cumulative gpu-lane busy at the last measurement, one per device.
  std::vector<double> gpu_busy_snapshot_;
};

}  // namespace ramr::app
