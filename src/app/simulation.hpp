// CleverLeaf simulation facade: wires the device, fields, problem,
// gridding and integrators together for one rank (paper Fig. 6's
// `main`). Examples, tests and benches drive the library through this
// class; the simulation service (src/svc) drives many instances over
// one shared device.
#pragma once

#include <memory>
#include <string>

#include "amr/gridding_algorithm.hpp"
#include "app/integrator.hpp"
#include "app/level_kernel_runner.hpp"
#include "app/problems.hpp"
#include "obs/observability.hpp"
#include "simmpi/communicator.hpp"
#include "util/fault.hpp"
#include "vgpu/timeline.hpp"

namespace ramr::obs {
class MetricsRegistry;
class TraceRecorder;
}  // namespace ramr::obs

namespace ramr::app {

/// Everything needed to set up a run.
struct SimulationConfig {
  /// Problem name resolved through the ProblemRegistry ("sod",
  /// "triple_point", "sedov", "kelvin_helmholtz", "rayleigh_taylor", or
  /// anything registered at startup).
  std::string problem = "sod";
  /// Inline scenario override: when set, the run uses this spec (through
  /// RegionProblem) instead of looking `problem` up in the registry —
  /// the route JSON configs with a custom `scenario` block take.
  std::shared_ptr<const cfg::ScenarioSpec> scenario;
  int nx = 128;                 ///< level-0 cells in x
  int ny = 128;                 ///< level-0 cells in y
  int max_levels = 3;           ///< paper: 3 levels
  int ratio = 2;                ///< paper: refinement ratio 2
  int regrid_interval = 10;     ///< steps between regrids
  int tag_buffer = 2;
  double tag_threshold = 0.05;
  std::int64_t max_patch_cells = 64 * 64;
  int min_patch_size = 8;
  double cluster_efficiency = 0.75;
  vgpu::DeviceSpec device = vgpu::tesla_k20x();  ///< compute backend
  /// Devices per rank and their peer links (the JSON `topology` block).
  /// device_count == 1 (default) is the paper's single-GPU rank and
  /// changes nothing; > 1 spreads the level's patches over the rank's
  /// devices, runs every stage as one fused launch per device and
  /// compiles cross-device halo copies onto the peer-link lanes
  /// (docs/device_topology.md). Multi-device requires batched_launch;
  /// speedup manifests under async_overlap (the synchronous model sums
  /// charges across lanes).
  vgpu::TopologySpec topology;
  /// Patch-to-rank partitioning (kMorton default, kGreedy ablation,
  /// kMeasured = Morton ranks + measured per-device costs steering the
  /// patch-to-device assignment between regrids).
  amr::BalanceMethod balance_method = amr::BalanceMethod::kMorton;
  /// Fused per-level kernel batching: one launch per kernel sub-stage
  /// per level (default). Off = the per-patch launch structure of the
  /// paper's original code; both produce bit-identical fields.
  bool batched_launch = true;
  /// Async timeline model: attach a vgpu::Timeline to the rank clock and
  /// run the start-of-step state exchange split-phase around the EOS
  /// stage, with send/recv wire legs on the network lane — communication
  /// overlaps compute and the receiver waits on message arrival instead
  /// of re-paying wire time. Fields are bit-identical to the synchronous
  /// path (identical launch contents; only modeled timestamps differ);
  /// step time is then Timeline::makespan(), strictly below the serial
  /// sum when any overlap occurs (docs/async_overlap.md). Off (default)
  /// = the synchronous single-cursor model of the compiled-plan path.
  bool async_overlap = false;
  /// Widened overlap window (effective only with async_overlap and
  /// batched_launch): EVERY per-step halo exchange hides behind compute,
  /// not just the state exchange behind EOS. Each stencil stage splits
  /// into a ghost-free interior sweep that runs while its exchange's
  /// messages fly and a boundary rind sweep after the exchange finishes,
  /// and the strictly-interior half of each coarse gather ships at
  /// begin. Fields stay bit-identical to the synchronous path. False =
  /// the single-window overlap, kept for ablation
  /// (docs/async_overlap.md).
  bool wide_overlap = true;
  /// Deterministic fault injection (util/fault.hpp, the JSON `faults`
  /// block): when set, the simulation owns a seeded FaultPlan consulted
  /// at kernel launches, allocations, message sends, checkpoint writes
  /// and step boundaries. Null (default) = no injection. Shared across
  /// copies of the config; the plan itself is per-instance.
  std::shared_ptr<const util::FaultConfig> faults;
  /// Observability (the JSON `observability` block, docs/
  /// observability.md): span tracing and per-step metric sampling. Null
  /// (default) = fully off — the run is bit-identical (launch counts,
  /// modeled seconds, fields) to one without the subsystem, because
  /// recording only observes the clock, never charges it.
  std::shared_ptr<const obs::ObservabilityConfig> observability;
};

/// One rank's simulation instance.
class Simulation {
 public:
  /// `comm` may be null for a serial run. The per-rank clock accumulates
  /// all modeled time (device + network) by component.
  Simulation(const SimulationConfig& config, simmpi::Communicator* comm);

  /// Multi-job form (svc::SimulationServer): the simulation runs on
  /// `shared_device` and charges ITS clock instead of owning either, so
  /// K concurrent jobs compete for one modeled accelerator (arena
  /// capacity included) and their kernel charges can fuse across jobs
  /// inside the server's launch-fusion scope. Requires the synchronous
  /// timing model (config.async_overlap == false).
  ///
  /// `shared_fault_plan` lets an owner (the recovering server) keep ONE
  /// fault plan alive across restarts of the same job: a fresh Simulation
  /// constructed with the plan of its predecessor continues the fault
  /// schedule instead of replaying it — without this, the deterministic
  /// fault that killed an attempt would re-fire on every retry. Null =
  /// the simulation owns a fresh plan when config.faults is set.
  Simulation(const SimulationConfig& config, simmpi::Communicator* comm,
             vgpu::Device* shared_device,
             util::FaultPlan* shared_fault_plan = nullptr);

  ~Simulation();

  /// Builds the initial hierarchy.
  void initialize();

  /// Advances one step; returns dt.
  double step();

  /// Runs until `max_steps` or `end_time`, whichever first.
  void run(int max_steps, double end_time = 1.0e30);

  double time() const { return integrator_->time(); }
  int step_count() const { return integrator_->step_count(); }
  double last_dt() const { return integrator_->last_dt(); }

  hier::PatchHierarchy& hierarchy() { return *hierarchy_; }
  vgpu::SimClock& clock() { return *clock_; }
  /// Multi-lane timing model (async_overlap runs); null otherwise.
  vgpu::Timeline* timeline() { return timeline_.get(); }
  /// Modeled completion time of this rank, comparable across the two
  /// timing models: the serial clock total (a pure busy sum) on the
  /// synchronous path, and the timeline's comparable_seconds() (lane
  /// makespan minus cross-rank imbalance idle, which the serial account
  /// never contained) under async_overlap. Timeline::makespan() stays
  /// available for the wait-inclusive completion time.
  double modeled_seconds() const {
    return timeline_ != nullptr ? timeline_->comparable_seconds()
                                : clock_->total();
  }
  vgpu::Device& device() { return *device_; }
  /// The rank's device complex; null on shared-device (service) runs.
  vgpu::Topology* topology() { return topology_.get(); }
  const Fields& fields() const { return fields_; }
  const SimulationConfig& config() const { return config_; }
  HydroProblem& problem() { return *problem_; }
  LagrangianEulerianIntegrator& integrator() { return *integrator_; }
  xfer::ParallelContext& context() { return ctx_; }
  /// Refinement activity (tags collected, regrids fired, levels built).
  const amr::GriddingStats& gridding_stats() const {
    return gridding_->stats();
  }

  hydro::FieldSummary composite_summary() {
    return integrator_->composite_summary();
  }

  /// Live fault plan (owned or shared); null when injection is off.
  util::FaultPlan* fault_plan() const { return fault_plan_; }

  /// Span recorder attached to this rank's clock; null unless
  /// config.observability->trace is on (docs/observability.md).
  obs::TraceRecorder* trace_recorder() { return recorder_.get(); }
  /// Per-step metric samples; null unless config.observability->metrics.
  obs::MetricsRegistry* metrics_registry() { return metrics_.get(); }

  /// Writes the full state (hierarchy structure, all fields, time) to
  /// `path` + ".rank<r>" (Fig. 2's putToRestart applied to every patch
  /// datum; device data crosses PCIe once, charged and logged).
  void save_checkpoint(const std::string& path);

  /// Rebuilds the hierarchy and reloads all data from a checkpoint
  /// written by a run with the same configuration and world size. Call
  /// instead of initialize().
  void restore_checkpoint(const std::string& path);

 private:
  /// Snapshots every registered metric for the step just completed.
  void sample_metrics();

  SimulationConfig config_;
  /// Owned when config_.faults is set and no shared plan was injected.
  std::unique_ptr<util::FaultPlan> own_fault_plan_;
  util::FaultPlan* fault_plan_ = nullptr;
  /// Rank clock when this instance owns its device; unused (and empty)
  /// when a shared device injects its own clock.
  vgpu::SimClock own_clock_;
  vgpu::SimClock* clock_;
  /// Attached to the clock when async_overlap is on (declared after the
  /// owned clock: detaches before it dies).
  std::unique_ptr<vgpu::Timeline> timeline_;
  /// Observability (config.observability): the recorder attaches to the
  /// clock as its ChargeListener (declared after the owned clock so it
  /// detaches first, like the timeline).
  std::unique_ptr<obs::TraceRecorder> recorder_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  /// Owns this rank's devices (even when device_count == 1) unless a
  /// shared device was injected; device_ then aliases ordinal 0.
  std::unique_ptr<vgpu::Topology> topology_;
  vgpu::Device* device_;
  xfer::ParallelContext ctx_;
  std::unique_ptr<hier::PatchHierarchy> hierarchy_;
  Fields fields_;
  std::unique_ptr<HydroProblem> problem_;
  std::unique_ptr<ReflectiveBoundary> bc_;
  std::unique_ptr<CudaPatchIntegrator> patch_integrator_;
  std::unique_ptr<LevelKernelRunner> level_runner_;
  std::unique_ptr<LagrangianEulerianLevelIntegrator> level_integrator_;
  std::unique_ptr<amr::GriddingAlgorithm> gridding_;
  std::unique_ptr<LagrangianEulerianIntegrator> integrator_;
};

}  // namespace ramr::app
