#include "app/simulation.hpp"

#include <algorithm>
#include <array>

#include "app/problem_registry.hpp"
#include "geom/refine_operators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/logger.hpp"
#include "vgpu/device.hpp"

namespace ramr::app {

namespace {

std::unique_ptr<HydroProblem> make_problem(const SimulationConfig& cfg,
                                           const Fields& fields) {
  if (cfg.scenario != nullptr) {
    return std::make_unique<RegionProblem>(fields, cfg.tag_threshold,
                                           cfg.scenario);
  }
  return ProblemRegistry::instance().create(cfg.problem, fields,
                                            cfg.tag_threshold);
}

}  // namespace

Simulation::Simulation(const SimulationConfig& config,
                       simmpi::Communicator* comm)
    : Simulation(config, comm, nullptr) {}

Simulation::Simulation(const SimulationConfig& config,
                       simmpi::Communicator* comm,
                       vgpu::Device* shared_device,
                       util::FaultPlan* shared_fault_plan)
    : config_(config) {
  if (shared_fault_plan != nullptr) {
    fault_plan_ = shared_fault_plan;
  } else if (config_.faults != nullptr && config_.faults->enabled()) {
    // Per-rank salt: ranks share the seed but draw independent schedules.
    own_fault_plan_ = std::make_unique<util::FaultPlan>(
        *config_.faults,
        static_cast<std::uint64_t>(comm != nullptr ? comm->rank() : 0));
    fault_plan_ = own_fault_plan_.get();
  }
  RAMR_REQUIRE(config_.topology.device_count <= 1 || config_.batched_launch,
               "a multi-device topology requires batched_launch (per-device "
               "stage groups)");
  if (shared_device != nullptr) {
    // Service mode: ride the server's device and clock so K jobs share
    // one modeled accelerator (memory arena included) and one account of
    // modeled time. Named lanes cannot be shared — the server interleaves
    // jobs on the shared clock's single-lane timeline and hides launch
    // overhead through its launch-fusion scope instead.
    RAMR_REQUIRE(!config_.async_overlap,
                 "async_overlap is incompatible with a shared device");
    RAMR_REQUIRE(config_.topology.device_count <= 1,
                 "a multi-device topology is incompatible with a shared "
                 "device");
    device_ = shared_device;
    clock_ = &shared_device->clock();
  } else {
    topology_ = std::make_unique<vgpu::Topology>(config_.topology,
                                                 config_.device, &own_clock_);
    device_ = &topology_->device(0);
    clock_ = &own_clock_;
  }
  if (config_.async_overlap) {
    // Named lanes on the rank clock's timeline: comm kernels, copy
    // engines and wire legs get cursors of their own, and the integrator
    // runs every halo exchange split-phase: the state exchange around
    // EOS, and — with wide_overlap (default) — the remaining exchanges
    // around the interior sweeps of their consumer stages (interior/rind
    // requires the batched launch route).
    clock_->timeline().enable_named_lanes();
    ctx_.wide_overlap = config_.wide_overlap && config_.batched_launch;
  }
  ctx_.comm = comm;
  ctx_.my_rank = comm != nullptr ? comm->rank() : 0;
  ctx_.clock = clock_;
  ctx_.device = device_;
  // The single-device bind path is untouched when ctx_.topology stays
  // null: schedules only consider cross-device plans on a real complex.
  if (topology_ != nullptr && topology_->device_count() > 1) {
    ctx_.topology = topology_.get();
  }
  ctx_.gpu_direct = config_.topology.gpu_direct;
  ctx_.world_size = comm != nullptr ? comm->size() : 1;
  if (comm != nullptr) {
    comm->set_clock(clock_);
    if (fault_plan_ != nullptr) {
      comm->set_fault_plan(fault_plan_);
    }
  }

  const auto make_geometry = [&]() {
    // A throwaway problem instance supplies the physical extents; its
    // field ids are irrelevant for that query.
    std::unique_ptr<HydroProblem> p = make_problem(config_, Fields{});
    return mesh::GridGeometry(
        mesh::Box(0, 0, config_.nx - 1, config_.ny - 1), p->domain_lower(),
        p->domain_upper());
  };

  hierarchy_ = std::make_unique<hier::PatchHierarchy>(
      make_geometry(), config_.max_levels,
      mesh::IntVector(config_.ratio, config_.ratio), ctx_.my_rank,
      ctx_.world_size);
  fields_ = Fields::register_all(hierarchy_->variables(), *device_);
  problem_ = make_problem(config_, fields_);
  bc_ = std::make_unique<ReflectiveBoundary>(fields_);
  const hydro::Physics physics = problem_->physics();
  patch_integrator_ =
      std::make_unique<CudaPatchIntegrator>(*device_, fields_, physics);
  if (config_.batched_launch) {
    level_runner_ = std::make_unique<LevelKernelRunner>(
        *device_, fields_, physics, ctx_.topology);
  }
  level_integrator_ = std::make_unique<LagrangianEulerianLevelIntegrator>(
      *patch_integrator_, level_runner_.get());

  amr::GriddingParams gp;
  gp.cluster.efficiency = config_.cluster_efficiency;
  gp.cluster.min_size = config_.min_patch_size;
  gp.cluster.max_box_cells = config_.max_patch_cells * 16;
  gp.balance.max_patch_cells = config_.max_patch_cells;
  gp.balance.min_size = config_.min_patch_size;
  gp.balance.method = config_.balance_method;
  gp.balance.devices_per_rank =
      topology_ != nullptr ? topology_->device_count() : 1;
  gp.tag_buffer = config_.tag_buffer;

  // Variables moved onto newly created patches during regridding.
  xfer::RefineAlgorithm transfer;
  auto cell_op = std::make_shared<geom::CellConservativeLinearRefine>();
  auto node_op = std::make_shared<geom::NodeLinearRefine>();
  transfer.add(xfer::RefineItem{fields_.density0, cell_op});
  transfer.add(xfer::RefineItem{fields_.energy0, cell_op});
  transfer.add(xfer::RefineItem{fields_.xvel0, node_op});
  transfer.add(xfer::RefineItem{fields_.yvel0, node_op});

  gridding_ = std::make_unique<amr::GriddingAlgorithm>(
      gp, *problem_, std::move(transfer), bc_.get(), ctx_);
  gridding_->set_host_clock(clock_);
  gridding_->set_topology(ctx_.topology);
  integrator_ = std::make_unique<LagrangianEulerianIntegrator>(
      *hierarchy_, *level_integrator_, *gridding_, fields_, ctx_, *bc_,
      *clock_, config_.regrid_interval);

  if (config_.observability != nullptr) {
    const obs::ObservabilityConfig& oc = *config_.observability;
    if (!oc.log_level.empty()) {
      util::Logger::instance().set_level(util::parse_log_level(oc.log_level));
    }
    if (oc.trace) {
      if (clock_->listener() == nullptr) {
        recorder_ = std::make_unique<obs::TraceRecorder>(
            *clock_, static_cast<std::size_t>(oc.trace_capacity));
      } else {
        // One recorder per clock: on a shared device (service mode) the
        // first traced job wins the slot; later ones run untraced.
        RAMR_LOG_WARN("observability.trace: clock already has a listener; "
                      "tracing disabled for this instance");
      }
    }
    if (oc.metrics) {
      metrics_ = std::make_unique<obs::MetricsRegistry>();
    }
  }
}

Simulation::~Simulation() {
  // The communicator outlives this instance (it belongs to the World::run
  // body); never leave it holding a plan that dies with us.
  if (ctx_.comm != nullptr && ctx_.comm->fault_plan() == fault_plan_) {
    ctx_.comm->set_fault_plan(nullptr);
  }
}

void Simulation::initialize() {
  vgpu::ComponentScope scope(*clock_, "regrid");
  vgpu::FaultScope faults(device_, fault_plan_);
  integrator_->initialize(0.0);
  RAMR_LOG_DEBUG("initialized hierarchy: " << hierarchy_->num_levels()
                 << " levels, " << hierarchy_->total_cells() << " cells");
}

double Simulation::step() {
  if (recorder_ != nullptr) {
    recorder_->begin_step(step_count());
  }
  double dt;
  if (fault_plan_ != nullptr) {
    fault_plan_->begin_step(step_count());
    if (fault_plan_->should_inject(util::FaultSite::kStep)) {
      RAMR_FAIL("injected step fault at step " << step_count()
                << " (unhandled exception in job step)");
    }
    // The device consults the plan only while the step runs: on a shared
    // device (service mode) other jobs' launches are never attributed to
    // this job's schedule.
    vgpu::FaultScope faults(device_, fault_plan_);
    dt = integrator_->advance();
  } else {
    dt = integrator_->advance();
  }
  if (metrics_ != nullptr) {
    const int stride = config_.observability->metrics_stride;
    if (stride <= 1 || step_count() % stride == 0) {
      sample_metrics();
    }
  }
  return dt;
}

void Simulation::sample_metrics() {
  obs::MetricsRegistry& m = *metrics_;
  const double prev_modeled = m.empty() ? 0.0 : m.value("ramr_modeled_seconds");
  const std::int64_t prev_steps =
      m.empty() ? 0 : static_cast<std::int64_t>(m.value("ramr_steps_total"));
  m.set("ramr_steps_total", static_cast<std::int64_t>(step_count()));
  m.set("ramr_sim_time", time());
  m.set("ramr_last_dt", last_dt());
  m.set("ramr_modeled_seconds", modeled_seconds());

  const int devices = topology_ != nullptr ? topology_->device_count() : 1;
  std::uint64_t launches = 0;
  double kernel_seconds = 0.0;
  vgpu::TransferLog transfers;
  std::uint64_t arena_peak = 0;
  std::array<std::uint64_t, vgpu::kLaunchTagCount> by_tag{};
  for (int d = 0; d < devices; ++d) {
    vgpu::Device& dev = topology_ != nullptr ? topology_->device(d) : *device_;
    launches += dev.launch_count();
    kernel_seconds += dev.kernel_seconds();
    const vgpu::TransferLog& t = dev.transfers();
    transfers.h2d_bytes += t.h2d_bytes;
    transfers.d2h_bytes += t.d2h_bytes;
    transfers.peer_bytes += t.peer_bytes;
    transfers.gpu_direct_bytes += t.gpu_direct_bytes;
    arena_peak = std::max(arena_peak, dev.peak_bytes_allocated());
    for (int tag = 0; tag < vgpu::kLaunchTagCount; ++tag) {
      by_tag[static_cast<std::size_t>(tag)] +=
          dev.launch_count(static_cast<vgpu::LaunchTag>(tag));
    }
  }
  m.set("ramr_launches_total", launches);
  for (int tag = 0; tag < vgpu::kLaunchTagCount; ++tag) {
    m.set(std::string("ramr_launches_total{tag=\"") +
              obs::launch_tag_label(tag) + "\"}",
          by_tag[static_cast<std::size_t>(tag)]);
  }
  m.set("ramr_kernel_seconds", kernel_seconds);
  m.set("ramr_bytes_total{dir=\"d2h\"}", transfers.d2h_bytes);
  m.set("ramr_bytes_total{dir=\"h2d\"}", transfers.h2d_bytes);
  m.set("ramr_bytes_total{dir=\"peer\"}", transfers.peer_bytes);
  m.set("ramr_bytes_total{dir=\"gpu_direct\"}", transfers.gpu_direct_bytes);
  m.set("ramr_arena_peak_bytes", arena_peak);

  const TransferCounters& tc = integrator_->transfer_counters();
  m.set("ramr_halo_fills_total", tc.halo_fills);
  m.set("ramr_split_fills_total", tc.split_fills);
  m.set("ramr_messages_sent_total", tc.messages_sent);
  m.set("ramr_wire_bytes_total", tc.bytes_sent);
  // One loop per metric family, not one per window: registration order
  // is exposition order, and Prometheus text requires each family's
  // labelled series contiguous under a single TYPE line.
  const auto window_label = [](int w) {
    return std::string("{window=\"") + TransferCounters::window_name(w) +
           "\"}";
  };
  for (int w = 0; w < TransferCounters::kWindowCount; ++w) {
    m.set("ramr_window_fills_total" + window_label(w),
          tc.window[static_cast<std::size_t>(w)].fills);
  }
  for (int w = 0; w < TransferCounters::kWindowCount; ++w) {
    const TransferCounters::WindowStats& ws =
        tc.window[static_cast<std::size_t>(w)];
    m.set("ramr_window_hidden_fraction" + window_label(w),
          ws.comm_seconds > 0.0 ? ws.overlap_seconds_saved / ws.comm_seconds
                                : 0.0);
  }

  const amr::GriddingStats& gs = gridding_->stats();
  m.set("ramr_regrids_total", gs.regrids);
  m.set("ramr_load_imbalance", gs.imbalance_history.empty()
                                   ? 0.0
                                   : gs.imbalance_history.back());

  if (fault_plan_ != nullptr) {
    const vgpu::FaultStats& fs = device_->fault_stats();
    m.set("ramr_faults_total{site=\"launch\"}", fs.launch_faults);
    m.set("ramr_faults_total{site=\"alloc\"}", fs.alloc_faults);
    m.set("ramr_launch_aborts_total", fs.launch_aborts);
  }

  const vgpu::Timeline& tl = clock_->timeline();
  if (tl.named_lanes()) {
    m.set("ramr_overlap_seconds_saved", tl.overlap_seconds_saved());
    m.set("ramr_makespan_seconds", tl.makespan());
  }
  if (recorder_ != nullptr) {
    m.set("ramr_trace_spans", static_cast<std::uint64_t>(recorder_->size()));
    m.set("ramr_trace_dropped_total", recorder_->dropped());
  }
  // With metrics_stride > 1 the delta since the previous sample covers
  // several steps; normalize so the histogram keeps per-step semantics.
  const std::int64_t steps_since =
      std::max<std::int64_t>(1, step_count() - prev_steps);
  m.observe("ramr_step_seconds", (modeled_seconds() - prev_modeled) /
                                     static_cast<double>(steps_since));
  m.sample(step_count());
}

void Simulation::run(int max_steps, double end_time) {
  for (int s = 0; s < max_steps && time() < end_time; ++s) {
    step();
  }
}

}  // namespace ramr::app
