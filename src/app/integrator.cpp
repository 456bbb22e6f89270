#include "app/integrator.hpp"

#include <algorithm>
#include <limits>

#include "geom/coarsen_operators.hpp"
#include "geom/refine_operators.hpp"
#include "vgpu/topology.hpp"

namespace ramr::app {

using xfer::CoarsenItem;
using xfer::FillMode;
using xfer::RefineItem;

LagrangianEulerianIntegrator::LagrangianEulerianIntegrator(
    hier::PatchHierarchy& hierarchy,
    LagrangianEulerianLevelIntegrator& level_integrator,
    amr::GriddingAlgorithm& gridding, const Fields& fields,
    xfer::ParallelContext& ctx, ReflectiveBoundary& bc, vgpu::SimClock& clock,
    int regrid_interval)
    : hierarchy_(&hierarchy),
      li_(&level_integrator),
      gridding_(&gridding),
      fields_(fields),
      ctx_(&ctx),
      bc_(&bc),
      clock_(&clock),
      regrid_interval_(regrid_interval) {
  auto cell_op = std::make_shared<geom::CellConservativeLinearRefine>();
  auto node_op = std::make_shared<geom::NodeLinearRefine>();
  auto side_op = std::make_shared<geom::SideConservativeLinearRefine>();

  // Start-of-step state exchange.
  alg_state_.add(RefineItem{fields_.density0, cell_op});
  alg_state_.add(RefineItem{fields_.energy0, cell_op});
  alg_state_.add(RefineItem{fields_.xvel0, node_op});
  alg_state_.add(RefineItem{fields_.yvel0, node_op});
  // Pressure after each EOS evaluation.
  alg_pressure_.add(RefineItem{fields_.pressure, cell_op});
  // Viscosity before the timestep calculation / acceleration.
  alg_viscosity_.add(RefineItem{fields_.viscosity, cell_op});
  // Before the first advection sweep.
  alg_preadvec_.add(RefineItem{fields_.density1, cell_op});
  alg_preadvec_.add(RefineItem{fields_.energy1, cell_op});
  alg_preadvec_.add(RefineItem{fields_.vol_flux, side_op});
  // Between sweeps (mass fluxes + advanced velocities for advec_mom).
  alg_postcell_.add(RefineItem{fields_.density1, cell_op});
  alg_postcell_.add(RefineItem{fields_.energy1, cell_op});
  alg_postcell_.add(RefineItem{fields_.mass_flux, side_op});
  alg_postcell_.add(RefineItem{fields_.xvel1, node_op});
  alg_postcell_.add(RefineItem{fields_.yvel1, node_op});
  // Fine-to-coarse synchronisation (paper §IV-C: volume-weighted density,
  // mass-weighted energy, node injection for velocities).
  alg_sync_.add(CoarsenItem{fields_.density0,
                            std::make_shared<geom::VolumeWeightedCoarsen>(), -1});
  alg_sync_.add(CoarsenItem{fields_.energy0,
                            std::make_shared<geom::MassWeightedCoarsen>(),
                            fields_.density0});
  alg_sync_.add(CoarsenItem{fields_.xvel0,
                            std::make_shared<geom::NodeInjectionCoarsen>(), -1});
  alg_sync_.add(CoarsenItem{fields_.yvel0,
                            std::make_shared<geom::NodeInjectionCoarsen>(), -1});
}

void LagrangianEulerianIntegrator::initialize(double time) {
  time_ = time;
  gridding_->make_initial_hierarchy(*hierarchy_, time);
  rebuild_schedules();
}

void LagrangianEulerianIntegrator::rebuild_schedules() {
  build_schedules(/*keep_unchanged=*/false);
}

namespace {

/// Moves into `slots` every schedule of `old` that `keeps` accepts for
/// the slot, then frees the rest, so that no replaced plan is alive
/// while its successors are built. Returns the slots left to build.
template <typename Sched, typename Keep>
std::vector<std::size_t> keep_schedules(
    std::vector<std::unique_ptr<Sched>>& old,
    std::vector<std::unique_ptr<Sched>>& slots, const Keep& keeps) {
  std::vector<std::size_t> missing;
  for (std::size_t n = 0; n < slots.size(); ++n) {
    const auto it = std::find_if(old.begin(), old.end(),
                                 [&](const std::unique_ptr<Sched>& s) {
                                   return s != nullptr && keeps(*s, n);
                                 });
    if (it != old.end()) {
      slots[n] = std::move(*it);
    } else {
      missing.push_back(n);
    }
  }
  old.clear();
  return missing;
}

}  // namespace

void LagrangianEulerianIntegrator::build_schedules(bool keep_unchanged) {
  const int levels = hierarchy_->num_levels();
  const auto level = [&](int l) {
    return l >= 0 ? hierarchy_->level_ptr(l) : nullptr;
  };
  const auto build = [&](const xfer::RefineAlgorithm& alg,
                         std::vector<std::unique_ptr<xfer::RefineSchedule>>& out) {
    std::vector<std::unique_ptr<xfer::RefineSchedule>> slots(
        static_cast<std::size_t>(levels));
    const auto missing = keep_schedules(
        out, slots, [&](const xfer::RefineSchedule& s, std::size_t n) {
          const int l = static_cast<int>(n);
          return keep_unchanged && s.dst_level() == level(l) &&
                 s.src_level() == level(l) && s.coarse_level() == level(l - 1);
        });
    for (const std::size_t n : missing) {
      const int l = static_cast<int>(n);
      slots[n] = alg.create_schedule(level(l), level(l), level(l - 1),
                                     hierarchy_->variables(), *ctx_, bc_,
                                     FillMode::kGhostsOnly);
    }
    out = std::move(slots);
  };
  build(alg_state_, sched_state_);
  build(alg_pressure_, sched_pressure_);
  build(alg_viscosity_, sched_viscosity_);
  build(alg_preadvec_, sched_preadvec_);
  build(alg_postcell_, sched_postcell_);

  // Sync pairs (l-1, l), finest first.
  std::vector<std::unique_ptr<xfer::CoarsenSchedule>> slots(
      static_cast<std::size_t>(std::max(levels - 1, 0)));
  const auto fine_of = [&](std::size_t n) {
    return levels - 1 - static_cast<int>(n);
  };
  const auto missing = keep_schedules(
      sched_sync_, slots, [&](const xfer::CoarsenSchedule& s, std::size_t n) {
        return keep_unchanged && s.fine_level() == level(fine_of(n)) &&
               s.coarse_level() == level(fine_of(n) - 1);
      });
  for (const std::size_t n : missing) {
    slots[n] = alg_sync_.create_schedule(level(fine_of(n) - 1),
                                         level(fine_of(n)),
                                         hierarchy_->variables(), *ctx_);
  }
  sched_sync_ = std::move(slots);
}

const std::vector<std::unique_ptr<xfer::RefineSchedule>>&
LagrangianEulerianIntegrator::refine_schedules(
    TransferCounters::Window window) const {
  switch (window) {
    case TransferCounters::kState:
      return sched_state_;
    case TransferCounters::kPressure:
      return sched_pressure_;
    case TransferCounters::kViscosity:
      return sched_viscosity_;
    case TransferCounters::kPreAdvec:
      return sched_preadvec_;
    default:
      return sched_postcell_;
  }
}

void LagrangianEulerianIntegrator::fill_all(
    std::vector<std::unique_ptr<xfer::RefineSchedule>>& scheds,
    TransferCounters::Window window) {
  // Coarse-to-fine: coarse ghosts must be valid before a finer level's
  // coarse-fill gathers from them.
  for (auto& sched : scheds) {
    sched->fill();
    ++xfer_counters_.halo_fills;
    ++xfer_counters_.window[window].fills;
    xfer_counters_.messages_sent += sched->messages_sent_per_fill();
    xfer_counters_.messages_received += sched->messages_received_per_fill();
    xfer_counters_.bytes_sent += sched->bytes_sent_per_fill();
  }
}

void LagrangianEulerianIntegrator::begin_all(
    std::vector<std::unique_ptr<xfer::RefineSchedule>>& scheds) {
  // Every level's same-level exchange starts here: its begin phase only
  // reads that level's interiors and writes that level's ghosts (the
  // wide-overlap early gather reads only the coarser level's
  // strictly-interior data), so the begins are mutually independent and
  // the wire time of all levels' messages is in flight together.
  for (auto& sched : scheds) {
    sched->fill_begin();
  }
}

void LagrangianEulerianIntegrator::finish_all(
    std::vector<std::unique_ptr<xfer::RefineSchedule>>& scheds,
    TransferCounters::Window window) {
  // Finish coarse-to-fine, like fill_all: a level's coarse gather reads
  // the coarser level's ghosts, which its (earlier) finish completed.
  for (auto& sched : scheds) {
    sched->fill_finish();
    ++xfer_counters_.halo_fills;
    ++xfer_counters_.split_fills;
    ++xfer_counters_.window[window].fills;
    ++xfer_counters_.window[window].split_fills;
    xfer_counters_.messages_sent += sched->messages_sent_per_fill();
    xfer_counters_.messages_received += sched->messages_received_per_fill();
    xfer_counters_.bytes_sent += sched->bytes_sent_per_fill();
  }
}

bool LagrangianEulerianIntegrator::wide_overlap_active() const {
  // The stage splits pay a launch/occupancy premium per sub-stage; with
  // no remote peers there is no wire to buy back, so a 1-rank world
  // keeps the single-window shape (local-copy time already hides behind
  // EOS at zero extra cost). Interior/rind parts need the batched route.
  return ctx_->timeline != nullptr && ctx_->wide_overlap && li_->batched() &&
         !ctx_->is_serial();
}

double LagrangianEulerianIntegrator::overlap_saved_now() const {
  return ctx_->timeline != nullptr ? ctx_->timeline->overlap_seconds_saved()
                                   : 0.0;
}

double LagrangianEulerianIntegrator::comm_busy_now() const {
  // Comm kernels + wire legs + the two PCIe copy engines: everything a
  // window's exchange occupies off the host lane.
  vgpu::Timeline* tl = ctx_->timeline;
  if (tl == nullptr) {
    return 0.0;
  }
  return tl->busy(tl->lane("comm")) + tl->busy(tl->lane("net")) +
         tl->busy(tl->lane("d2h")) + tl->busy(tl->lane("h2d"));
}

void LagrangianEulerianIntegrator::fill_window(
    TransferCounters::Window window,
    std::vector<std::unique_ptr<xfer::RefineSchedule>>& scheds,
    const StageFn& stage) {
  static constexpr const char* kWindowAnnotations
      [TransferCounters::kWindowCount] = {"window:state", "window:pressure",
                                          "window:viscosity",
                                          "window:preadvec", "window:postcell"};
  vgpu::AnnotationScope annotation(clock_, kWindowAnnotations[window]);
  const double saved0 = overlap_saved_now();
  const double comm0 = comm_busy_now();
  if (wide_overlap_active()) {
    {
      vgpu::ComponentScope scope(*clock_, "boundary");
      begin_all(scheds);
    }
    {
      // The ghost-free interior sweep runs on the host lane while the
      // exchange's wire legs ride the comm/net lanes.
      vgpu::ComponentScope scope(*clock_, "hydro");
      vgpu::LaunchTagScope launch_tag(ctx_->device, vgpu::LaunchTag::kHydro);
      stage(hydro::SweepPart::kInterior);
    }
    {
      vgpu::ComponentScope scope(*clock_, "boundary");
      finish_all(scheds, window);
    }
    {
      // Boundary rind: the shell cells whose stencils read the ghosts
      // the finish just filled.
      vgpu::ComponentScope scope(*clock_, "hydro");
      vgpu::LaunchTagScope launch_tag(ctx_->device, vgpu::LaunchTag::kRind);
      stage(hydro::SweepPart::kRind);
    }
  } else {
    {
      vgpu::ComponentScope scope(*clock_, "boundary");
      fill_all(scheds, window);
    }
    {
      vgpu::ComponentScope scope(*clock_, "hydro");
      vgpu::LaunchTagScope launch_tag(ctx_->device, vgpu::LaunchTag::kHydro);
      stage(hydro::SweepPart::kAll);
    }
  }
  xfer_counters_.window[window].overlap_seconds_saved +=
      overlap_saved_now() - saved0;
  xfer_counters_.window[window].comm_seconds += comm_busy_now() - comm0;
}

double LagrangianEulerianIntegrator::advance() {
  hier::PatchHierarchy& h = *hierarchy_;
  const int levels = h.num_levels();
  using Window = TransferCounters::Window;

  // --- Boundary + EOS + viscosity + timestep --------------------------
  //
  // With a timeline attached (async-overlap runs) every halo exchange
  // executes split-phase around compute that provably needs no ghosts:
  // the state exchange around the pointwise EOS stage, and — under
  // wide_overlap — each later exchange around the INTERIOR sweep of its
  // consumer stencil stage (hydro::SweepPart), with the boundary rind
  // swept after the exchange finished. The launches and their inputs are
  // identical to the synchronous order (packs happen before any
  // overlapped compute; interior sweeps read no in-flight ghost or seam
  // data; rind sweeps read finished ghosts exactly as a post-fill stage
  // would), so the fields are bit-identical; only the modeled completion
  // time drops (docs/async_overlap.md).
  const bool split_phase = ctx_->timeline != nullptr;
  const bool wide = wide_overlap_active();
  double dt = std::numeric_limits<double>::infinity();
  const auto compute_dt_all = [&]() {
    vgpu::AnnotationScope annotation(clock_, "stage:timestep");
    vgpu::ComponentScope scope(*clock_, "timestep");
    vgpu::LaunchTagScope launch_tag(ctx_->device, vgpu::LaunchTag::kHydro);
    for (int l = 0; l < levels; ++l) {
      dt = std::min(dt, li_->compute_dt(h.level(l)));
    }
    if (ctx_->comm != nullptr) {
      dt = ctx_->comm->allreduce(dt, simmpi::ReduceOp::kMin);
    }
  };
  const auto hydro_stage = [&](vgpu::LaunchTag tag, auto&& body) {
    vgpu::AnnotationScope annotation(clock_, "stage:hydro");
    vgpu::ComponentScope scope(*clock_, "hydro");
    vgpu::LaunchTagScope launch_tag(ctx_->device, tag);
    for (int l = 0; l < levels; ++l) {
      body(h.level(l));
    }
  };
  const auto boundary = [&](auto&& body) {
    vgpu::ComponentScope scope(*clock_, "boundary");
    body();
  };
  if (wide) {
    using hydro::SweepPart;
    // State window: EOS is pointwise, so the whole stage is its own
    // interior and there is no rind — the original single-window shape.
    // (Keeping this window separate from the pressure window measures
    // strictly better than fusing them: the two exchanges' chains share
    // the comm lane and the copy engines, so beginning the second fill
    // early only delays the first one's finish.)
    {
      vgpu::AnnotationScope annotation(clock_, "window:state");
      const double saved0 = overlap_saved_now();
      const double comm0 = comm_busy_now();
      boundary([&] { begin_all(sched_state_); });
      hydro_stage(vgpu::LaunchTag::kHydro,
                  [&](hier::PatchLevel& l) { li_->stage_eos(l); });
      boundary([&] { finish_all(sched_state_, Window::kState); });
      xfer_counters_.window[Window::kState].overlap_seconds_saved +=
          overlap_saved_now() - saved0;
      xfer_counters_.window[Window::kState].comm_seconds +=
          comm_busy_now() - comm0;
    }
    // First pressure window: hidden behind the viscosity interior.
    fill_window(Window::kPressure, sched_pressure_,
                [&](SweepPart part) {
                  for (int l = 0; l < levels; ++l) {
                    li_->stage_viscosity(h.level(l), part);
                  }
                });
    // Viscosity window: neither the timestep reduction (allreduce
    // included) nor the Lagrangian predictor reads any ghost, so the
    // viscosity exchange stays in flight across BOTH and finishes just
    // before the acceleration stage that consumes viscosity ghosts.
    {
      vgpu::AnnotationScope annotation(clock_, "window:viscosity");
      const double saved0 = overlap_saved_now();
      const double comm0 = comm_busy_now();
      boundary([&] { begin_all(sched_viscosity_); });
      compute_dt_all();
      hydro_stage(vgpu::LaunchTag::kHydro, [&](hier::PatchLevel& l) {
        li_->stage_pdv_predict(l, dt);
      });
      boundary([&] { finish_all(sched_viscosity_, Window::kViscosity); });
      xfer_counters_.window[Window::kViscosity].overlap_seconds_saved +=
          overlap_saved_now() - saved0;
      xfer_counters_.window[Window::kViscosity].comm_seconds +=
          comm_busy_now() - comm0;
    }
    // Second pressure window: the whole Lagrangian step's interiors run
    // inside it — acceleration first, then the corrector and flux sweeps,
    // whose velocity reads chain within the acceleration's interior
    // (depths in hydro/kernels.cpp) and which read no in-flight ghost.
    fill_window(Window::kPressure, sched_pressure_,
                [&](SweepPart part) {
                  for (int l = 0; l < levels; ++l) {
                    li_->stage_accelerate(h.level(l), dt, part);
                    li_->stage_pdv_correct(h.level(l), dt, part);
                    li_->stage_flux_calc(h.level(l), dt, part);
                  }
                });
  } else {
    // Single-window (PR-4) and synchronous shapes: only the state
    // exchange splits (around EOS); every other fill precedes its
    // consumer stage whole.
    {
      vgpu::AnnotationScope annotation(clock_, "window:state");
      const double saved0 = overlap_saved_now();
      boundary([&] {
        if (split_phase) {
          begin_all(sched_state_);
        } else {
          fill_all(sched_state_, Window::kState);
        }
      });
      hydro_stage(vgpu::LaunchTag::kHydro,
                  [&](hier::PatchLevel& l) { li_->stage_eos(l); });
      if (split_phase) {
        boundary([&] { finish_all(sched_state_, Window::kState); });
      }
      xfer_counters_.window[Window::kState].overlap_seconds_saved +=
          overlap_saved_now() - saved0;
    }
    boundary([&] { fill_all(sched_pressure_, Window::kPressure); });
    hydro_stage(vgpu::LaunchTag::kHydro,
                [&](hier::PatchLevel& l) { li_->stage_viscosity(l); });
    boundary([&] { fill_all(sched_viscosity_, Window::kViscosity); });
    compute_dt_all();

    // --- Lagrangian step ----------------------------------------------
    hydro_stage(vgpu::LaunchTag::kHydro, [&](hier::PatchLevel& l) {
      li_->stage_pdv_predict(l, dt);
    });
    boundary([&] { fill_all(sched_pressure_, Window::kPressure); });
    hydro_stage(vgpu::LaunchTag::kHydro, [&](hier::PatchLevel& l) {
      li_->stage_accelerate(l, dt);
    });
    hydro_stage(vgpu::LaunchTag::kHydro, [&](hier::PatchLevel& l) {
      li_->stage_pdv_correct(l, dt);
    });
    hydro_stage(vgpu::LaunchTag::kHydro, [&](hier::PatchLevel& l) {
      li_->stage_flux_calc(l, dt);
    });
  }

  // --- Advection (directional split, alternating order) ----------------
  const bool x_first = (step_count_ % 2) == 0;
  fill_window(Window::kPreAdvec, sched_preadvec_,
              [&](hydro::SweepPart part) {
                for (int l = 0; l < levels; ++l) {
                  li_->stage_advec_cell(h.level(l), x_first, 1, part);
                }
              });
  fill_window(Window::kPostCell, sched_postcell_,
              [&](hydro::SweepPart part) {
                for (int l = 0; l < levels; ++l) {
                  li_->stage_advec_mom(h.level(l), x_first, 1, part);
                }
              });
  {
    vgpu::ComponentScope scope(*clock_, "hydro");
    vgpu::LaunchTagScope launch_tag(ctx_->device, vgpu::LaunchTag::kHydro);
    for (int l = 0; l < levels; ++l) {
      li_->stage_advec_cell(h.level(l), !x_first, 2);
    }
  }
  fill_window(Window::kPostCell, sched_postcell_,
              [&](hydro::SweepPart part) {
                for (int l = 0; l < levels; ++l) {
                  li_->stage_advec_mom(h.level(l), !x_first, 2, part);
                }
              });
  {
    vgpu::ComponentScope scope(*clock_, "hydro");
    vgpu::LaunchTagScope launch_tag(ctx_->device, vgpu::LaunchTag::kHydro);
    for (int l = 0; l < levels; ++l) {
      li_->stage_reset(h.level(l));
    }
  }

  // --- Synchronisation: fine solution replaces coarse -------------------
  {
    vgpu::AnnotationScope annotation(clock_, "sync");
    vgpu::ComponentScope scope(*clock_, "sync");
    for (auto& sched : sched_sync_) {
      sched->coarsen_data();
      ++xfer_counters_.halo_fills;
      xfer_counters_.messages_sent += sched->messages_sent_per_sync();
      xfer_counters_.messages_received += sched->messages_received_per_sync();
      xfer_counters_.bytes_sent += sched->bytes_sent_per_sync();
    }
  }

  time_ += dt;
  last_dt_ = dt;
  ++step_count_;

  // --- Regridding -------------------------------------------------------
  if (regrid_interval_ > 0 && (step_count_ % regrid_interval_) == 0 &&
      h.max_levels() > 1) {
    vgpu::AnnotationScope annotation(clock_, "regrid");
    vgpu::ComponentScope scope(*clock_, "regrid");
    // Refresh halos so tagging and solution transfer see current data.
    fill_all(sched_state_, TransferCounters::Window::kState);
    if (ctx_->topology != nullptr) {
      // Feed the observed per-device costs forward: the rebuilt levels'
      // patch-to-device assignment adapts to what the devices actually
      // did since the last regrid (amr::BalanceMethod::kMeasured).
      gridding_->set_measured_costs(measure_device_costs());
    }
    gridding_->regrid(h, time_);
    build_schedules(/*keep_unchanged=*/true);
  }
  return dt;
}

std::vector<amr::MeasuredDeviceCosts>
LagrangianEulerianIntegrator::measure_device_costs() {
  vgpu::Topology* topo = ctx_->topology;
  const int n = topo->device_count();
  std::vector<amr::MeasuredDeviceCosts> costs(
      static_cast<std::size_t>(n));
  gpu_busy_snapshot_.resize(static_cast<std::size_t>(n), 0.0);
  vgpu::Timeline* tl = ctx_->timeline;
  for (int d = 0; d < n; ++d) {
    double busy = 0.0;
    if (tl != nullptr) {
      busy = tl->busy(tl->lane(vgpu::Topology::gpu_lane_name(d)));
    }
    costs[static_cast<std::size_t>(d)].busy_seconds =
        busy - gpu_busy_snapshot_[static_cast<std::size_t>(d)];
    gpu_busy_snapshot_[static_cast<std::size_t>(d)] = busy;
  }
  for (int l = 0; l < hierarchy_->num_levels(); ++l) {
    for (const auto& p : hierarchy_->level(l).local_patches()) {
      const int d = p->device_ordinal();
      if (d >= 0 && d < n) {
        costs[static_cast<std::size_t>(d)].cells += p->box().size();
      }
    }
  }
  return costs;
}

hydro::FieldSummary LagrangianEulerianIntegrator::composite_summary() {
  hydro::FieldSummary total;
  hier::PatchHierarchy& h = *hierarchy_;
  for (int l = 0; l < h.num_levels(); ++l) {
    hier::PatchLevel& level = h.level(l);
    const hydro::CellGeom g = LagrangianEulerianLevelIntegrator::geom_of(level);
    // Cells covered by the finer level don't count (their fine values do).
    mesh::BoxList covered;
    if (h.has_level(l + 1)) {
      for (const mesh::Box& b : h.level(l + 1).boxes().boxes()) {
        covered.push_back(b.coarsen(h.level(l + 1).ratio_to_coarser()));
      }
    }
    for (const auto& patch : level.local_patches()) {
      mesh::BoxList uncovered(patch->box());
      uncovered.remove_intersections(covered);
      for (const mesh::Box& piece : uncovered.boxes()) {
        const hydro::FieldSummary s =
            li_->patch_integrator().field_summary(*patch, g, piece);
        total.mass += s.mass;
        total.internal_energy += s.internal_energy;
        total.kinetic_energy += s.kinetic_energy;
      }
    }
  }
  if (ctx_->comm != nullptr) {
    total.mass = ctx_->comm->allreduce(total.mass, simmpi::ReduceOp::kSum);
    total.internal_energy =
        ctx_->comm->allreduce(total.internal_energy, simmpi::ReduceOp::kSum);
    total.kinetic_energy =
        ctx_->comm->allreduce(total.kinetic_energy, simmpi::ReduceOp::kSum);
  }
  return total;
}

}  // namespace ramr::app
