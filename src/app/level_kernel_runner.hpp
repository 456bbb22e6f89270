// Batched per-level kernel driver: gathers every local patch's views and
// geometry once per stage and issues ONE fused launch per kernel
// sub-stage per level (vgpu::Device::launch_batched), instead of the
// per-patch launches of PatchIntegrator. A level with P patches pays one
// launch overhead per sub-stage and an occupancy ramp computed from the
// level's total thread count — the batched-launch approach of GPU AMR
// frameworks (GAMER, Uintah) applied to the paper's resident step.
// Results are bit-identical to the per-patch path: both routes share the
// kernel bodies in hydro/kernels.cpp.
#pragma once

#include <algorithm>
#include <vector>

#include "app/fields.hpp"
#include "hier/patch_level.hpp"
#include "hydro/kernels.hpp"
#include "vgpu/topology.hpp"

namespace ramr::app {

/// Fused per-level forms of the CloverLeaf timestep stages.
class LevelKernelRunner {
 public:
  /// `physics` carries the scenario's EOS gamma and gravity; the default
  /// keeps the historical arithmetic bit-identical. With a multi-device
  /// `topology`, every stage issues one fused launch per device over
  /// that device's patches (grouped by the data's actual residency), on
  /// the device's "gpu<i>" timeline lane — devices compute their groups
  /// concurrently and the stage completes at the slowest device's join.
  LevelKernelRunner(vgpu::Device& device, const Fields& fields,
                    const hydro::Physics& physics = {},
                    vgpu::Topology* topology = nullptr)
      : device_(&device), stream_(device, "hydro"), f_(fields),
        phys_(physics), topology_(topology) {}

  /// Minimum stable dt over the level: one fused reduction and ONE
  /// scalar D2H readback per level (was one of each per patch).
  double compute_dt(hier::PatchLevel& level, const hydro::CellGeom& g);

  /// Every stage can sweep the full level (kAll), only the patch
  /// interiors (kInterior — safe while a halo exchange is in flight), or
  /// the complementary boundary rind (kRind — run after the exchange
  /// finished); see hydro::SweepPart.
  void ideal_gas(hier::PatchLevel& level, const hydro::CellGeom& g,
                 bool predict, hydro::SweepPart part = hydro::SweepPart::kAll);
  void viscosity(hier::PatchLevel& level, const hydro::CellGeom& g,
                 hydro::SweepPart part = hydro::SweepPart::kAll);
  void pdv(hier::PatchLevel& level, const hydro::CellGeom& g, double dt,
           bool predict, hydro::SweepPart part = hydro::SweepPart::kAll);
  void accelerate(hier::PatchLevel& level, const hydro::CellGeom& g, double dt,
                  hydro::SweepPart part = hydro::SweepPart::kAll);
  void flux_calc(hier::PatchLevel& level, const hydro::CellGeom& g, double dt,
                 hydro::SweepPart part = hydro::SweepPart::kAll);
  void advec_cell(hier::PatchLevel& level, const hydro::CellGeom& g,
                  bool x_direction, int sweep_number,
                  hydro::SweepPart part = hydro::SweepPart::kAll);
  void advec_mom(hier::PatchLevel& level, const hydro::CellGeom& g,
                 bool x_direction, int sweep_number, bool x_velocity,
                 hydro::SweepPart part = hydro::SweepPart::kAll);
  /// Both velocity components of one momentum sweep in six fused
  /// launches instead of twelve: the component-independent volumes /
  /// node fluxes / node masses run ONCE (the per-component route
  /// recomputes them bit-identically), and the per-component momentum
  /// flux + velocity update fuse both components into one launch each
  /// (each component writes its own vel1 and mom_flux plane, so the
  /// fusion is race-free).
  void advec_mom_both(hier::PatchLevel& level, const hydro::CellGeom& g,
                      bool x_direction, int sweep_number,
                      hydro::SweepPart part = hydro::SweepPart::kAll);
  void reset_field(hier::PatchLevel& level, const hydro::CellGeom& g,
                   hydro::SweepPart part = hydro::SweepPart::kAll);

 private:
  util::View view(hier::Patch& p, int id, int comp = 0, int plane = 0) const;

  /// Calls `fn(device, stream, patches, boxes)` once per device group of
  /// the level's local patches. Single-device (or no topology): one call
  /// on the runner's own device and stream — the legacy fused launch,
  /// unchanged. Multi-device: groups by each patch's device ordinal; each
  /// group's "gpu<i>" lane forks from the caller's cursor (the host
  /// issues a stage only after the previous one joined) and the stage
  /// joins back at the slowest group's completion.
  template <typename Fn>
  void for_groups(hier::PatchLevel& level, Fn&& fn) {
    if (topology_ == nullptr || topology_->device_count() <= 1) {
      std::vector<hier::Patch*> patches;
      std::vector<mesh::Box> boxes;
      patches.reserve(level.local_patches().size());
      boxes.reserve(level.local_patches().size());
      for (const auto& p : level.local_patches()) {
        patches.push_back(p.get());
        boxes.push_back(p->box());
      }
      fn(*device_, stream_, patches, boxes);
      return;
    }
    vgpu::Timeline& tl = device_->timeline();
    double join = 0.0;
    for (int d = 0; d < topology_->device_count(); ++d) {
      std::vector<hier::Patch*> patches;
      std::vector<mesh::Box> boxes;
      for (const auto& p : level.local_patches()) {
        if (p->device_ordinal() == d) {
          patches.push_back(p.get());
          boxes.push_back(p->box());
        }
      }
      if (patches.empty()) {
        continue;
      }
      vgpu::Device& dev = topology_->device(d);
      vgpu::Stream stream(dev, "hydro");
      const int lane = tl.lane(vgpu::Topology::gpu_lane_name(d));
      tl.advance(lane, tl.now(tl.active_lane()));
      stream.bind_lane(lane);
      fn(dev, stream, patches, boxes);
      vgpu::Event done;
      done.record(stream);
      join = std::max(join, done.timestamp());
    }
    tl.advance(tl.active_lane(), join);
  }

  vgpu::Device* device_;
  vgpu::Stream stream_;
  Fields f_;
  hydro::Physics phys_;
  vgpu::Topology* topology_ = nullptr;
};

}  // namespace ramr::app
