#include "app/problems.hpp"

#include <cmath>
#include <vector>

#include "hydro/kernels.hpp"
#include "pdat/cuda/cuda_data.hpp"
#include "vgpu/launch_batch.hpp"

namespace ramr::app {

using mesh::Box;
using pdat::cuda::CudaData;

void HydroProblem::initialize_level_data(hier::Patch& patch,
                                         const hier::PatchLevel& level,
                                         const mesh::GridGeometry& geometry,
                                         double /*time*/) {
  auto& density0 = patch.typed_data<CudaData>(fields_.density0);
  vgpu::Device& dev = density0.device();
  vgpu::Stream stream(dev, "init");

  const auto dx = level.dx();
  const auto xlo = geometry.x_lo();
  const InitialState state = initial_state();
  const double gamma = physics().gamma;

  // Cell-centred state over the full ghost box (analytic continuation
  // outside the domain is harmless: boundary conditions overwrite it on
  // the first halo fill).
  const Box cells = density0.component(0).index_box();
  util::View rho0 = density0.device_view();
  util::View rho1 = patch.typed_data<CudaData>(fields_.density1).device_view();
  util::View e0 = patch.typed_data<CudaData>(fields_.energy0).device_view();
  util::View e1 = patch.typed_data<CudaData>(fields_.energy1).device_view();
  util::View p = patch.typed_data<CudaData>(fields_.pressure).device_view();
  util::View ss = patch.typed_data<CudaData>(fields_.soundspeed).device_view();
  dev.launch2d(
      stream, cells.lower().i, cells.lower().j, cells.width(), cells.height(),
      vgpu::KernelCost{20.0, 6.0 * 8.0}, [=](int i, int j) {
        const double x = xlo[0] + (i + 0.5) * dx[0];
        const double y = xlo[1] + (j + 0.5) * dx[1];
        const auto [rho, e] = state(x, y);
        rho0(i, j) = rho;
        rho1(i, j) = rho;
        e0(i, j) = e;
        e1(i, j) = e;
        const double pressure = (gamma - 1.0) * rho * e;
        p(i, j) = pressure;
        ss(i, j) = std::sqrt(gamma * pressure / rho);
      });

  // Velocities and work arrays start at rest / zero, node masses at one
  // (advec_mom divides by them before the first real step). Viscosity is
  // in the list too: it is recomputed from pressure gradients each step,
  // but the timestep and acceleration kernels read its ghost cells, which
  // on a freshly created patch would otherwise be raw allocations. Every
  // plane of every array is its own segment of ONE fused fill launch.
  struct PlaneFill {
    util::View v;
    double value;
  };
  std::vector<PlaneFill> fills;
  vgpu::SegmentTable planes;
  for (int id : {fields_.viscosity,
                 fields_.xvel0, fields_.xvel1, fields_.yvel0, fields_.yvel1,
                 fields_.vol_flux, fields_.mass_flux, fields_.pre_vol,
                 fields_.post_vol, fields_.ener_flux, fields_.node_flux,
                 fields_.node_mass_post, fields_.node_mass_pre,
                 fields_.mom_flux}) {
    const double value =
        id == fields_.node_mass_post || id == fields_.node_mass_pre ? 1.0
                                                                    : 0.0;
    auto& data = patch.typed_data<CudaData>(id);
    for (int k = 0; k < data.components(); ++k) {
      const auto& array = data.component(k);
      const Box ib = array.index_box();
      for (int d = 0; d < array.depth(); ++d) {
        planes.add(ib.lower().i, ib.lower().j, ib.width(), ib.height(),
                   fills.size());
        fills.push_back(PlaneFill{array.device_view(d), value});
      }
    }
  }
  const PlaneFill* pf = fills.data();
  dev.launch_batched(stream, planes, vgpu::KernelCost{0.0, 8.0},
                     [pf](std::size_t s, int i, int j) {
                       pf[s].v(i, j) = pf[s].value;
                     });

  // Scenarios with bulk motion (Kelvin-Helmholtz shear layers) overwrite
  // the at-rest velocities analytically at node coordinates, full ghost
  // box included. Problems returning null keep the zero-fill above
  // untouched — the exact historical initialization.
  if (const InitialVelocity vel = initial_velocity()) {
    auto& xvel0 = patch.typed_data<CudaData>(fields_.xvel0);
    const Box nodes = xvel0.component(0).index_box();
    util::View xv0 = xvel0.device_view();
    util::View xv1 = patch.typed_data<CudaData>(fields_.xvel1).device_view();
    util::View yv0 = patch.typed_data<CudaData>(fields_.yvel0).device_view();
    util::View yv1 = patch.typed_data<CudaData>(fields_.yvel1).device_view();
    dev.launch2d(
        stream, nodes.lower().i, nodes.lower().j, nodes.width(),
        nodes.height(), vgpu::KernelCost{10.0, 4.0 * 8.0}, [=](int i, int j) {
          const double x = xlo[0] + i * dx[0];
          const double y = xlo[1] + j * dx[1];
          const auto [u, v] = vel(x, y);
          xv0(i, j) = u;
          xv1(i, j) = u;
          yv0(i, j) = v;
          yv1(i, j) = v;
        });
  }
}

void HydroProblem::tag_cells(const hier::PatchLevel& level,
                             const mesh::GridGeometry&, amr::LevelTagData& tags,
                             double /*time*/) {
  const double threshold = tag_threshold_;
  for (amr::LevelTagData::DeviceGroup& g : tags.groups()) {
    std::vector<util::View> rho;
    std::vector<util::View> e;
    for (const std::size_t p : g.patches) {
      hier::Patch& patch = *level.local_patches()[p];
      rho.push_back(patch.typed_data<CudaData>(fields_.density0).device_view());
      e.push_back(patch.typed_data<CudaData>(fields_.energy0).device_view());
    }
    vgpu::Stream stream(*g.device, "tag");
    g.device->launch_batched(
        stream, g.cells, vgpu::KernelCost{16.0, 10.0 * 8.0 + 4.0},
        [&](std::size_t s, int i, int j) {
          const util::View& r = rho[s];
          const util::View& en = e[s];
          const double drho =
              (std::fabs(r(i + 1, j) - r(i - 1, j)) +
               std::fabs(r(i, j + 1) - r(i, j - 1))) /
              (2.0 * std::fabs(r(i, j)) + 1.0e-100);
          const double de = (std::fabs(en(i + 1, j) - en(i - 1, j)) +
                             std::fabs(en(i, j + 1) - en(i, j - 1))) /
                            (2.0 * std::fabs(en(i, j)) + 1.0e-100);
          g.views[s](i, j) = (drho > threshold || de > threshold) ? 1 : 0;
        });
  }
}

InitialState SodProblem::initial_state() const {
  return [](double x, double /*y*/) -> std::array<double, 2> {
    if (x < 0.5) {
      return {1.0, 2.5};  // rho = 1,     p = 1   -> e = 2.5
    }
    return {0.125, 2.0};  // rho = 0.125, p = 0.1 -> e = 2.0
  };
}

InitialState TriplePointProblem::initial_state() const {
  return [](double x, double y) -> std::array<double, 2> {
    if (x < 1.0) {
      return {1.0, 2.5};  // driver: rho = 1, p = 1
    }
    if (y < 1.5) {
      return {1.0, 0.25};  // dense low-pressure region: rho = 1, p = 0.1
    }
    return {0.125, 2.0};  // light low-pressure region: rho = 0.125, p = 0.1
  };
}

InitialState RegionProblem::initial_state() const {
  // The shared_ptr rides in the lambda: the state function stays valid
  // past the problem object (gridding holds it across regrids).
  std::shared_ptr<const cfg::ScenarioSpec> spec = spec_;
  return [spec](double x, double y) -> std::array<double, 2> {
    const cfg::FluidState s = spec->sample(x, y);
    return {s.density, s.energy};
  };
}

InitialVelocity RegionProblem::initial_velocity() const {
  if (!spec_->has_velocity()) {
    return nullptr;
  }
  std::shared_ptr<const cfg::ScenarioSpec> spec = spec_;
  return [spec](double x, double y) -> std::array<double, 2> {
    const cfg::FluidState s = spec->sample(x, y);
    return {s.xvel, s.yvel};
  };
}

}  // namespace ramr::app
