#include "app/reflective_boundary.hpp"

#include <initializer_list>

#include "pdat/cuda/cuda_data.hpp"
#include "util/error.hpp"
#include "vgpu/launch_batch.hpp"

namespace ramr::app {

using mesh::Box;
using mesh::Centering;
using pdat::cuda::CudaArrayData;
using pdat::cuda::CudaData;

ReflectiveBoundary::ReflectiveBoundary(const Fields& f) {
  const auto set = [&](std::initializer_list<int> ids,
                       const std::vector<Parity>& per_component) {
    for (int id : ids) {
      parity_[id] = per_component;
    }
  };
  const Parity sym{1.0, 1.0};
  set({f.density0, f.density1, f.energy0, f.energy1, f.pressure, f.viscosity,
       f.soundspeed, f.pre_vol, f.post_vol},
      {sym});
  set({f.xvel0, f.xvel1}, {Parity{-1.0, 1.0}});
  set({f.yvel0, f.yvel1}, {Parity{1.0, -1.0}});
  // Side data: x-face component flips across x, y-face across y.
  set({f.vol_flux, f.mass_flux, f.ener_flux},
      {Parity{-1.0, 1.0}, Parity{1.0, -1.0}});
  set({f.node_flux, f.node_mass_post, f.node_mass_pre, f.mom_flux}, {sym});
}

namespace {

/// One ghost strip of one component plane, mirrored across a domain
/// edge: ghost row (or column) `boundary + dir*k` takes
/// `parity * a(boundary - dir*(k - cell_shift))` for k = 1..ghosts.
/// `dir` is -1 on a low edge and +1 on a high one. Node-like index spaces
/// (nodes, normal faces) have an entry ON the boundary plane and mirror
/// around it (cell_shift 0, `boundary` = the plane index); cell-like ones
/// mirror around the face between the first/last cell and its ghost
/// (cell_shift 1, `boundary` = the first/last cell).
struct Mirror {
  util::View v;
  int boundary = 0;
  int dir = 1;
  int cell_shift = 0;
  double parity = 1.0;

  int ghost(int k) const { return boundary + dir * k; }
  int source(int k) const { return boundary - dir * (k - cell_shift); }
};

/// True when the component index space has an entry on the boundary
/// plane normal to `axis`.
bool is_node_like(Centering comp, int axis) {
  switch (comp) {
    case Centering::kNode:
      return true;
    case Centering::kXSide:
      return axis == 0;
    case Centering::kYSide:
      return axis == 1;
    default:
      return false;
  }
}

}  // namespace

void ReflectiveBoundary::fill_physical_boundaries(
    std::span<hier::Patch* const> patches, const Box& domain,
    const std::vector<int>& var_ids) {
  // Every mirror strip of the level goes into one of two fused launches,
  // in CloverLeaf's two-pass order: bottom/top strips over the full
  // width first, then left/right strips over the full height — the
  // second pass mirrors corner ghosts from columns the first pass made
  // valid. Within a pass each strip writes only its own ghost rows (or
  // columns) of its own plane and reads only rows that are not ghosts of
  // the same pass, so strips are independent and the fused launches give
  // the per-strip results bit for bit.
  std::vector<Mirror> mirrors;
  vgpu::SegmentTable bottom_top;  // body(arg, i, k)
  vgpu::SegmentTable left_right;  // body(arg, k, j)
  vgpu::Device* dev = nullptr;
  for (hier::Patch* patch : patches) {
    const Box& pbox = patch->box();
    const bool at_lo[2] = {pbox.lower().i == domain.lower().i,
                           pbox.lower().j == domain.lower().j};
    const bool at_hi[2] = {pbox.upper().i == domain.upper().i,
                           pbox.upper().j == domain.upper().j};
    if (!(at_lo[0] || at_hi[0] || at_lo[1] || at_hi[1])) {
      continue;
    }
    for (int id : var_ids) {
      const auto it = parity_.find(id);
      RAMR_REQUIRE(it != parity_.end(),
                   "no parity registered for variable " << id);
      auto& data = patch->typed_data<CudaData>(id);
      RAMR_REQUIRE(dev == nullptr || dev == &data.device(),
                   "reflective BC patches must share one device");
      dev = &data.device();
      const int g = data.ghost_cell_width().i;
      if (g <= 0) {
        continue;
      }
      for (int axis : {0, 1}) {
        // A patch touching both edges of an axis must be at least the
        // ghost width thick there, or one edge's strip would read the
        // other's ghosts within the same pass.
        RAMR_REQUIRE(!(at_lo[axis] && at_hi[axis]) ||
                         (axis == 0 ? pbox.width() : pbox.height()) >= g,
                     "patch " << pbox << " spans the domain along axis "
                              << axis << " but is thinner than " << g
                              << " ghosts");
      }
      for (int k = 0; k < data.components(); ++k) {
        const Centering comp = mesh::component_centering(data.centering(), k);
        CudaArrayData& array = data.component(k);
        const Parity par = it->second[static_cast<std::size_t>(k)];
        const Box ib = array.index_box();
        const Box cdomain = mesh::to_centering(domain, comp);
        for (int axis : {1, 0}) {
          const bool nl = is_node_like(comp, axis);
          const double parity = axis == 0 ? par.across_x : par.across_y;
          for (int dir : {-1, 1}) {
            if (!(dir < 0 ? at_lo[axis] : at_hi[axis])) {
              continue;
            }
            const int b = dir < 0 ? domain.lower()[axis]
                                  : (nl ? cdomain : domain).upper()[axis];
            const std::size_t arg = mirrors.size();
            mirrors.push_back(
                Mirror{array.device_view(), b, dir, nl ? 0 : 1, parity});
            if (axis == 1) {
              bottom_top.add(ib.lower().i, 1, ib.width(), g, arg);
            } else {
              left_right.add(1, ib.lower().j, g, ib.height(), arg);
            }
          }
        }
      }
    }
  }
  if (dev == nullptr) {
    return;
  }
  vgpu::Stream stream(*dev, "bc");
  const vgpu::KernelCost cost{1.0, 16.0};
  const Mirror* m = mirrors.data();
  dev->launch_batched(stream, bottom_top, cost,
                      [m](std::size_t s, int i, int k) {
                        const Mirror& r = m[s];
                        const int gj = r.ghost(k);
                        const int sj = r.source(k);
                        if (r.v.contains(i, gj) && r.v.contains(i, sj)) {
                          r.v(i, gj) = r.parity * r.v(i, sj);
                        }
                      });
  dev->launch_batched(stream, left_right, cost,
                      [m](std::size_t s, int k, int j) {
                        const Mirror& r = m[s];
                        const int gi = r.ghost(k);
                        const int si = r.source(k);
                        if (r.v.contains(gi, j) && r.v.contains(si, j)) {
                          r.v(gi, j) = r.parity * r.v(si, j);
                        }
                      });
}

}  // namespace ramr::app
