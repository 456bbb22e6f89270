// Application-layer unit tests: the field registry, reflective boundary
// parities (CloverLeaf's free-slip walls) and their level-wide fused
// fill, the fused level initialization, the black-box patch integrator
// dispatch, and the VTK writer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "app/fields.hpp"
#include "app/problem_registry.hpp"
#include "app/reflective_boundary.hpp"
#include "app/simulation.hpp"
#include "app/vtk_writer.hpp"
#include "pdat/cuda/cuda_data.hpp"

namespace ramr::app {
namespace {

using mesh::Box;
using mesh::Centering;
using mesh::IntVector;
using pdat::cuda::CudaData;

TEST(Fields, RegistersTwentyVariablesWithGhostWidthTwo) {
  vgpu::Device dev(vgpu::tesla_k20x());
  hier::VariableDatabase db;
  const Fields f = Fields::register_all(db, dev);
  EXPECT_EQ(db.count(), 20);
  EXPECT_EQ(db.variable(f.density0).centering, Centering::kCell);
  EXPECT_EQ(db.variable(f.xvel0).centering, Centering::kNode);
  EXPECT_EQ(db.variable(f.vol_flux).centering, Centering::kSide);
  for (int id = 0; id < db.count(); ++id) {
    EXPECT_EQ(db.variable(id).ghosts, IntVector(2, 2));
  }
  EXPECT_EQ(db.id("density0"), f.density0);
  EXPECT_EQ(db.id("mass_flux"), f.mass_flux);
}

class BoundaryTest : public ::testing::Test {
 protected:
  BoundaryTest() : fields_(Fields::register_all(db_, dev_)), bc_(fields_) {}

  /// A patch covering the whole (tiny) domain so all 4 walls are
  /// physical.
  std::unique_ptr<hier::Patch> make_patch() {
    auto patch = std::make_unique<hier::Patch>(domain_, 0, 0, 0);
    patch->allocate(db_);
    return patch;
  }

  void fill(hier::Patch& p, int id, int comp,
            const std::function<double(int, int)>& f) {
    auto& cd = p.typed_data<CudaData>(id);
    const Box ib = cd.component(comp).index_box();
    std::vector<double> plane;
    for (int j = ib.lower().j; j <= ib.upper().j; ++j) {
      for (int i = ib.lower().i; i <= ib.upper().i; ++i) {
        plane.push_back(f(i, j));
      }
    }
    cd.component(comp).upload_plane(plane);
  }

  /// Fills the physical boundaries of the single patch `p`.
  void apply(hier::Patch& p, const Box& domain, const std::vector<int>& ids) {
    hier::Patch* one = &p;
    bc_.fill_physical_boundaries({&one, 1}, domain, ids);
  }

  double at(hier::Patch& p, int id, int comp, int i, int j) {
    auto& cd = p.typed_data<CudaData>(id);
    const Box ib = cd.component(comp).index_box();
    const auto plane = cd.component(comp).download_plane();
    return plane[static_cast<std::size_t>((j - ib.lower().j) * ib.width() +
                                          (i - ib.lower().i))];
  }

  vgpu::Device dev_{vgpu::tesla_k20x()};
  hier::VariableDatabase db_;
  Fields fields_;
  ReflectiveBoundary bc_;
  Box domain_{0, 0, 7, 7};
};

TEST_F(BoundaryTest, CellFieldsMirrorSymmetrically) {
  auto patch = make_patch();
  fill(*patch, fields_.density0, 0, [](int i, int j) {
    return 1.0 + i + 100.0 * j;
  });
  apply(*patch, domain_, {fields_.density0});
  // x-lo: ghost cell -1 mirrors interior cell 0; -2 mirrors 1.
  EXPECT_DOUBLE_EQ(at(*patch, fields_.density0, 0, -1, 3),
                   at(*patch, fields_.density0, 0, 0, 3));
  EXPECT_DOUBLE_EQ(at(*patch, fields_.density0, 0, -2, 3),
                   at(*patch, fields_.density0, 0, 1, 3));
  // x-hi: ghost 8 mirrors 7, ghost 9 mirrors 6.
  EXPECT_DOUBLE_EQ(at(*patch, fields_.density0, 0, 8, 5),
                   at(*patch, fields_.density0, 0, 7, 5));
  EXPECT_DOUBLE_EQ(at(*patch, fields_.density0, 0, 9, 5),
                   at(*patch, fields_.density0, 0, 6, 5));
  // y edges likewise.
  EXPECT_DOUBLE_EQ(at(*patch, fields_.density0, 0, 4, -1),
                   at(*patch, fields_.density0, 0, 4, 0));
  EXPECT_DOUBLE_EQ(at(*patch, fields_.density0, 0, 4, 9),
                   at(*patch, fields_.density0, 0, 4, 6));
}

TEST_F(BoundaryTest, NormalVelocityFlipsSign) {
  auto patch = make_patch();
  fill(*patch, fields_.xvel0, 0, [](int i, int j) {
    return 0.5 + 0.1 * i + 0.01 * j;
  });
  apply(*patch, domain_, {fields_.xvel0});
  // x-lo wall at node 0: ghost node -k = -interior node +k.
  EXPECT_DOUBLE_EQ(at(*patch, fields_.xvel0, 0, -1, 4),
                   -at(*patch, fields_.xvel0, 0, 1, 4));
  EXPECT_DOUBLE_EQ(at(*patch, fields_.xvel0, 0, -2, 4),
                   -at(*patch, fields_.xvel0, 0, 2, 4));
  // x-hi wall at node 8.
  EXPECT_DOUBLE_EQ(at(*patch, fields_.xvel0, 0, 9, 4),
                   -at(*patch, fields_.xvel0, 0, 7, 4));
  // Across y, xvel mirrors symmetrically (tangential component).
  EXPECT_DOUBLE_EQ(at(*patch, fields_.xvel0, 0, 4, -1),
                   at(*patch, fields_.xvel0, 0, 4, 1));
}

TEST_F(BoundaryTest, SideFluxComponentsUseNormalParity) {
  auto patch = make_patch();
  fill(*patch, fields_.vol_flux, 0, [](int i, int j) {
    return 1.0 + i + 0.1 * j;
  });
  fill(*patch, fields_.vol_flux, 1, [](int i, int j) {
    return -2.0 + 0.2 * i + j;
  });
  apply(*patch, domain_, {fields_.vol_flux});
  // x-faces flip across the x wall (normal flux reverses)...
  EXPECT_DOUBLE_EQ(at(*patch, fields_.vol_flux, 0, -1, 3),
                   -at(*patch, fields_.vol_flux, 0, 1, 3));
  // ...and mirror symmetrically across y (cell-like in y).
  EXPECT_DOUBLE_EQ(at(*patch, fields_.vol_flux, 0, 3, -1),
                   at(*patch, fields_.vol_flux, 0, 3, 0));
  // y-faces flip across the y wall.
  EXPECT_DOUBLE_EQ(at(*patch, fields_.vol_flux, 1, 3, -1),
                   -at(*patch, fields_.vol_flux, 1, 3, 1));
}

TEST_F(BoundaryTest, CornersAreConsistent) {
  auto patch = make_patch();
  fill(*patch, fields_.energy0, 0, [](int i, int j) {
    return 1.0 + 3.0 * i + 17.0 * j;
  });
  apply(*patch, domain_, {fields_.energy0});
  // Corner ghost (-1, -1) = double mirror of interior (0, 0).
  EXPECT_DOUBLE_EQ(at(*patch, fields_.energy0, 0, -1, -1),
                   at(*patch, fields_.energy0, 0, 0, 0));
  EXPECT_DOUBLE_EQ(at(*patch, fields_.energy0, 0, 9, 9),
                   at(*patch, fields_.energy0, 0, 6, 6));
}

TEST_F(BoundaryTest, InteriorPatchIsUntouched) {
  // A patch away from all domain edges must not be modified.
  auto patch = std::make_unique<hier::Patch>(Box(2, 2, 5, 5), 0, 0, 0);
  patch->allocate(db_);
  fill(*patch, fields_.density0, 0, [](int, int) { return 4.0; });
  const Box big_domain(0, 0, 63, 63);
  apply(*patch, big_domain, {fields_.density0});
  EXPECT_DOUBLE_EQ(at(*patch, fields_.density0, 0, 1, 1), 4.0);
}

TEST_F(BoundaryTest, LevelWideFillIsBitIdenticalToPerPatchFills) {
  // Six patches tiling a 24x16 domain: all four edges are touched, the
  // first patch spans the full height (both bottom/top strips of one
  // plane in the same fused pass) and one touches only the x-hi edge.
  const Box domain(0, 0, 23, 15);
  const std::vector<Box> boxes = {Box(0, 0, 5, 15),   Box(6, 0, 13, 7),
                                  Box(6, 8, 13, 15),  Box(14, 0, 23, 4),
                                  Box(14, 5, 23, 10), Box(14, 11, 23, 15)};
  const std::vector<int> ids = {fields_.density0, fields_.xvel0,
                                fields_.yvel0, fields_.vol_flux,
                                fields_.mass_flux};
  std::vector<std::unique_ptr<hier::Patch>> fused;
  std::vector<std::unique_ptr<hier::Patch>> single;
  for (std::size_t n = 0; n < boxes.size(); ++n) {
    for (auto* set : {&fused, &single}) {
      set->push_back(
          std::make_unique<hier::Patch>(boxes[n], 0, static_cast<int>(n), 0));
      set->back()->allocate(db_);
      for (int id : ids) {
        const int comps = set->back()->typed_data<CudaData>(id).components();
        for (int k = 0; k < comps; ++k) {
          // Distinct values everywhere, ghosts included, so a corner
          // mirrored from the wrong pass would show.
          fill(*set->back(), id, k, [=](int i, int j) {
            return std::sin(0.7 * i + 1.3 * j + 0.1 * id + 0.01 * k) + n;
          });
        }
      }
    }
  }
  std::vector<hier::Patch*> level;
  for (const auto& p : fused) {
    level.push_back(p.get());
  }
  const std::uint64_t before = dev_.launch_count();
  bc_.fill_physical_boundaries(level, domain, ids);
  EXPECT_EQ(dev_.launch_count() - before, 2u);
  for (const auto& p : single) {
    apply(*p, domain, ids);
  }

  for (std::size_t n = 0; n < boxes.size(); ++n) {
    for (int id : ids) {
      auto& a = fused[n]->typed_data<CudaData>(id);
      auto& b = single[n]->typed_data<CudaData>(id);
      for (int k = 0; k < a.components(); ++k) {
        const auto pa = a.component(k).download_plane();
        const auto pb = b.component(k).download_plane();
        ASSERT_EQ(pa.size(), pb.size());
        EXPECT_EQ(std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(double)),
                  0)
            << "patch " << n << " variable " << id << " component " << k;
      }
    }
  }
  // The fill did run: the x-lo/y-lo ghost corner is the double mirror.
  EXPECT_EQ(at(*fused[0], fields_.density0, 0, -1, -1),
            at(*fused[0], fields_.density0, 0, 0, 0));
}

TEST(LevelInitialization, FusedFillsStayWithinTheLaunchBudget) {
  // Per patch: one state launch and one fused work-array fill, plus one
  // velocity launch for problems with bulk motion.
  vgpu::Device dev(vgpu::tesla_k20x());
  hier::PatchHierarchy hierarchy(
      mesh::GridGeometry(Box(0, 0, 23, 15), {0.0, 0.0}, {1.5, 1.0}), 1,
      IntVector(2, 2), 0, 1);
  const Fields fields = Fields::register_all(hierarchy.variables(), dev);
  std::vector<hier::GlobalPatch> patches = {{Box(0, 0, 11, 15), 0, 0},
                                            {Box(12, 0, 23, 7), 0, 1},
                                            {Box(12, 8, 23, 15), 0, 2}};
  auto level = std::make_shared<hier::PatchLevel>(
      0, IntVector(1, 1), IntVector(1, 1), patches, 0, hierarchy.geometry());
  level->allocate_data(hierarchy.variables());
  for (const auto& [name, budget] :
       {std::pair<const char*, std::uint64_t>{"sod", 2},
        std::pair<const char*, std::uint64_t>{"kelvin_helmholtz", 3}}) {
    auto problem = ProblemRegistry::instance().create(name, fields, 0.05);
    for (const auto& patch : level->local_patches()) {
      const std::uint64_t before = dev.launch_count();
      problem->initialize_level_data(*patch, *level, hierarchy.geometry(),
                                     0.0);
      EXPECT_EQ(dev.launch_count() - before, budget) << name;
      // Node masses start at one, every other work array at zero, on
      // every plane of the full ghost box.
      for (const int id : {fields.node_mass_pre, fields.node_mass_post,
                           fields.vol_flux, fields.mom_flux}) {
        const double want =
            id == fields.node_mass_pre || id == fields.node_mass_post ? 1.0
                                                                      : 0.0;
        auto& data = patch->typed_data<CudaData>(id);
        for (int k = 0; k < data.components(); ++k) {
          for (int d = 0; d < data.component(k).depth(); ++d) {
            for (const double v : data.component(k).download_plane(d)) {
              ASSERT_EQ(v, want) << name << " variable " << id;
            }
          }
        }
      }
    }
  }
}

TEST(VtkWriter, WritesValidFilesForEveryPatch) {
  SimulationConfig cfg;
  cfg.problem = "sod";
  cfg.nx = 32;
  cfg.ny = 32;
  cfg.max_levels = 2;
  Simulation sim(cfg, nullptr);
  sim.initialize();
  const std::string base = "/tmp/ramr_vtk_" + std::to_string(::getpid());
  const auto files = write_vtk(
      sim, base, {{"density", sim.fields().density0},
                  {"energy", sim.fields().energy0}});
  std::size_t expected = 0;
  for (int l = 0; l < sim.hierarchy().num_levels(); ++l) {
    expected += sim.hierarchy().level(l).local_patches().size();
  }
  EXPECT_EQ(files.size(), expected);
  // Header + both fields present in the first file.
  std::ifstream is(files.front());
  std::string contents((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("# vtk DataFile"), std::string::npos);
  EXPECT_NE(contents.find("SCALARS density double 1"), std::string::npos);
  EXPECT_NE(contents.find("SCALARS energy double 1"), std::string::npos);
  EXPECT_NE(contents.find("CELL_DATA"), std::string::npos);
  for (const auto& f : files) {
    std::remove(f.c_str());
  }
  std::remove((base + ".visit").c_str());
}

}  // namespace
}  // namespace ramr::app
