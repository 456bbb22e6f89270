// Tests for the communication schedules: same-level ghost fill,
// coarse-to-fine interpolation through device scratch, solution transfer
// for regridding, fine-to-coarse synchronisation, and the physical
// boundary hook and its fused launch budget — serial, multi-device and
// distributed.
#include <gtest/gtest.h>

#include <cmath>

#include "app/fields.hpp"
#include "app/reflective_boundary.hpp"
#include "geom/coarsen_operators.hpp"
#include "geom/refine_operators.hpp"
#include "hier/patch_hierarchy.hpp"
#include "pdat/cuda/cuda_data.hpp"
#include "simmpi/communicator.hpp"
#include "vgpu/topology.hpp"
#include "xfer/coarsen_schedule.hpp"
#include "xfer/refine_schedule.hpp"

namespace ramr::xfer {
namespace {

using hier::GlobalPatch;
using hier::PatchHierarchy;
using hier::PatchLevel;
using mesh::Box;
using mesh::Centering;
using mesh::IntVector;
using pdat::cuda::CudaData;

/// Two-level hierarchy: level 0 has two side-by-side patches covering a
/// 16x8 domain; level 1 refines the middle 8x4 region (ratio 2).
struct Fixture {
  vgpu::Device device{vgpu::tesla_k20x()};
  PatchHierarchy hierarchy;
  int var = -1;
  int var2 = -1;
  ParallelContext ctx;

  explicit Fixture(Centering centering = Centering::kCell, int rank = 0,
                   int world = 1, simmpi::Communicator* comm = nullptr)
      : hierarchy(mesh::GridGeometry(Box(0, 0, 15, 7), {0.0, 0.0}, {2.0, 1.0}),
                  2, IntVector(2, 2), rank, world) {
    ctx.my_rank = rank;
    ctx.world_size = world;
    ctx.comm = comm;
    var = hierarchy.variables().register_variable(
        hier::Variable{"u", centering, 1, IntVector(2, 2)},
        std::make_shared<pdat::cuda::CudaDataFactory>(device, centering,
                                                      IntVector(2, 2), 1));
    var2 = hierarchy.variables().register_variable(
        hier::Variable{"v", centering, 1, IntVector(2, 2)},
        std::make_shared<pdat::cuda::CudaDataFactory>(device, centering,
                                                      IntVector(2, 2), 1));
    std::vector<GlobalPatch> l0 = {{Box(0, 0, 7, 7), 0, 0},
                                   {Box(8, 0, 15, 7), world > 1 ? 1 : 0, 1}};
    auto level0 = std::make_shared<PatchLevel>(0, IntVector(1, 1),
                                               IntVector(1, 1), l0, rank,
                                               hierarchy.geometry());
    level0->allocate_data(hierarchy.variables());
    hierarchy.set_level(0, level0);
    std::vector<GlobalPatch> l1 = {{Box(8, 4, 23, 11), 0, 0}};
    auto level1 = std::make_shared<PatchLevel>(1, IntVector(2, 2),
                                               IntVector(2, 2), l1, rank,
                                               hierarchy.geometry());
    level1->allocate_data(hierarchy.variables());
    hierarchy.set_level(1, level1);
  }

  /// Fills a patch's component 0 with f(i, j) over its whole index box.
  void fill(hier::Patch& p, const std::function<double(int, int)>& f,
            int which = -1) {
    auto& cd = p.typed_data<CudaData>(which < 0 ? var : which);
    for (int k = 0; k < cd.components(); ++k) {
      const Box ib = cd.component(k).index_box();
      std::vector<double> plane(static_cast<std::size_t>(ib.size()));
      std::size_t n = 0;
      for (int j = ib.lower().j; j <= ib.upper().j; ++j) {
        for (int i = ib.lower().i; i <= ib.upper().i; ++i) {
          plane[n++] = f(i, j) + 1000.0 * k;
        }
      }
      cd.component(k).upload_plane(plane);
    }
  }

  double at(hier::Patch& p, int i, int j, int k = 0, int which = -1) {
    auto& cd = p.typed_data<CudaData>(which < 0 ? var : which);
    const Box ib = cd.component(k).index_box();
    const auto plane = cd.component(k).download_plane();
    return plane[static_cast<std::size_t>((j - ib.lower().j) * ib.width() +
                                          (i - ib.lower().i))];
  }
};

TEST(RefineSchedule, SameLevelGhostFill) {
  Fixture f;
  auto level0 = f.hierarchy.level_ptr(0);
  auto left = level0->local_patch(0);
  auto right = level0->local_patch(1);
  f.fill(*left, [](int i, int j) { return 100.0 * i + j; });
  f.fill(*right, [](int i, int j) { return -(100.0 * i + j); });

  RefineAlgorithm alg;
  alg.add(RefineItem{f.var, nullptr});
  auto sched = alg.create_schedule(level0, level0, nullptr,
                                   f.hierarchy.variables(), f.ctx, nullptr,
                                   FillMode::kGhostsOnly);
  sched->fill();
  // Left patch's right ghosts now hold right's interior values.
  EXPECT_DOUBLE_EQ(f.at(*left, 8, 3), -(100.0 * 8 + 3));
  EXPECT_DOUBLE_EQ(f.at(*left, 9, 0), -(100.0 * 9 + 0));
  // Right patch's left ghosts hold left's interior values.
  EXPECT_DOUBLE_EQ(f.at(*right, 7, 5), 100.0 * 7 + 5);
  EXPECT_DOUBLE_EQ(f.at(*right, 6, 7), 100.0 * 6 + 7);
  // Interiors untouched.
  EXPECT_DOUBLE_EQ(f.at(*left, 3, 3), 100.0 * 3 + 3);
  EXPECT_EQ(sched->bytes_sent_per_fill(), 0u);  // serial: all local
  EXPECT_EQ(sched->messages_sent_per_fill(), 0u);
  EXPECT_EQ(sched->messages_received_per_fill(), 0u);
}

TEST(RefineSchedule, CoarseFillInterpolatesWhereNoSibling) {
  Fixture f;
  auto level0 = f.hierarchy.level_ptr(0);
  auto level1 = f.hierarchy.level_ptr(1);
  // Linear field on the coarse level (cell centres): exactly reproduced
  // by the conservative linear refine.
  for (int gid : {0, 1}) {
    f.fill(*level0->local_patch(gid),
           [](int i, int j) { return 3.0 * (i + 0.5) + 7.0 * (j + 0.5); });
  }
  auto fine = level1->local_patch(0);
  f.fill(*fine, [](int, int) { return -1.0; });

  RefineAlgorithm alg;
  alg.add(RefineItem{f.var, std::make_shared<geom::CellConservativeLinearRefine>()});
  auto sched = alg.create_schedule(level1, level1, level0,
                                   f.hierarchy.variables(), f.ctx, nullptr,
                                   FillMode::kGhostsOnly);
  sched->fill();
  // Fine ghost cell (7, 6): inside the domain, no sibling: interpolated.
  // Fine cell centre in coarse units: ((i+0.5)/2, (j+0.5)/2).
  const double expect = 3.0 * (7 + 0.5) / 2.0 + 7.0 * (6 + 0.5) / 2.0;
  EXPECT_NEAR(f.at(*fine, 7, 6), expect, 1e-12);
  // Interior stays untouched.
  EXPECT_DOUBLE_EQ(f.at(*fine, 10, 6), -1.0);
}

TEST(RefineSchedule, SolutionTransferFillsInterior) {
  Fixture f;
  auto level0 = f.hierarchy.level_ptr(0);
  auto level1 = f.hierarchy.level_ptr(1);
  for (int gid : {0, 1}) {
    f.fill(*level0->local_patch(gid),
           [](int i, int j) { return 2.0 * (i + 0.5) + (j + 0.5); });
  }
  // A "new" level-1 region partially overlapping the old level 1.
  std::vector<GlobalPatch> l1new = {{Box(12, 4, 27, 11), 0, 7}};
  auto new_level = std::make_shared<PatchLevel>(
      1, IntVector(2, 2), IntVector(2, 2), l1new, 0, f.hierarchy.geometry());
  new_level->allocate_data(f.hierarchy.variables());

  auto old_fine = level1->local_patch(0);
  f.fill(*old_fine, [](int i, int j) { return 5000.0 + i + 0.001 * j; });

  RefineAlgorithm alg;
  alg.add(RefineItem{f.var, std::make_shared<geom::CellConservativeLinearRefine>()});
  auto sched = alg.create_schedule(new_level, level1, level0,
                                   f.hierarchy.variables(), f.ctx, nullptr,
                                   FillMode::kInteriorAndGhosts);
  sched->fill();
  auto np = new_level->local_patch(7);
  // Where the old level overlapped (i <= 23): copied from the old data.
  EXPECT_DOUBLE_EQ(f.at(*np, 14, 6), 5000.0 + 14 + 0.001 * 6);
  EXPECT_DOUBLE_EQ(f.at(*np, 23, 11), 5000.0 + 23 + 0.001 * 11);
  // Beyond (i >= 24): interpolated from the linear coarse field.
  const double expect = 2.0 * (25 + 0.5) / 2.0 + (8 + 0.5) / 2.0;
  EXPECT_NEAR(f.at(*np, 25, 8), expect, 1e-12);
}

TEST(RefineSchedule, PhysicalBoundaryHookRuns) {
  struct MarkerBc : PhysicalBoundaryStrategy {
    int calls = 0;
    std::size_t patches = 0;
    void fill_physical_boundaries(std::span<hier::Patch* const> ps,
                                  const Box&,
                                  const std::vector<int>& ids) override {
      ++calls;
      patches += ps.size();
      EXPECT_EQ(ids.size(), 1u);
    }
  };
  Fixture f;
  MarkerBc bc;
  auto level0 = f.hierarchy.level_ptr(0);
  RefineAlgorithm alg;
  alg.add(RefineItem{f.var, nullptr});
  auto sched = alg.create_schedule(level0, level0, nullptr,
                                   f.hierarchy.variables(), f.ctx, &bc,
                                   FillMode::kGhostsOnly);
  sched->fill();
  EXPECT_EQ(bc.calls, 1);     // one level-wide call for the one device
  EXPECT_EQ(bc.patches, 2u);  // covering both local patches
}

/// One level of the application's fields on a 24x16 domain, so the real
/// reflective boundaries run, with its patches spread over `devices`
/// devices of one rank (GlobalPatch::device).
struct BoundaryFixture {
  vgpu::SimClock clock;
  vgpu::Topology topology;
  PatchHierarchy hierarchy;
  app::Fields fields;
  app::ReflectiveBoundary bc;
  ParallelContext ctx;

  BoundaryFixture(const std::vector<GlobalPatch>& patches, int devices)
      : topology(spec(devices), vgpu::tesla_k20x(), &clock),
        hierarchy(mesh::GridGeometry(Box(0, 0, 23, 15), {0.0, 0.0},
                                     {1.5, 1.0}),
                  1, IntVector(2, 2), 0, 1),
        fields(app::Fields::register_all(hierarchy.variables(),
                                         topology.device(0))),
        bc(fields) {
    if (devices > 1) {
      ctx.topology = &topology;
    }
    auto level = std::make_shared<PatchLevel>(
        0, IntVector(1, 1), IntVector(1, 1), patches, 0, hierarchy.geometry());
    level->allocate_data(hierarchy.variables(), &topology);
    hierarchy.set_level(0, level);
  }

  static vgpu::TopologySpec spec(int devices) {
    vgpu::TopologySpec s;
    s.device_count = devices;
    return s;
  }

  /// Launches per device that the physical-boundary step adds to one
  /// same-level ghost fill of a cell, a node and a side variable.
  std::vector<std::uint64_t> boundary_launches() {
    auto level = hierarchy.level_ptr(0);
    RefineAlgorithm alg;
    for (int id : {fields.density0, fields.xvel0, fields.vol_flux}) {
      alg.add(RefineItem{id, nullptr});
    }
    auto with_bc = alg.create_schedule(level, level, nullptr,
                                       hierarchy.variables(), ctx, &bc,
                                       FillMode::kGhostsOnly);
    auto without = alg.create_schedule(level, level, nullptr,
                                       hierarchy.variables(), ctx, nullptr,
                                       FillMode::kGhostsOnly);
    const auto launches = [&] {
      std::vector<std::uint64_t> n;
      for (int d = 0; d < topology.device_count(); ++d) {
        n.push_back(topology.device(d).launch_count());
      }
      return n;
    };
    const std::vector<std::uint64_t> l0 = launches();
    with_bc->fill();
    const std::vector<std::uint64_t> l1 = launches();
    without->fill();
    const std::vector<std::uint64_t> l2 = launches();
    std::vector<std::uint64_t> out;
    for (std::size_t d = 0; d < l0.size(); ++d) {
      out.push_back((l1[d] - l0[d]) - (l2[d] - l1[d]));
    }
    return out;
  }
};

/// Six patches tiling the 24x16 domain, touching all four edges; the
/// first spans the full height. `device(n)` places patch n.
std::vector<GlobalPatch> six_patches(int (*device)(int)) {
  const std::vector<Box> boxes = {Box(0, 0, 5, 15),   Box(6, 0, 13, 7),
                                  Box(6, 8, 13, 15),  Box(14, 0, 23, 4),
                                  Box(14, 5, 23, 10), Box(14, 11, 23, 15)};
  std::vector<GlobalPatch> out;
  for (int n = 0; n < static_cast<int>(boxes.size()); ++n) {
    out.push_back(GlobalPatch{boxes[static_cast<std::size_t>(n)], 0, n,
                              device(n)});
  }
  return out;
}

TEST(RefineSchedule, PhysicalBoundariesCostTwoLaunchesPerDevice) {
  // Whatever the patch count: one bottom/top and one left/right launch.
  EXPECT_EQ(BoundaryFixture({{Box(0, 0, 23, 15), 0, 0}}, 1)
                .boundary_launches(),
            std::vector<std::uint64_t>{2});
  EXPECT_EQ(BoundaryFixture(six_patches([](int) { return 0; }), 1)
                .boundary_launches(),
            std::vector<std::uint64_t>{2});
  // A patch spanning the height but no x edge: the left/right pass is
  // empty and launches nothing.
  EXPECT_EQ(BoundaryFixture({{Box(4, 0, 19, 15), 0, 0}}, 1)
                .boundary_launches(),
            std::vector<std::uint64_t>{1});
  // No patch touches a domain edge: no launch at all.
  EXPECT_EQ(BoundaryFixture({{Box(4, 4, 19, 11), 0, 0}}, 1)
                .boundary_launches(),
            std::vector<std::uint64_t>{0});
  // Two devices, each holding patches on all four edges: two each.
  EXPECT_EQ(BoundaryFixture(six_patches([](int n) { return n % 2; }), 2)
                .boundary_launches(),
            (std::vector<std::uint64_t>{2, 2}));
}

TEST(CoarsenSchedule, VolumeWeightedSyncReplacesCoveredCells) {
  Fixture f;
  auto level0 = f.hierarchy.level_ptr(0);
  auto level1 = f.hierarchy.level_ptr(1);
  for (int gid : {0, 1}) {
    f.fill(*level0->local_patch(gid), [](int, int) { return 1.0; });
  }
  f.fill(*level1->local_patch(0), [](int, int) { return 8.0; });

  CoarsenAlgorithm alg;
  alg.add(CoarsenItem{f.var, std::make_shared<geom::VolumeWeightedCoarsen>(), -1});
  auto sched = alg.create_schedule(level0, level1, f.hierarchy.variables(),
                                   f.ctx);
  sched->coarsen_data();
  // The fine level covers coarse cells (4..11, 2..5): now 8.
  EXPECT_DOUBLE_EQ(f.at(*level0->local_patch(0), 5, 3), 8.0);
  EXPECT_DOUBLE_EQ(f.at(*level0->local_patch(1), 11, 5), 8.0);
  // Uncovered coarse cells unchanged.
  EXPECT_DOUBLE_EQ(f.at(*level0->local_patch(0), 1, 1), 1.0);
  EXPECT_DOUBLE_EQ(f.at(*level0->local_patch(1), 14, 7), 1.0);
}

TEST(CoarsenSchedule, NodeCentredSync) {
  Fixture f(Centering::kNode);
  auto level0 = f.hierarchy.level_ptr(0);
  auto level1 = f.hierarchy.level_ptr(1);
  for (int gid : {0, 1}) {
    f.fill(*level0->local_patch(gid), [](int, int) { return 0.0; });
  }
  f.fill(*level1->local_patch(0), [](int i, int j) { return 10.0 * i + j; });

  CoarsenAlgorithm alg;
  alg.add(CoarsenItem{f.var, std::make_shared<geom::NodeInjectionCoarsen>(), -1});
  auto sched = alg.create_schedule(level0, level1, f.hierarchy.variables(),
                                   f.ctx);
  sched->coarsen_data();
  // Coarse node (5, 3) <- fine node (10, 6).
  EXPECT_DOUBLE_EQ(f.at(*level0->local_patch(0), 5, 3), 10.0 * 10 + 6);
}

TEST(Schedules, DistributedMatchesSerialOnFixture) {
  // Serial reference of the same-level + coarse fill.
  auto run = [](int world, simmpi::Communicator* comm, int rank) {
    Fixture f(Centering::kCell, rank, world, comm);
    auto level0 = f.hierarchy.level_ptr(0);
    auto level1 = f.hierarchy.level_ptr(1);
    for (int gid : {0, 1}) {
      if (auto p = level0->local_patch(gid)) {
        f.fill(*p, [gid](int i, int j) { return gid * 77.0 + i + 0.01 * j; });
      }
    }
    if (auto p = level1->local_patch(0)) {
      f.fill(*p, [](int, int) { return -3.0; });
    }
    RefineAlgorithm alg;
    alg.add(RefineItem{f.var,
                       std::make_shared<geom::CellConservativeLinearRefine>()});
    auto s0 = alg.create_schedule(level0, level0, nullptr,
                                  f.hierarchy.variables(), f.ctx, nullptr,
                                  FillMode::kGhostsOnly);
    auto s1 = alg.create_schedule(level1, level1, level0,
                                  f.hierarchy.variables(), f.ctx, nullptr,
                                  FillMode::kGhostsOnly);
    s0->fill();
    s1->fill();
    double checksum = 0.0;
    if (auto p = level1->local_patch(0)) {
      for (int j = 2; j <= 13; ++j) {
        for (int i = 6; i <= 25; ++i) {
          checksum += f.at(*p, i, j) * std::sin(i + 2.0 * j);
        }
      }
    }
    return checksum;
  };
  const double serial = run(1, nullptr, 0);
  simmpi::World world(2, simmpi::ideal_network());
  double distributed = 0.0;
  world.run([&](simmpi::Communicator& comm) {
    const double c = run(2, &comm, comm.rank());
    if (comm.rank() == 0) {
      distributed = c;
    }
  });
  EXPECT_DOUBLE_EQ(serial, distributed);
}

TEST(TransferSchedule, OneAggregatedMessagePerPeerPerFill) {
  // Two ranks, one patch each, two registered variables: the whole halo
  // exchange must travel as ONE message per (peer, direction), and the
  // received ghost values must be bit-exact copies of the remote field.
  simmpi::World world(2, simmpi::ideal_network());
  world.run([](simmpi::Communicator& comm) {
    Fixture f(Centering::kCell, comm.rank(), 2, &comm);
    f.ctx.device = &f.device;
    auto level0 = f.hierarchy.level_ptr(0);
    const auto fu = [](int i, int j) { return 100.0 * i + j; };
    const auto fv = [](int i, int j) { return -7.0 * i + 1.0 / (j + 3.0); };
    for (int gid : {0, 1}) {
      if (auto p = level0->local_patch(gid)) {
        f.fill(*p, fu, f.var);
        f.fill(*p, fv, f.var2);
      }
    }

    RefineAlgorithm alg;
    alg.add(RefineItem{f.var, nullptr});
    alg.add(RefineItem{f.var2, nullptr});
    auto sched = alg.create_schedule(level0, level0, nullptr,
                                     f.hierarchy.variables(), f.ctx, nullptr,
                                     FillMode::kGhostsOnly);

    const vgpu::TransferLog transfers_before = f.device.transfers();
    const simmpi::CommStats before = comm.stats();
    sched->fill();
    const simmpi::CommStats delta = comm.stats() - before;

    // One aggregated message per peer per direction, for 2 variables x
    // several overlap strips.
    EXPECT_EQ(delta.messages_sent, 1u);
    EXPECT_EQ(delta.messages_received, 1u);
    EXPECT_EQ(sched->messages_sent_per_fill(), 1u);
    EXPECT_EQ(sched->messages_received_per_fill(), 1u);
    // The schedule's modeled byte count is exactly what hit the wire.
    EXPECT_EQ(delta.bytes_sent, sched->bytes_sent_per_fill());
    EXPECT_GT(delta.bytes_sent, 0u);
    // Fused device pack: one staged D2H crossing for the outgoing buffer
    // and one H2D crossing for the received one.
    const vgpu::TransferLog tdelta = f.device.transfers() - transfers_before;
    EXPECT_EQ(tdelta.d2h_count, 1u);
    EXPECT_EQ(tdelta.h2d_count, 1u);

    // Bit-exact ghost data for both variables (plain EXPECT_EQ: the
    // doubles are copied verbatim, never recomputed).
    if (comm.rank() == 0) {
      auto left = level0->local_patch(0);
      EXPECT_EQ(f.at(*left, 8, 3, 0, f.var), fu(8, 3));
      EXPECT_EQ(f.at(*left, 9, 6, 0, f.var), fu(9, 6));
      EXPECT_EQ(f.at(*left, 8, 3, 0, f.var2), fv(8, 3));
      EXPECT_EQ(f.at(*left, 9, 0, 0, f.var2), fv(9, 0));
    } else {
      auto right = level0->local_patch(1);
      EXPECT_EQ(f.at(*right, 7, 5, 0, f.var), fu(7, 5));
      EXPECT_EQ(f.at(*right, 6, 7, 0, f.var), fu(6, 7));
      EXPECT_EQ(f.at(*right, 7, 5, 0, f.var2), fv(7, 5));
      EXPECT_EQ(f.at(*right, 6, 2, 0, f.var2), fv(6, 2));
    }
  });
}

TEST(TransferSchedule, CoarseGatherAggregatesPerPeer) {
  // The fine patch lives on rank 0; its interpolation scratch gathers
  // from coarse patches on both ranks. Rank 1's contribution rides at
  // most one message per gather engine — the early engine carries the
  // strictly-interior coarse sources (shippable at fill_begin under
  // wide overlap), the late engine the boundary-shell and ghost sources
  // — and the interpolated values must match the serial result.
  simmpi::World world(2, simmpi::ideal_network());
  world.run([](simmpi::Communicator& comm) {
    Fixture f(Centering::kCell, comm.rank(), 2, &comm);
    auto level0 = f.hierarchy.level_ptr(0);
    auto level1 = f.hierarchy.level_ptr(1);
    for (int gid : {0, 1}) {
      if (auto p = level0->local_patch(gid)) {
        f.fill(*p, [](int i, int j) { return 3.0 * (i + 0.5) + 7.0 * (j + 0.5); });
      }
    }
    if (auto p = level1->local_patch(0)) {
      f.fill(*p, [](int, int) { return -1.0; });
    }

    RefineAlgorithm alg;
    alg.add(RefineItem{f.var,
                       std::make_shared<geom::CellConservativeLinearRefine>()});
    auto sched = alg.create_schedule(level1, level1, level0,
                                     f.hierarchy.variables(), f.ctx, nullptr,
                                     FillMode::kGhostsOnly);
    const simmpi::CommStats before = comm.stats();
    sched->fill();
    const simmpi::CommStats delta = comm.stats() - before;
    if (comm.rank() == 0) {
      EXPECT_EQ(delta.messages_sent, 0u);
      EXPECT_EQ(delta.messages_received, sched->messages_received_per_fill());
      EXPECT_LE(delta.messages_received, 2u);
      EXPECT_GE(delta.messages_received, 1u);
      auto fine = level1->local_patch(0);
      const double expect = 3.0 * (7 + 0.5) / 2.0 + 7.0 * (6 + 0.5) / 2.0;
      EXPECT_NEAR(f.at(*fine, 7, 6), expect, 1e-12);
      EXPECT_DOUBLE_EQ(f.at(*fine, 10, 6), -1.0);
    } else {
      EXPECT_EQ(delta.messages_sent, sched->messages_sent_per_fill());
      EXPECT_LE(delta.messages_sent, 2u);
      EXPECT_GE(delta.messages_sent, 1u);
      EXPECT_EQ(delta.messages_received, 0u);
      EXPECT_EQ(delta.bytes_sent, sched->bytes_sent_per_fill());
    }
  });
}

TEST(CoarsenSchedule, DistributedSyncAggregatesPerPeer) {
  // Fine patch on rank 0 contributes to coarse patches on ranks 0 and 1:
  // the remote contribution (both variables) rides one message.
  simmpi::World world(2, simmpi::ideal_network());
  world.run([](simmpi::Communicator& comm) {
    Fixture f(Centering::kCell, comm.rank(), 2, &comm);
    auto level0 = f.hierarchy.level_ptr(0);
    auto level1 = f.hierarchy.level_ptr(1);
    for (int gid : {0, 1}) {
      if (auto p = level0->local_patch(gid)) {
        f.fill(*p, [](int, int) { return 1.0; }, f.var);
        f.fill(*p, [](int, int) { return 2.0; }, f.var2);
      }
    }
    if (auto p = level1->local_patch(0)) {
      f.fill(*p, [](int, int) { return 8.0; }, f.var);
      f.fill(*p, [](int, int) { return 16.0; }, f.var2);
    }

    CoarsenAlgorithm alg;
    alg.add(CoarsenItem{f.var, std::make_shared<geom::VolumeWeightedCoarsen>(),
                        -1});
    alg.add(CoarsenItem{f.var2, std::make_shared<geom::VolumeWeightedCoarsen>(),
                        -1});
    auto sched = alg.create_schedule(level0, level1, f.hierarchy.variables(),
                                     f.ctx);
    const simmpi::CommStats before = comm.stats();
    sched->coarsen_data();
    const simmpi::CommStats delta = comm.stats() - before;
    if (comm.rank() == 0) {
      EXPECT_EQ(delta.messages_sent, 1u);  // fine owner ships to rank 1
      EXPECT_EQ(delta.messages_received, 0u);
      EXPECT_EQ(delta.bytes_sent, sched->bytes_sent_per_sync());
      EXPECT_EQ(sched->messages_sent_per_sync(), 1u);
      auto coarse = level0->local_patch(0);
      EXPECT_EQ(f.at(*coarse, 5, 3, 0, f.var), 8.0);
      EXPECT_EQ(f.at(*coarse, 5, 3, 0, f.var2), 16.0);
      EXPECT_EQ(f.at(*coarse, 1, 1, 0, f.var), 1.0);
    } else {
      EXPECT_EQ(delta.messages_sent, 0u);
      EXPECT_EQ(delta.messages_received, 1u);
      EXPECT_EQ(sched->messages_received_per_sync(), 1u);
      auto coarse = level0->local_patch(1);
      EXPECT_EQ(f.at(*coarse, 11, 5, 0, f.var), 8.0);
      EXPECT_EQ(f.at(*coarse, 11, 5, 0, f.var2), 16.0);
      EXPECT_EQ(f.at(*coarse, 14, 7, 0, f.var2), 2.0);
    }
  });
}

}  // namespace
}  // namespace ramr::xfer
