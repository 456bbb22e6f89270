// Compiled transfer plans (xfer::TransferSchedule): plan compilation and
// caching, fused launch budgets (pack launches == messages sent, unpack
// launches == messages received, one local-copy launch per exchange),
// bit-exactness against digests recorded from the per-transaction
// transfer path the plans replaced (ghost fills and full runs with
// regrids), plan-cache invalidation on schedule rebuild, and the
// rejection of cross-device endpoints without a topology.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "app/simulation.hpp"
#include "geom/refine_operators.hpp"
#include "hier/patch_hierarchy.hpp"
#include "pdat/cuda/cuda_data.hpp"
#include "simmpi/communicator.hpp"
#include "util/fnv1a.hpp"
#include "vgpu/topology.hpp"
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
using vgpu::LaunchTag;

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

std::uint64_t tag_count(const vgpu::Device& dev, LaunchTag tag) {
  return dev.launch_count(tag);
}

using util::fnv1a;
using util::kFnvOffset;

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

TEST(TransferPlan, PlansCompileOnFinalizeAndCacheAcrossExecutes) {
  Fixture f;
  auto level0 = f.hierarchy.level_ptr(0);
  f.fill(*level0->local_patch(0), [](int i, int j) { return 10.0 * i + j; });
  f.fill(*level0->local_patch(1), [](int i, int j) { return -3.0 * i + j; });

  RefineAlgorithm alg;
  alg.add(RefineItem{f.var, nullptr});
  auto sched = alg.create_schedule(level0, level0, nullptr,
                                   f.hierarchy.variables(), f.ctx, nullptr,
                                   FillMode::kGhostsOnly);
  // Compilation happens in finalize (inside create_schedule), before any
  // execute.
  const TransferSchedule& engine = sched->same_level_engine();
  EXPECT_TRUE(engine.plans_compiled());
  EXPECT_GT(engine.plan_segment_count(), 0u);
  const std::size_t segments = engine.plan_segment_count();

  sched->fill();
  sched->fill();
  // Both executes ran the compiled path against the SAME cached plan.
  EXPECT_EQ(engine.compiled_executions(), 2u);
  EXPECT_EQ(engine.plan_segment_count(), segments);
  // Repeated fills are idempotent on already-exchanged data.
  EXPECT_DOUBLE_EQ(f.at(*level0->local_patch(0), 8, 3), -3.0 * 8 + 3);
}

TEST(TransferPlan, OneLocalCopyLaunchPerExchange) {
  // Serial fill: every transaction is local, so the whole exchange (two
  // variables, several patch edges and overlap strips) must cost exactly
  // ONE fused local-copy device launch — and zero pack/unpack launches.
  Fixture f;
  auto level0 = f.hierarchy.level_ptr(0);
  for (int gid : {0, 1}) {
    f.fill(*level0->local_patch(gid),
           [gid](int i, int j) { return gid * 100.0 + i + 0.01 * j; }, f.var);
    f.fill(*level0->local_patch(gid),
           [gid](int i, int j) { return gid * -7.0 + j - 0.5 * i; }, f.var2);
  }
  RefineAlgorithm alg;
  alg.add(RefineItem{f.var, nullptr});
  alg.add(RefineItem{f.var2, nullptr});
  auto sched = alg.create_schedule(level0, level0, nullptr,
                                   f.hierarchy.variables(), f.ctx, nullptr,
                                   FillMode::kGhostsOnly);
  ASSERT_GT(sched->same_level_engine().transaction_count(), 2u);

  const std::uint64_t copy0 = tag_count(f.device, LaunchTag::kLocalCopy);
  const std::uint64_t pack0 = tag_count(f.device, LaunchTag::kTransferPack);
  const std::uint64_t unpack0 = tag_count(f.device, LaunchTag::kTransferUnpack);
  sched->fill();
  EXPECT_EQ(tag_count(f.device, LaunchTag::kLocalCopy) - copy0, 1u);
  EXPECT_EQ(tag_count(f.device, LaunchTag::kTransferPack) - pack0, 0u);
  EXPECT_EQ(tag_count(f.device, LaunchTag::kTransferUnpack) - unpack0, 0u);
  // Values match the per-transaction semantics.
  EXPECT_DOUBLE_EQ(f.at(*level0->local_patch(0), 8, 3, 0, f.var),
                   100.0 + 8 + 0.01 * 3);
  EXPECT_DOUBLE_EQ(f.at(*level0->local_patch(1), 7, 5, 0, f.var2), 5 - 0.5 * 7);
}

TEST(TransferPlan, PackUnpackLaunchesEqualMessageCounts) {
  // Two ranks: each sends ONE aggregated message per fill, so each rank
  // must issue exactly one fused pack launch and one fused unpack launch
  // (plus at most one local-copy launch), however many transactions the
  // message carries.
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

    const std::uint64_t pack0 = tag_count(f.device, LaunchTag::kTransferPack);
    const std::uint64_t unpack0 =
        tag_count(f.device, LaunchTag::kTransferUnpack);
    sched->fill();
    EXPECT_EQ(tag_count(f.device, LaunchTag::kTransferPack) - pack0,
              sched->messages_sent_per_fill());
    EXPECT_EQ(tag_count(f.device, LaunchTag::kTransferUnpack) - unpack0,
              sched->messages_received_per_fill());
    EXPECT_EQ(sched->messages_sent_per_fill(), 1u);
    EXPECT_EQ(sched->messages_received_per_fill(), 1u);
    // Ghost values are bit-exact copies of the remote field.
    if (comm.rank() == 0) {
      EXPECT_EQ(f.at(*level0->local_patch(0), 8, 3, 0, f.var), fu(8, 3));
      EXPECT_EQ(f.at(*level0->local_patch(0), 9, 0, 0, f.var2), fv(9, 0));
    } else {
      EXPECT_EQ(f.at(*level0->local_patch(1), 7, 5, 0, f.var), fu(7, 5));
      EXPECT_EQ(f.at(*level0->local_patch(1), 6, 7, 0, f.var2), fv(6, 7));
    }
  });
}

TEST(TransferPlan, GhostsMatchRecordedDigests) {
  // One same-level ghost fill of two variables per centring; every
  // component plane of every patch (ghosts included) must hash to the
  // value recorded from the per-transaction transfer path, which applied
  // transactions one by one in plan order — including the node/side seam
  // lines each patch both reads and writes (the snapshot stage).
  struct Recorded {
    Centering centering;
    std::vector<std::uint64_t> planes;  ///< patch, then variable, then component
  };
  const Recorded recorded[] = {
      {Centering::kCell,
       {0xb71b60d1b05d3428ull, 0xe5e057e6ddc44338ull, 0xfeec7e75860b4c1cull,
        0x27a2424b5cf1ab94ull}},
      {Centering::kNode,
       {0x6109608fbfb04bd4ull, 0xa23b9da027119bc2ull, 0xb9db027bbbae5016ull,
        0x82688dd2003afca2ull}},
      {Centering::kSide,
       {0x9644ada276dfed01ull, 0xe407d14e462210b4ull, 0x632a5646ba66223dull,
        0xcb7aa9d5d581f8b6ull, 0xff3f7c115264425full, 0x5ab3c17fc71ba905ull,
        0x81bbc4c67674894dull, 0x2f94c63b7d7e122aull}},
  };
  for (const Recorded& want : recorded) {
    Fixture f(want.centering);
    auto level0 = f.hierarchy.level_ptr(0);
    for (int gid : {0, 1}) {
      f.fill(*level0->local_patch(gid), [gid](int i, int j) {
        return std::sin(0.3 * i) * (gid + 1.0) + 0.02 * j;
      });
      f.fill(*level0->local_patch(gid), [gid](int i, int j) {
        return std::cos(0.2 * j) - gid * i;
      }, f.var2);
    }
    RefineAlgorithm alg;
    alg.add(RefineItem{f.var, nullptr});
    alg.add(RefineItem{f.var2, nullptr});
    auto sched = alg.create_schedule(level0, level0, nullptr,
                                     f.hierarchy.variables(), f.ctx, nullptr,
                                     FillMode::kGhostsOnly);
    sched->fill();
    EXPECT_EQ(sched->same_level_engine().compiled_executions(), 1u);
    std::size_t n = 0;
    for (int gid : {0, 1}) {
      auto p = level0->local_patch(gid);
      for (int which : {f.var, f.var2}) {
        auto& cd = p->typed_data<CudaData>(which);
        for (int k = 0; k < cd.components(); ++k) {
          const auto plane = cd.component(k).download_plane();
          ASSERT_LT(n, want.planes.size());
          EXPECT_EQ(fnv1a(kFnvOffset, plane.data(),
                          plane.size() * sizeof(double)),
                    want.planes[n++])
              << mesh::centering_name(want.centering) << " patch " << gid
              << " var " << which << " comp " << k;
        }
      }
    }
    EXPECT_EQ(n, want.planes.size());
  }
}

TEST(TransferPlan, SeamReadsSnapshotPreExchangeValues) {
  // Node-centred halo exchange: the destination ghost region includes the
  // patch-boundary node line, so each patch's seam column is both READ
  // (as the neighbour's source) and WRITTEN (as a ghost target) within
  // one exchange. The compiler snapshots such aliased reads before any
  // apply write (one extra gather launch), so every copied value is the
  // pre-exchange source value — exactly what a remote peer's pack ships.
  // Make the two patches DISAGREE at the seam and check both properties.
  const auto fp = [](int i, int j) { return 1000.0 + 10.0 * i + j; };
  const auto fq = [](int i, int j) { return -2000.0 - 10.0 * i - j; };
  const auto run = [&](int world, simmpi::Communicator* comm, int rank,
                       double* left_ghost, double* right_ghost,
                       std::uint64_t* copy_launches) {
    Fixture f(Centering::kNode, rank, world, comm);
    auto level0 = f.hierarchy.level_ptr(0);
    if (auto p = level0->local_patch(0)) {
      f.fill(*p, fp);
    }
    if (auto p = level0->local_patch(1)) {
      f.fill(*p, fq);
    }
    RefineAlgorithm alg;
    alg.add(RefineItem{f.var, nullptr});
    auto sched = alg.create_schedule(level0, level0, nullptr,
                                     f.hierarchy.variables(), f.ctx, nullptr,
                                     FillMode::kGhostsOnly);
    const std::uint64_t copy0 = tag_count(f.device, LaunchTag::kLocalCopy);
    sched->fill();
    if (copy_launches != nullptr) {
      *copy_launches = tag_count(f.device, LaunchTag::kLocalCopy) - copy0;
    }
    // Patch 0's seam column (node i = 8) is ghost-filled from patch 1;
    // patch 1's from patch 0.
    if (auto p = level0->local_patch(0)) {
      *left_ghost = f.at(*p, 8, 3);
    }
    if (auto p = level0->local_patch(1)) {
      *right_ghost = f.at(*p, 8, 5);
    }
  };

  double serial_left = 0.0;
  double serial_right = 0.0;
  std::uint64_t serial_copies = 0;
  run(1, nullptr, 0, &serial_left, &serial_right, &serial_copies);
  // Each ghost holds the NEIGHBOUR's pre-exchange value, not a chained
  // round-trip of its own.
  EXPECT_EQ(serial_left, fq(8, 3));
  EXPECT_EQ(serial_right, fp(8, 5));
  // Seam aliasing engaged the snapshot stage: gather + apply launches.
  EXPECT_EQ(serial_copies, 2u);

  // The same exchange split across two ranks (where the values travel as
  // packed messages) lands bit-identically: local copies have the same
  // pack-then-apply semantics as remote transfers.
  simmpi::World world(2, simmpi::ideal_network());
  double dist_left = 0.0;
  double dist_right = 0.0;
  world.run([&](simmpi::Communicator& comm) {
    run(2, &comm, comm.rank(), &dist_left, &dist_right, nullptr);
  });
  EXPECT_EQ(dist_left, serial_left);
  EXPECT_EQ(dist_right, serial_right);
}

TEST(TransferPlan, ClippedSeamsMatchSequentialLastWriterApply) {
  // Four patches around one corner: a patch's node/side ghost region is
  // filled from three neighbours whose pieces share seam lines, so some
  // ghost elements are written by two transactions. The fused plans must
  // land exactly what applying the transactions one by one in plan order
  // lands — last writer wins, every value the source's pre-exchange one.
  // On two ranks a remote (unpacked) write precedes a local one on some
  // seams and follows it on others, so both clipping directions matter.
  const Box boxes[4] = {Box(0, 0, 7, 3), Box(8, 0, 15, 3), Box(0, 4, 7, 7),
                        Box(8, 4, 15, 7)};
  const int two_rank_owner[4] = {0, 1, 1, 0};
  const auto value = [](int gid, int i, int j, int k) {
    return 1000.0 * gid + 10.0 * i + j + 0.5 + 100000.0 * k;
  };
  const auto run = [&](Centering centering, int rank, int world,
                       simmpi::Communicator* comm, std::int64_t* rewritten) {
    vgpu::Device device{vgpu::tesla_k20x()};
    PatchHierarchy hierarchy(
        mesh::GridGeometry(Box(0, 0, 15, 7), {0.0, 0.0}, {2.0, 1.0}), 1,
        IntVector(2, 2), rank, world);
    const int var = hierarchy.variables().register_variable(
        hier::Variable{"u", centering, 1, IntVector(2, 2)},
        std::make_shared<pdat::cuda::CudaDataFactory>(device, centering,
                                                      IntVector(2, 2), 1));
    std::vector<GlobalPatch> meta;
    for (int gid = 0; gid < 4; ++gid) {
      meta.push_back({boxes[gid], world > 1 ? two_rank_owner[gid] : 0, gid});
    }
    auto level = std::make_shared<PatchLevel>(0, IntVector(1, 1),
                                              IntVector(1, 1), meta, rank,
                                              hierarchy.geometry());
    level->allocate_data(hierarchy.variables());
    for (const auto& p : level->local_patches()) {
      auto& cd = p->typed_data<CudaData>(var);
      for (int k = 0; k < cd.components(); ++k) {
        const Box ib = cd.component(k).index_box();
        std::vector<double> plane;
        for (int j = ib.lower().j; j <= ib.upper().j; ++j) {
          for (int i = ib.lower().i; i <= ib.upper().i; ++i) {
            plane.push_back(value(p->global_id(), i, j, k));
          }
        }
        cd.component(k).upload_plane(plane);
      }
    }
    ParallelContext ctx;
    ctx.my_rank = rank;
    ctx.world_size = world;
    ctx.comm = comm;
    RefineAlgorithm alg;
    alg.add(RefineItem{var, nullptr});
    auto sched = alg.create_schedule(level, level, nullptr,
                                     hierarchy.variables(), ctx, nullptr,
                                     FillMode::kGhostsOnly);
    sched->fill();

    for (const auto& p : level->local_patches()) {
      auto& cd = p->typed_data<CudaData>(var);
      for (int k = 0; k < cd.components(); ++k) {
        // Sequential reference: the pre-fill plane, then every
        // transaction into this patch in plan order, each element taking
        // the source's pre-exchange value.
        const Box ib = cd.component(k).index_box();
        const auto at = [&](int i, int j) {
          return static_cast<std::size_t>((j - ib.lower().j) * ib.width() +
                                          (i - ib.lower().i));
        };
        std::vector<double> want(static_cast<std::size_t>(ib.size()));
        std::vector<int> writes(want.size(), 0);
        for (int j = ib.lower().j; j <= ib.upper().j; ++j) {
          for (int i = ib.lower().i; i <= ib.upper().i; ++i) {
            want[at(i, j)] = value(p->global_id(), i, j, k);
          }
        }
        for (const auto& x : sched->transactions()) {
          if (x.dst_gid != p->global_id()) {
            continue;
          }
          const IntVector shift = x.overlap.src_shift();
          for (const Box& b : x.overlap.component(k).boxes()) {
            for (int j = b.lower().j; j <= b.upper().j; ++j) {
              for (int i = b.lower().i; i <= b.upper().i; ++i) {
                want[at(i, j)] = value(x.src_gid, i - shift.i, j - shift.j, k);
                ++writes[at(i, j)];
              }
            }
          }
        }
        *rewritten += std::count_if(writes.begin(), writes.end(),
                                    [](int w) { return w > 1; });
        const auto got = cd.component(k).download_plane();
        ASSERT_EQ(got.size(), want.size());
        for (int j = ib.lower().j; j <= ib.upper().j; ++j) {
          for (int i = ib.lower().i; i <= ib.upper().i; ++i) {
            ASSERT_EQ(got[at(i, j)], want[at(i, j)])
                << mesh::centering_name(centering) << " patch "
                << p->global_id() << " comp " << k << " at (" << i << ","
                << j << "), rank " << rank << " of " << world;
          }
        }
      }
    }
  };
  for (const Centering centering : {Centering::kNode, Centering::kSide}) {
    std::int64_t serial_rewritten = 0;
    run(centering, 0, 1, nullptr, &serial_rewritten);
    // The fixture really does write some ghost elements twice.
    EXPECT_GT(serial_rewritten, 0) << mesh::centering_name(centering);

    std::int64_t rewritten[2] = {0, 0};
    simmpi::World world(2, simmpi::ideal_network());
    world.run([&](simmpi::Communicator& comm) {
      run(centering, comm.rank(), 2, &comm, &rewritten[comm.rank()]);
    });
    EXPECT_EQ(rewritten[0] + rewritten[1], serial_rewritten);
  }
}

TEST(TransferPlan, RebuiltScheduleRecompilesPlans) {
  // The plan cache lives and dies with the schedule: rebuilding (what the
  // integrator does after every regrid) compiles fresh plans from the new
  // metadata and executes correctly.
  Fixture f;
  auto level0 = f.hierarchy.level_ptr(0);
  f.fill(*level0->local_patch(0), [](int i, int j) { return i + 100.0 * j; });
  f.fill(*level0->local_patch(1), [](int i, int j) { return i - 100.0 * j; });
  RefineAlgorithm alg;
  alg.add(RefineItem{f.var, nullptr});
  auto first = alg.create_schedule(level0, level0, nullptr,
                                   f.hierarchy.variables(), f.ctx, nullptr,
                                   FillMode::kGhostsOnly);
  first->fill();
  EXPECT_EQ(first->same_level_engine().compiled_executions(), 1u);

  auto rebuilt = alg.create_schedule(level0, level0, nullptr,
                                     f.hierarchy.variables(), f.ctx, nullptr,
                                     FillMode::kGhostsOnly);
  EXPECT_TRUE(rebuilt->same_level_engine().plans_compiled());
  EXPECT_EQ(rebuilt->same_level_engine().compiled_executions(), 0u);
  rebuilt->fill();
  EXPECT_EQ(rebuilt->same_level_engine().compiled_executions(), 1u);
  EXPECT_DOUBLE_EQ(f.at(*level0->local_patch(0), 9, 2), 9 - 100.0 * 2);
}

// ---------------------------------------------------------------------------
// End-to-end: compiled plans against recorded values through full steps.

app::SimulationConfig multi_patch_sod() {
  app::SimulationConfig cfg;
  cfg.problem = "sod";
  cfg.nx = 64;
  cfg.ny = 64;
  cfg.max_levels = 3;
  cfg.regrid_interval = 4;  // include regrids in the comparison window
  cfg.max_patch_cells = 16 * 16;  // force many patches per level
  cfg.min_patch_size = 8;
  return cfg;
}

/// One patch of the ten-step recording (see transfer_plan_digests.inc).
struct RecordedPatch {
  int level;
  int global_id;
  int box[4];  ///< lower i, lower j, upper i, upper j
  std::vector<std::uint64_t> digests;  ///< data id, component, depth
};

TEST(TransferPlan, TenStepsWithRegridsMatchRecordedDigests) {
  // Ten full steps crossing two regrids: every interior field of every
  // patch must hash to the value recorded from the per-transaction
  // transfer path, and the totals must match it bit for bit. Regrids
  // rebuild the schedules, so this also covers plan-cache invalidation:
  // stale plans on the new hierarchy would corrupt fields or throw.
  const RecordedPatch recorded[] = {
#include "transfer_plan_digests.inc"
  };
  app::Simulation sim(multi_patch_sod(), nullptr);
  sim.initialize();
  sim.run(10);

  ASSERT_EQ(sim.hierarchy().num_levels(), 3);
  EXPECT_EQ(bits_of(sim.last_dt()), 0x3f5ec8be6541df34ull);
  std::size_t row = 0;
  for (int l = 0; l < sim.hierarchy().num_levels(); ++l) {
    for (const auto& p : sim.hierarchy().level(l).local_patches()) {
      ASSERT_LT(row, std::size(recorded));
      const RecordedPatch& want = recorded[row++];
      ASSERT_EQ(l, want.level);
      ASSERT_EQ(p->global_id(), want.global_id) << "level " << l;
      ASSERT_EQ(p->box(), Box(want.box[0], want.box[1], want.box[2],
                              want.box[3]))
          << "level " << l << " patch " << want.global_id;
      std::size_t n = 0;
      for (int id = 0; id < p->data_count(); ++id) {
        const auto& cd = p->typed_data<CudaData>(id);
        const Centering centering =
            sim.hierarchy().variables().variable(id).centering;
        for (int k = 0; k < cd.components(); ++k) {
          // The patch interior in the component's index space: every
          // stage rewrites it each step. (Ghost cells of non-communicated
          // fields keep whatever the raw allocation held.)
          const Box region = mesh::to_centering(
              p->box(), mesh::component_centering(centering, k));
          for (int d = 0; d < cd.component(k).depth(); ++d) {
            const util::View v = cd.device_view(k, d);
            std::uint64_t h = kFnvOffset;
            for (int j = region.lower().j; j <= region.upper().j; ++j) {
              for (int i = region.lower().i; i <= region.upper().i; ++i) {
                const double x = v(i, j);
                h = fnv1a(h, &x, sizeof x);
              }
            }
            ASSERT_LT(n, want.digests.size());
            EXPECT_EQ(h, want.digests[n++])
                << "level " << l << " patch " << want.global_id << " var "
                << id << " comp " << k << " depth " << d;
          }
        }
      }
      EXPECT_EQ(n, want.digests.size());
    }
  }
  EXPECT_EQ(row, std::size(recorded));
  const auto s = sim.composite_summary();
  EXPECT_EQ(bits_of(s.mass), 0x3fe2001106a6266dull);
  EXPECT_EQ(bits_of(s.internal_energy), 0x3ff5e410bfa473e4ull);
  EXPECT_EQ(bits_of(s.kinetic_energy), 0x3f7a0476e39ed4ffull);
}

TEST(TransferPlan, StepLaunchBudgetOn512SodWithSmallPatches) {
  // The acceptance bar of the compiled-plan redesign: on the 3-level
  // 512^2 Sod with <= 64^2 patches, per-step transfer-path launches drop
  // from O(transactions) (thousands) to O(messages + 1) per exchange —
  // serially: zero pack/unpack launches and at most one local-copy
  // launch per engine execution, clipped-plan fusion notwithstanding.
  const auto compiled = [] {
    app::SimulationConfig cfg;
    cfg.problem = "sod";
    cfg.nx = 512;
    cfg.ny = 512;
    cfg.max_levels = 3;
    cfg.regrid_interval = 0;  // isolate the per-step budget
    cfg.max_patch_cells = 64 * 64;
    cfg.min_patch_size = 8;
    app::Simulation sim(cfg, nullptr);
    sim.initialize();
    sim.step();
    const auto& dev = sim.device();
    const std::uint64_t pack0 = dev.launch_count(LaunchTag::kTransferPack);
    const std::uint64_t unpack0 = dev.launch_count(LaunchTag::kTransferUnpack);
    const std::uint64_t copy0 = dev.launch_count(LaunchTag::kLocalCopy);
    sim.step();
    struct Counts {
      std::uint64_t pack, unpack, copy;
      std::size_t patches;
    } c{dev.launch_count(LaunchTag::kTransferPack) - pack0,
        dev.launch_count(LaunchTag::kTransferUnpack) - unpack0,
        dev.launch_count(LaunchTag::kLocalCopy) - copy0, 0};
    for (int l = 0; l < sim.hierarchy().num_levels(); ++l) {
      c.patches += sim.hierarchy().level(l).patch_count();
    }
    return c;
  }();
  ASSERT_GT(compiled.patches, 30u) << "config must produce many patches";
  // Serial: no messages, so no pack/unpack launches at all.
  EXPECT_EQ(compiled.pack, 0u);
  EXPECT_EQ(compiled.unpack, 0u);
  // One step executes 7 refine fill groups x 3 levels (each at most two
  // engine exchanges: same-level + coarse gather) plus 2 syncs: at most
  // one fused local-copy launch each, plus one snapshot-gather launch
  // where node/side seam reads alias writes.
  EXPECT_LE(compiled.copy, 2u * (7u * 3u * 2u + 2u));
  EXPECT_GT(compiled.copy, 0u);
}

TEST(TransferPlan, EndpointsOnTwoDevicesWithoutTopologyThrow) {
  // Patches on two devices of one rank exchange through peer-link copies,
  // which only the rank's topology can charge. A context without one must
  // reject the exchange, naming the schedule, instead of moving the data
  // some other way.
  vgpu::SimClock clock;
  vgpu::TopologySpec spec;
  spec.device_count = 2;
  vgpu::Topology topo(spec, vgpu::tesla_k20x(), &clock);
  PatchHierarchy hierarchy(
      mesh::GridGeometry(Box(0, 0, 15, 7), {0.0, 0.0}, {2.0, 1.0}), 1,
      IntVector(2, 2), 0, 1);
  const int var = hierarchy.variables().register_variable(
      hier::Variable{"u", Centering::kCell, 1, IntVector(2, 2)},
      std::make_shared<pdat::cuda::CudaDataFactory>(
          topo.device(0), Centering::kCell, IntVector(2, 2), 1));
  const std::vector<GlobalPatch> l0 = {{Box(0, 0, 7, 7), 0, 0, 0},
                                       {Box(8, 0, 15, 7), 0, 1, 1}};
  auto level0 = std::make_shared<PatchLevel>(0, IntVector(1, 1),
                                             IntVector(1, 1), l0, 0,
                                             hierarchy.geometry());
  level0->allocate_data(hierarchy.variables(), &topo);
  hierarchy.set_level(0, level0);

  ParallelContext ctx;
  RefineAlgorithm alg;
  alg.add(RefineItem{var, nullptr});
  auto sched = alg.create_schedule(level0, level0, nullptr,
                                   hierarchy.variables(), ctx, nullptr,
                                   FillMode::kGhostsOnly);
  const std::string tag =
      "tag " + std::to_string(sched->same_level_engine().tag());
  try {
    sched->fill();
    FAIL() << "cross-device exchange ran without a topology";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find(tag), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(sched->same_level_engine().compiled_executions(), 0u);

  // The same exchange with the topology runs the compiled plans and
  // moves data over the peer link.
  ctx.topology = &topo;
  auto with_topology = alg.create_schedule(level0, level0, nullptr,
                                           hierarchy.variables(), ctx,
                                           nullptr, FillMode::kGhostsOnly);
  with_topology->fill();
  EXPECT_EQ(with_topology->same_level_engine().compiled_executions(), 1u);
  EXPECT_GT(topo.device(0).transfers().peer_count +
                topo.device(1).transfers().peer_count,
            0u);
}

}  // namespace
}  // namespace ramr::xfer
