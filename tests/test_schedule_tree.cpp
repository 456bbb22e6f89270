// Box-tree schedule construction (mesh::BoxTree + the RefineSchedule /
// CoarsenSchedule builders): the tree's query against a scan, the
// builders' retained transactions against the full nested-loop
// enumeration they replaced (kept below as the oracle), and the counted
// host charge against that enumeration's formula — never above it, equal
// to it for levels that fit in one leaf, and flat under weak scaling
// where the formula grows with the square of the global patch count.
//
// Every rank's plan is built from that rank's view of the metadata
// alone: no rank thread starts, so a 16-rank layout costs 16 builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <random>
#include <vector>

#include "app/simulation.hpp"
#include "geom/coarsen_operators.hpp"
#include "geom/refine_operators.hpp"
#include "hier/patch_hierarchy.hpp"
#include "mesh/box_tree.hpp"
#include "pdat/cuda/cuda_data.hpp"
#include "vgpu/sim_clock.hpp"
#include "xfer/coarsen_schedule.hpp"
#include "xfer/refine_schedule.hpp"

namespace ramr::xfer {
namespace {

using hier::GlobalPatch;
using hier::PatchLevel;
using mesh::Box;
using mesh::BoxList;
using mesh::BoxTree;
using mesh::Centering;
using mesh::IntVector;

/// Host charge per counted box-calculus op (ParallelContext).
constexpr double kSecondsPerOp = 50.0e-9;

// ---------------------------------------------------------------------------
// The oracle: the builders' former nested-loop enumeration over every
// global destination x every global source / coarse patch, copied here
// verbatim in what it computes. It records every transaction touching
// rank `me`, in plan order, and the host ops it charged.

IntVector oracle_max_ghosts(const std::vector<RefineItem>& items,
                            const hier::VariableDatabase& db) {
  IntVector g(0, 0);
  for (const RefineItem& item : items) {
    g = mesh::componentwise_max(g, db.variable(item.var_id).ghosts);
  }
  return g;
}

IntVector oracle_min_op_ghosts(const std::vector<RefineItem>& items,
                               const hier::VariableDatabase& db) {
  IntVector g(1 << 20, 1 << 20);
  bool any = false;
  for (const RefineItem& item : items) {
    if (item.op != nullptr) {
      g = mesh::componentwise_min(g, db.variable(item.var_id).ghosts);
      any = true;
    }
  }
  return any ? g : IntVector(0, 0);
}

IntVector oracle_max_stencil(const std::vector<RefineItem>& items) {
  IntVector s(0, 0);
  for (const RefineItem& item : items) {
    if (item.op != nullptr) {
      s = mesh::componentwise_max(s, item.op->stencil_width());
    }
  }
  return s;
}

std::int64_t oracle_box_gap(const Box& a, const Box& b) {
  const int gi = std::max({0, a.lower().i - b.upper().i,
                           b.lower().i - a.upper().i});
  const int gj = std::max({0, a.lower().j - b.upper().j,
                           b.lower().j - a.upper().j});
  return gi + gj;
}

enum class Engine { kSame, kEarly, kLate };

struct OracleRefineXact {
  RefineSchedule::Xact::Kind kind;
  int src_gid;
  int dst_gid;
  std::size_t item;
  std::size_t fill;
  pdat::BoxOverlap overlap;
  Engine engine;
};

struct OracleRefine {
  std::vector<OracleRefineXact> xacts;
  std::vector<RefineSchedule::CoarseFill> fills;
  double ops = 0.0;  ///< host ops the enumeration charged
};

OracleRefine oracle_refine(const std::vector<RefineItem>& items,
                           const PatchLevel& dst_level,
                           const PatchLevel* src_level,
                           const PatchLevel* coarse_level,
                           const hier::VariableDatabase& db, int me,
                           FillMode mode) {
  OracleRefine out;
  const IntVector ghosts = oracle_max_ghosts(items, db);
  const IntVector stencil = oracle_max_stencil(items);
  const IntVector coarse_avail = oracle_min_op_ghosts(items, db);
  const bool any_op =
      std::any_of(items.begin(), items.end(),
                  [](const RefineItem& i) { return i.op != nullptr; });
  const Box dst_domain = dst_level.domain_box();
  std::int64_t overlap_pieces = 0;

  const auto add_same_level = [&](const GlobalPatch& s, const GlobalPatch& d,
                                  const BoxList& provided) {
    overlap_pieces += 8 * provided.count();
    if (s.owner_rank != me && d.owner_rank != me) {
      return;
    }
    for (std::size_t n = 0; n < items.size(); ++n) {
      const hier::Variable& var = db.variable(items[n].var_id);
      BoxList cells = provided;
      cells.intersect(d.box.grow(var.ghosts));
      pdat::BoxOverlap ov = pdat::overlap_for_region(var.centering, cells);
      if (ov.empty()) {
        continue;
      }
      out.xacts.push_back({RefineSchedule::Xact::Kind::kSameLevel, s.global_id,
                           d.global_id, n, 0, std::move(ov), Engine::kSame});
    }
  };
  const auto add_gather = [&](const GlobalPatch& c, const GlobalPatch& d,
                              const BoxList& provided, const Box& stable,
                              std::size_t fill) {
    overlap_pieces += 16;
    if (c.owner_rank != me && d.owner_rank != me) {
      return;
    }
    for (std::size_t n = 0; n < items.size(); ++n) {
      if (items[n].op == nullptr) {
        continue;
      }
      const hier::Variable& var = db.variable(items[n].var_id);
      const Box item_stable =
          var.centering == Centering::kCell ? stable : stable.shrink(1);
      BoxList early = provided;
      early.intersect(item_stable);
      BoxList late = provided;
      late.remove_intersections(item_stable);
      for (auto* part : {&early, &late}) {
        if (part->empty()) {
          continue;
        }
        part->coalesce();
        pdat::BoxOverlap ov = pdat::overlap_for_region(var.centering, *part);
        if (ov.empty()) {
          continue;
        }
        out.xacts.push_back({RefineSchedule::Xact::Kind::kCoarseGather,
                             c.global_id, d.global_id, n, fill, std::move(ov),
                             part == &early ? Engine::kEarly : Engine::kLate});
      }
    }
  };

  for (const GlobalPatch& d : dst_level.global_patches()) {
    const Box fill_box = d.box.grow(ghosts);
    BoxList remaining(fill_box);
    if (mode == FillMode::kGhostsOnly) {
      remaining.remove_intersections(d.box);
    }
    if (src_level != nullptr) {
      const bool same_object = (src_level == &dst_level);
      for (const GlobalPatch& s : src_level->global_patches()) {
        if (same_object && s.global_id == d.global_id) {
          continue;
        }
        if (remaining.empty()) {
          break;
        }
        BoxList provided = remaining;
        provided.intersect(s.box);
        if (provided.empty()) {
          continue;
        }
        provided.coalesce();
        add_same_level(s, d, provided);
        remaining.remove_intersections(s.box);
      }
    }
    BoxList in_domain = remaining;
    in_domain.intersect(dst_domain);
    if (coarse_level != nullptr && any_op && !in_domain.empty()) {
      in_domain.coalesce();
      RefineSchedule::CoarseFill cf;
      cf.dst_gid = d.global_id;
      cf.dst_owner = d.owner_rank;
      cf.fine_fill_cells = in_domain;
      cf.scratch_cells =
          fill_box.coarsen(dst_level.ratio_to_coarser()).grow(stencil)
              .intersect(coarse_level->domain_box().grow(coarse_avail));
      const std::size_t fill = out.fills.size();
      BoxList scratch_remaining(cf.scratch_cells);
      for (const GlobalPatch& c : coarse_level->global_patches()) {
        if (scratch_remaining.empty()) {
          break;
        }
        BoxList provided = scratch_remaining;
        provided.intersect(c.box);
        if (provided.empty()) {
          continue;
        }
        provided.coalesce();
        add_gather(c, d, provided, c.box, fill);
        scratch_remaining.remove_intersections(c.box);
      }
      for (const GlobalPatch& c : coarse_level->global_patches()) {
        if (scratch_remaining.empty()) {
          break;
        }
        const Box gbox = c.box.grow(coarse_avail);
        BoxList provided = scratch_remaining;
        provided.intersect(gbox);
        if (provided.empty()) {
          continue;
        }
        provided.coalesce();
        add_gather(c, d, provided, Box(), fill);
        scratch_remaining.remove_intersections(gbox);
      }
      if (!scratch_remaining.empty()) {
        BoxList covered(cf.scratch_cells);
        for (const Box& u : scratch_remaining.boxes()) {
          covered.remove_intersections(u);
        }
        for (const Box& u : scratch_remaining.boxes()) {
          const Box* best = nullptr;
          std::int64_t best_gap = 0;
          for (const Box& c : covered.boxes()) {
            const std::int64_t gap = oracle_box_gap(u, c);
            if (best == nullptr || gap < best_gap) {
              best = &c;
              best_gap = gap;
            }
          }
          if (best != nullptr) {
            cf.uncovered_clamp.emplace_back(u, *best);
          }
        }
        cf.covered = covered;
      }
      out.fills.push_back(std::move(cf));
    }
  }
  double ops = static_cast<double>(dst_level.patch_count()) *
               (src_level != nullptr ? src_level->patch_count() : 0);
  if (coarse_level != nullptr) {
    ops += static_cast<double>(dst_level.patch_count()) *
           coarse_level->patch_count();
  }
  out.ops = 4.0 * (ops + static_cast<double>(overlap_pieces));
  return out;
}

struct OracleCoarsen {
  std::vector<CoarsenSchedule::Xact> xacts;
  double ops = 0.0;
};

OracleCoarsen oracle_coarsen(const std::vector<CoarsenItem>& items,
                             const PatchLevel& coarse_level,
                             const PatchLevel& fine_level,
                             const hier::VariableDatabase& db, int me) {
  OracleCoarsen out;
  const IntVector ratio = fine_level.ratio_to_coarser();
  std::int64_t global_edges = 0;
  for (const GlobalPatch& f : fine_level.global_patches()) {
    const Box covered = f.box.coarsen(ratio);
    for (const GlobalPatch& c : coarse_level.global_patches()) {
      const Box region = covered.intersect(c.box);
      if (region.empty()) {
        continue;
      }
      ++global_edges;
      if (f.owner_rank != me && c.owner_rank != me) {
        continue;
      }
      for (std::size_t n = 0; n < items.size(); ++n) {
        pdat::BoxOverlap ov = pdat::overlap_for_region(
            db.variable(items[n].var_id).centering, BoxList(region));
        if (ov.empty()) {
          continue;
        }
        out.xacts.push_back({f.global_id, c.global_id, n, region,
                             std::move(ov)});
      }
    }
  }
  out.ops = 4.0 * static_cast<double>(fine_level.patch_count()) *
                coarse_level.patch_count() +
            16.0 * static_cast<double>(global_edges);
  return out;
}

// ---------------------------------------------------------------------------
// Comparison.

bool same_boxes(const BoxList& a, const BoxList& b) {
  return a.boxes() == b.boxes();
}

bool same_overlap(const pdat::BoxOverlap& a, const pdat::BoxOverlap& b) {
  if (a.centering() != b.centering() || a.components() != b.components() ||
      a.src_shift() != b.src_shift()) {
    return false;
  }
  for (int k = 0; k < a.components(); ++k) {
    if (!same_boxes(a.component(k), b.component(k))) {
      return false;
    }
  }
  return true;
}

bool same_fill(const RefineSchedule::CoarseFill& a,
               const RefineSchedule::CoarseFill& b) {
  return a.dst_gid == b.dst_gid && a.dst_owner == b.dst_owner &&
         a.scratch_cells == b.scratch_cells &&
         same_boxes(a.fine_fill_cells, b.fine_fill_cells) &&
         a.uncovered_clamp == b.uncovered_clamp &&
         same_boxes(a.covered, b.covered);
}

/// The tree-built schedule retains the oracle's transactions, in order,
/// with the same overlaps, engines and coarse fills; and it holds the
/// oracle's fills of every destination this rank owns, in order.
void expect_same_refine(const RefineSchedule& sched, const OracleRefine& want,
                        int me) {
  const auto& got = sched.transactions();
  ASSERT_EQ(got.size(), want.xacts.size());
  std::size_t engine_count[3] = {0, 0, 0};
  for (std::size_t h = 0; h < got.size(); ++h) {
    const auto& g = got[h];
    const auto& w = want.xacts[h];
    ASSERT_EQ(g.kind, w.kind) << "transaction " << h;
    ASSERT_EQ(g.src_gid, w.src_gid) << "transaction " << h;
    ASSERT_EQ(g.dst_gid, w.dst_gid) << "transaction " << h;
    ASSERT_EQ(g.item, w.item) << "transaction " << h;
    ASSERT_TRUE(same_overlap(g.overlap, w.overlap)) << "transaction " << h;
    if (g.kind == RefineSchedule::Xact::Kind::kCoarseGather) {
      ASSERT_LT(g.fill, sched.coarse_fills().size());
      ASSERT_TRUE(same_fill(sched.coarse_fills()[g.fill], want.fills[w.fill]))
          << "fill of transaction " << h;
    }
    ++engine_count[static_cast<int>(w.engine)];
  }
  EXPECT_EQ(sched.same_level_engine().transaction_count(), engine_count[0]);
  EXPECT_EQ(sched.coarse_engine().transaction_count(), engine_count[1]);
  EXPECT_EQ(sched.coarse_late_engine().transaction_count(), engine_count[2]);

  std::vector<const RefineSchedule::CoarseFill*> mine_got;
  std::vector<const RefineSchedule::CoarseFill*> mine_want;
  for (const auto& cf : sched.coarse_fills()) {
    if (cf.dst_owner == me) {
      mine_got.push_back(&cf);
    }
  }
  for (const auto& cf : want.fills) {
    if (cf.dst_owner == me) {
      mine_want.push_back(&cf);
    }
  }
  ASSERT_EQ(mine_got.size(), mine_want.size());
  for (std::size_t n = 0; n < mine_got.size(); ++n) {
    EXPECT_TRUE(same_fill(*mine_got[n], *mine_want[n])) << "own fill " << n;
  }
}

void expect_same_coarsen(const CoarsenSchedule& sched,
                         const OracleCoarsen& want) {
  const auto& got = sched.transactions();
  ASSERT_EQ(got.size(), want.xacts.size());
  for (std::size_t h = 0; h < got.size(); ++h) {
    ASSERT_EQ(got[h].fine_gid, want.xacts[h].fine_gid) << "transaction " << h;
    ASSERT_EQ(got[h].coarse_gid, want.xacts[h].coarse_gid)
        << "transaction " << h;
    ASSERT_EQ(got[h].item, want.xacts[h].item) << "transaction " << h;
    ASSERT_EQ(got[h].coarse_cells, want.xacts[h].coarse_cells)
        << "transaction " << h;
    ASSERT_TRUE(same_overlap(got[h].overlap, want.xacts[h].overlap))
        << "transaction " << h;
  }
  EXPECT_EQ(sched.transfer_engine().transaction_count(), got.size());
}

// ---------------------------------------------------------------------------
// Per-rank layouts: global metadata, rebuilt as each rank sees it.

/// One level's replicated metadata.
struct LevelMeta {
  int number = 0;
  IntVector ratio_to_coarser{1, 1};
  IntVector ratio_to_zero{1, 1};
  std::vector<GlobalPatch> patches;

  std::shared_ptr<PatchLevel> on_rank(int rank,
                                      const mesh::GridGeometry& geom) const {
    return std::make_shared<PatchLevel>(number, ratio_to_coarser,
                                        ratio_to_zero, patches, rank, geom);
  }
};

LevelMeta meta_of(const PatchLevel& level) {
  return LevelMeta{level.number(), level.ratio_to_coarser(),
                   level.ratio_to_level_zero(), level.global_patches()};
}

/// Variables of every centring, with and without interpolation, and the
/// refine / coarsen item sets over them.
struct Items {
  vgpu::Device device{vgpu::tesla_k20x()};
  hier::VariableDatabase db;
  std::vector<RefineItem> refine;
  std::vector<CoarsenItem> coarsen;

  Items() {
    const auto add = [&](const char* name, Centering c, int ghosts) {
      return db.register_variable(
          hier::Variable{name, c, 1, IntVector(ghosts, ghosts)},
          std::make_shared<pdat::cuda::CudaDataFactory>(
              device, c, IntVector(ghosts, ghosts), 1));
    };
    const int cell = add("cell", Centering::kCell, 2);
    const int node = add("node", Centering::kNode, 2);
    const int side = add("side", Centering::kSide, 2);
    const int work = add("work", Centering::kCell, 3);
    refine = {{cell, std::make_shared<geom::CellConservativeLinearRefine>()},
              {node, std::make_shared<geom::NodeLinearRefine>()},
              {side, std::make_shared<geom::SideConservativeLinearRefine>()},
              {work, nullptr}};
    coarsen = {{cell, std::make_shared<geom::VolumeWeightedCoarsen>(), -1},
               {node, std::make_shared<geom::NodeInjectionCoarsen>(), -1},
               {side, std::make_shared<geom::SideSumCoarsen>(), -1}};
  }
};

/// A schedule built on one rank, and the host ops its build charged.
struct Built {
  std::unique_ptr<RefineSchedule> refine;
  std::unique_ptr<CoarsenSchedule> coarsen;
  double charged_ops = 0.0;
};

Built build_refine(const Items& items, const std::vector<RefineItem>& which,
                   const std::shared_ptr<PatchLevel>& dst,
                   const std::shared_ptr<PatchLevel>& src,
                   const std::shared_ptr<PatchLevel>& coarse, int rank,
                   int world, FillMode mode) {
  vgpu::SimClock clock;
  ParallelContext ctx;
  ctx.my_rank = rank;
  ctx.world_size = world;
  ctx.clock = &clock;
  RefineAlgorithm alg;
  for (const RefineItem& item : which) {
    alg.add(item);
  }
  Built b;
  b.refine = alg.create_schedule(dst, src, coarse, items.db, ctx, nullptr,
                                 mode);
  b.charged_ops = clock.total() / kSecondsPerOp;
  return b;
}

Built build_coarsen(const Items& items, const std::shared_ptr<PatchLevel>& coarse,
                    const std::shared_ptr<PatchLevel>& fine, int rank,
                    int world) {
  vgpu::SimClock clock;
  ParallelContext ctx;
  ctx.my_rank = rank;
  ctx.world_size = world;
  ctx.clock = &clock;
  CoarsenAlgorithm alg;
  for (const CoarsenItem& item : items.coarsen) {
    alg.add(item);
  }
  Built b;
  b.coarsen = alg.create_schedule(coarse, fine, items.db, ctx);
  b.charged_ops = clock.total() / kSecondsPerOp;
  return b;
}

/// A two-level (or three, with an old fine level standing in for the
/// level a regrid replaces) layout in global metadata.
struct Layout {
  mesh::GridGeometry geometry;
  LevelMeta coarse;
  LevelMeta fine;
  LevelMeta old_fine;  ///< source of the regrid-style fill
};

/// What the oracle and the builders are compared on for one layout: the
/// halo fill (dst = src = fine, from coarse), the regrid fill (dst = fine,
/// src = old fine, interior and ghosts), the same-level-only fill and the
/// fine-to-coarse sync, on every rank of `world`. Returns the largest
/// charge ratio new / oracle seen.
double compare_layout(const Items& items, const Layout& layout, int world) {
  double worst = 0.0;
  for (int rank = 0; rank < world; ++rank) {
    SCOPED_TRACE(::testing::Message() << "rank " << rank << " of " << world);
    const auto coarse = layout.coarse.on_rank(rank, layout.geometry);
    const auto fine = layout.fine.on_rank(rank, layout.geometry);
    const auto old_fine = layout.old_fine.on_rank(rank, layout.geometry);
    struct Case {
      const char* name;
      std::vector<RefineItem> items;
      std::shared_ptr<PatchLevel> dst, src, crs;
      FillMode mode;
    };
    const std::vector<RefineItem> copy_only = {items.refine.back()};
    const Case cases[] = {
        {"halo", items.refine, fine, fine, coarse, FillMode::kGhostsOnly},
        {"regrid", items.refine, fine, old_fine, coarse,
         FillMode::kInteriorAndGhosts},
        {"coarse halo", items.refine, coarse, coarse, nullptr,
         FillMode::kGhostsOnly},
        {"copy only", copy_only, fine, fine, coarse, FillMode::kGhostsOnly},
    };
    for (const Case& c : cases) {
      SCOPED_TRACE(c.name);
      const Built b = build_refine(items, c.items, c.dst, c.src, c.crs, rank,
                                   world, c.mode);
      const OracleRefine want =
          oracle_refine(c.items, *c.dst, c.src.get(), c.crs.get(), items.db,
                        rank, c.mode);
      expect_same_refine(*b.refine, want, rank);
      worst = std::max(worst, b.charged_ops / want.ops);
    }
    {
      SCOPED_TRACE("sync");
      const Built b = build_coarsen(items, coarse, fine, rank, world);
      const OracleCoarsen want =
          oracle_coarsen(items.coarsen, *coarse, *fine, items.db, rank);
      expect_same_coarsen(*b.coarsen, want);
      worst = std::max(worst, b.charged_ops / want.ops);
    }
  }
  return worst;
}

// ---------------------------------------------------------------------------
// Seeded random layouts.

std::uint32_t draw(std::mt19937& rng, std::uint32_t n) { return rng() % n; }

/// Tiles `domain` by repeatedly splitting the largest box at a random
/// position along its longer axis until `target` boxes exist.
std::vector<Box> random_tiling(const Box& domain, int min_size, int target,
                               std::mt19937& rng) {
  std::vector<Box> boxes = {domain};
  while (static_cast<int>(boxes.size()) < target) {
    const auto it = std::max_element(
        boxes.begin(), boxes.end(),
        [](const Box& a, const Box& b) { return a.size() < b.size(); });
    const Box b = *it;
    const bool along_i = b.width() >= b.height();
    const int extent = along_i ? b.width() : b.height();
    if (extent < 2 * min_size) {
      break;
    }
    const int cut = min_size + static_cast<int>(draw(
        rng, static_cast<std::uint32_t>(extent - 2 * min_size + 1)));
    Box lo;
    Box hi;
    if (along_i) {
      const int m = b.lower().i + cut;
      lo = Box(b.lower().i, b.lower().j, m - 1, b.upper().j);
      hi = Box(m, b.lower().j, b.upper().i, b.upper().j);
    } else {
      const int m = b.lower().j + cut;
      lo = Box(b.lower().i, b.lower().j, b.upper().i, m - 1);
      hi = Box(b.lower().i, m, b.upper().i, b.upper().j);
    }
    *it = lo;
    boxes.push_back(hi);
  }
  return boxes;
}

/// Metadata over `boxes`, keeping each with probability keep/8: random
/// owners among `world` ranks and shuffled global ids (never equal to
/// the metadata index).
LevelMeta random_level(int number, IntVector ratio, IntVector to_zero,
                       const std::vector<Box>& boxes, int keep, int world,
                       std::mt19937& rng) {
  LevelMeta meta{number, ratio, to_zero, {}};
  for (const Box& b : boxes) {
    if (static_cast<int>(draw(rng, 8)) < keep) {
      meta.patches.push_back(GlobalPatch{b, 0, 0, 0});
    }
  }
  std::vector<int> ids(meta.patches.size());
  std::iota(ids.begin(), ids.end(), 0);
  std::shuffle(ids.begin(), ids.end(), rng);
  for (std::size_t n = 0; n < meta.patches.size(); ++n) {
    meta.patches[n].owner_rank =
        static_cast<int>(draw(rng, static_cast<std::uint32_t>(world)));
    meta.patches[n].global_id = 7 + 3 * ids[n];
  }
  return meta;
}

Layout random_layout(int ratio, int world, std::uint32_t seed) {
  std::mt19937 rng(seed);
  const Box domain(0, 0, 119, 95);
  const IntVector r(ratio, ratio);
  Layout layout{mesh::GridGeometry(domain, {0.0, 0.0}, {1.0, 0.8}), {}, {}, {}};
  layout.coarse = random_level(0, IntVector(1, 1), IntVector(1, 1),
                               random_tiling(domain, 3, 220, rng), 8, world,
                               rng);
  const Box fine_domain = domain.refine(r);
  layout.fine = random_level(1, r, r,
                             random_tiling(fine_domain, 4, 400, rng), 5,
                             world, rng);
  layout.old_fine = random_level(1, r, r,
                                 random_tiling(fine_domain, 4, 400, rng), 5,
                                 world, rng);
  return layout;
}

TEST(BoxTree, QueryMatchesScanInAscendingOrder) {
  std::mt19937 rng(5);
  std::vector<Box> boxes;
  for (int n = 0; n < 300; ++n) {  // overlapping boxes are fine too
    const int i = static_cast<int>(draw(rng, 200)) - 20;
    const int j = static_cast<int>(draw(rng, 150)) - 20;
    boxes.emplace_back(i, j, i + static_cast<int>(draw(rng, 24)),
                       j + static_cast<int>(draw(rng, 24)));
  }
  const BoxTree tree(boxes);
  EXPECT_EQ(tree.size(), boxes.size());
  EXPECT_GT(tree.build_work(), 0);
  std::vector<int> hits;
  for (int q = 0; q < 200; ++q) {
    const int i = static_cast<int>(draw(rng, 220)) - 30;
    const int j = static_cast<int>(draw(rng, 170)) - 30;
    const Box region(i, j, i + static_cast<int>(draw(rng, 40)),
                     j + static_cast<int>(draw(rng, 40)));
    BoxTree::Work work;
    tree.query(region, hits, work);
    std::vector<int> scan;
    for (std::size_t n = 0; n < boxes.size(); ++n) {
      if (boxes[n].intersects(region)) {
        scan.push_back(static_cast<int>(n));
      }
    }
    ASSERT_EQ(hits, scan) << "query " << region;
    EXPECT_LT(work.tests, static_cast<std::int64_t>(boxes.size()));
  }
}

TEST(BoxTree, OneLeafCostsExactlyAScan) {
  std::vector<Box> boxes;
  for (int n = 0; n < BoxTree::kLeafSize; ++n) {
    boxes.emplace_back(4 * n, 0, 4 * n + 3, 3);
  }
  const BoxTree tree(boxes);
  EXPECT_EQ(tree.build_work(), 0);
  BoxTree::Work work;
  std::vector<int> hits;
  tree.query(Box(5, 1, 9, 2), hits, work);
  EXPECT_EQ(hits, (std::vector<int>{1, 2}));
  EXPECT_EQ(work.nodes, 0);
  EXPECT_EQ(work.tests, BoxTree::kLeafSize);
}

TEST(ScheduleOracle, RandomLayoutsRetainTheFullEnumerationsTransactions) {
  const Items items;
  for (const int ratio : {2, 4}) {
    for (const int world : {1, 2, 4, 16}) {
      SCOPED_TRACE(::testing::Message() << "ratio " << ratio);
      const Layout layout =
          random_layout(ratio, world, 1000u * ratio + world);
      ASSERT_GE(layout.coarse.patches.size(), 200u);
      ASSERT_GE(layout.fine.patches.size(), 200u);
      compare_layout(items, layout, world);
    }
  }
}

/// The stock problems' initial hierarchies, many patches per level.
std::vector<std::unique_ptr<app::Simulation>> stock_simulations() {
  std::vector<std::unique_ptr<app::Simulation>> sims;
  for (const char* problem : {"sod", "triple_point"}) {
    app::SimulationConfig cfg;
    cfg.problem = problem;
    cfg.nx = problem == std::string("sod") ? 128 : 112;
    cfg.ny = problem == std::string("sod") ? 128 : 48;
    cfg.max_levels = 3;
    cfg.max_patch_cells = 16 * 16;
    cfg.min_patch_size = 8;
    sims.push_back(std::make_unique<app::Simulation>(cfg, nullptr));
    sims.back()->initialize();
  }
  return sims;
}

/// The hierarchy's level pair (l-1, l) with owners dealt out to `world`
/// ranks in contiguous metadata blocks (the balancer's curve order).
Layout stock_layout(app::Simulation& sim, int l, int world) {
  const auto& h = sim.hierarchy();
  Layout layout{h.geometry(), meta_of(h.level(l - 1)), meta_of(h.level(l)),
                meta_of(h.level(l))};
  for (LevelMeta* meta : {&layout.coarse, &layout.fine, &layout.old_fine}) {
    const std::size_t n = meta->patches.size();
    for (std::size_t p = 0; p < n; ++p) {
      meta->patches[p].owner_rank = static_cast<int>(p * world / n);
    }
  }
  return layout;
}

TEST(ScheduleOracle, StockHierarchiesRetainTheFullEnumerationsTransactions) {
  const Items items;
  for (const auto& sim : stock_simulations()) {
    ASSERT_GE(sim->hierarchy().num_levels(), 2);
    for (int l = 1; l < sim->hierarchy().num_levels(); ++l) {
      for (const int world : {1, 2, 4, 16}) {
        SCOPED_TRACE(::testing::Message() << "level " << l);
        compare_layout(items, stock_layout(*sim, l, world), world);
      }
    }
  }
}

TEST(ScheduleCharge, NeverAboveTheFullEnumerationOnStockLevels) {
  // Every level pair of the stock problems, 1 and 2 ranks: the counted
  // charge of every schedule is at most the enumeration's formula.
  const Items items;
  for (const auto& sim : stock_simulations()) {
    for (int l = 1; l < sim->hierarchy().num_levels(); ++l) {
      for (const int world : {1, 2}) {
        SCOPED_TRACE(::testing::Message() << "level " << l << ", " << world
                                          << " ranks");
        EXPECT_LE(compare_layout(items, stock_layout(*sim, l, world), world),
                  1.0);
      }
    }
  }
}

TEST(ScheduleCharge, LevelsOfOneLeafChargeExactlyTheFullEnumeration) {
  // Levels that fit in one leaf (every level of the service workloads):
  // planning them walks the leaf exactly as the enumeration walked the
  // level, so the charge is the enumeration's to the op.
  const Items items;
  std::mt19937 rng(9);
  const Box domain(0, 0, 63, 63);
  Layout layout{mesh::GridGeometry(domain, {0.0, 0.0}, {1.0, 1.0}), {}, {},
                {}};
  const IntVector r(2, 2);
  layout.coarse = random_level(0, IntVector(1, 1), IntVector(1, 1),
                               random_tiling(domain, 8, 10, rng), 8, 1, rng);
  layout.fine = random_level(1, r, r,
                             random_tiling(domain.refine(r), 8, 16, rng), 6,
                             1, rng);
  layout.old_fine = random_level(1, r, r,
                                 random_tiling(domain.refine(r), 8, 14, rng),
                                 6, 1, rng);
  ASSERT_LE(layout.fine.patches.size(),
            static_cast<std::size_t>(BoxTree::kLeafSize));
  const auto coarse = layout.coarse.on_rank(0, layout.geometry);
  const auto fine = layout.fine.on_rank(0, layout.geometry);
  const auto old_fine = layout.old_fine.on_rank(0, layout.geometry);
  for (const FillMode mode :
       {FillMode::kGhostsOnly, FillMode::kInteriorAndGhosts}) {
    const auto& src = mode == FillMode::kGhostsOnly ? fine : old_fine;
    const Built b =
        build_refine(items, items.refine, fine, src, coarse, 0, 1, mode);
    const OracleRefine want = oracle_refine(items.refine, *fine, src.get(),
                                            coarse.get(), items.db, 0, mode);
    EXPECT_DOUBLE_EQ(b.charged_ops, want.ops);
  }
  const Built sync = build_coarsen(items, coarse, fine, 0, 1);
  EXPECT_DOUBLE_EQ(sync.charged_ops,
                   oracle_coarsen(items.coarsen, *coarse, *fine, items.db, 0)
                       .ops);
}

/// Weak-scaled layout: `side` x `side` ranks, each owning a k x k tile of
/// 16^2 coarse patches, refined whole by 2 into 32^2 fine patches.
Layout weak_layout(int side, int k) {
  constexpr int kPatch = 16;
  const int cells = side * k * kPatch;
  const Box domain(0, 0, cells - 1, cells - 1);
  const IntVector r(2, 2);
  Layout layout{mesh::GridGeometry(domain, {0.0, 0.0}, {1.0, 1.0}),
                LevelMeta{0, IntVector(1, 1), IntVector(1, 1), {}},
                LevelMeta{1, r, r, {}}, LevelMeta{1, r, r, {}}};
  const int n = side * k;
  for (int pj = 0; pj < n; ++pj) {
    for (int pi = 0; pi < n; ++pi) {
      const Box b(pi * kPatch, pj * kPatch, (pi + 1) * kPatch - 1,
                  (pj + 1) * kPatch - 1);
      const int owner = (pj / k) * side + pi / k;
      const int id = static_cast<int>(layout.coarse.patches.size());
      layout.coarse.patches.push_back(GlobalPatch{b, owner, id, 0});
      layout.fine.patches.push_back(GlobalPatch{b.refine(r), owner, id, 0});
    }
  }
  layout.old_fine = layout.fine;
  return layout;
}

TEST(ScheduleCharge, WeakScalingKeepsPerRankWorkFlat) {
  // The slowest rank's counted ops for one halo fill and one sync, trees
  // built by these very schedules: from 4 to 16 ranks (4x the global
  // patches, the same local tile) they grow by less than 2x, where the
  // full enumeration's formula grows by about 16x.
  const Items items;
  const auto worst_ops = [&](int side, double* formula) {
    const Layout layout = weak_layout(side, 8);
    double worst = 0.0;
    for (int rank = 0; rank < side * side; ++rank) {
      const auto coarse = layout.coarse.on_rank(rank, layout.geometry);
      const auto fine = layout.fine.on_rank(rank, layout.geometry);
      const Built halo = build_refine(items, items.refine, fine, fine, coarse,
                                      rank, side * side,
                                      FillMode::kGhostsOnly);
      const Built sync = build_coarsen(items, coarse, fine, rank, side * side);
      worst = std::max(worst, halo.charged_ops + sync.charged_ops);
      if (rank == 0) {
        *formula = oracle_refine(items.refine, *fine, fine.get(), coarse.get(),
                                 items.db, rank, FillMode::kGhostsOnly)
                       .ops +
                   oracle_coarsen(items.coarsen, *coarse, *fine, items.db,
                                  rank)
                       .ops;
      }
    }
    return worst;
  };
  double formula4 = 0.0;
  double formula16 = 0.0;
  const double ops4 = worst_ops(2, &formula4);
  const double ops16 = worst_ops(4, &formula16);
  EXPECT_LT(ops16, 2.0 * ops4) << ops4 << " -> " << ops16;
  EXPECT_GT(formula16, 10.0 * formula4) << formula4 << " -> " << formula16;
  EXPECT_LT(ops16, formula16 / 10.0);
}

}  // namespace
}  // namespace ramr::xfer
