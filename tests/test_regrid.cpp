// Regression tests for the regrid path: clustering, tag buffering and
// the level-wide tag pass against values recorded from the per-cell
// reference implementation they replaced (box lists as FNV-1a digests,
// tag counts, compressed tag words), plus the schedule reuse across
// regrids. Every expected value below is a recording, not a property:
// a change that moves one changes what the regrid computes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <sstream>
#include <string>

#include "amr/berger_rigoutsos.hpp"
#include "amr/gridding_algorithm.hpp"
#include "amr/tag_buffer.hpp"
#include "app/simulation.hpp"
#include "cfg/config.hpp"
#include "pdat/cuda/cuda_data.hpp"
#include "util/fnv1a.hpp"
#include "vgpu/device_spec.hpp"

namespace ramr::amr {
namespace {

using mesh::Box;

using util::fnv1a;
using util::kFnvOffset;

/// A box list as recorded: count, total cells, FNV-1a over the corners.
struct BoxListDigest {
  std::size_t count = 0;
  std::int64_t cells = 0;
  std::uint64_t digest = 0;
  bool operator==(const BoxListDigest&) const = default;
};

BoxListDigest digest_of(const std::vector<Box>& boxes) {
  BoxListDigest d{boxes.size(), 0, kFnvOffset};
  for (const Box& b : boxes) {
    const int c[4] = {b.lower().i, b.lower().j, b.upper().i, b.upper().j};
    d.digest = fnv1a(d.digest, c, sizeof c);
    d.cells += b.size();
  }
  return d;
}

std::string describe(const std::vector<Box>& boxes) {
  std::ostringstream os;
  const BoxListDigest d = digest_of(boxes);
  os << "{" << d.count << ", " << d.cells << ", 0x" << std::hex << d.digest
     << "ull}:";
  for (const Box& b : boxes) {
    os << " " << b;
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Synthetic bitmaps: seeded random, ring, stripe and blob tags over
// regions with widths that are not multiples of 32 or 64, negative lower
// corners, and tag buffers at least as wide as the region.

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

enum class Pattern { kRandom, kRing, kStripes, kBlobs };

struct Case {
  const char* name;
  Box region;
  Pattern pattern;
  std::uint64_t seed;
  int per_mille;  ///< random tag density
  int buffer;
  double efficiency;
  int min_size;
};

TagBitmap make_tags(const Case& c) {
  TagBitmap tags(c.region);
  std::uint64_t s = c.seed;
  const Box& r = c.region;
  const double ci = 0.5 * (r.lower().i + r.upper().i);
  const double cj = 0.5 * (r.lower().j + r.upper().j);
  const double rad = 0.3 * std::min(r.width(), r.height());
  std::vector<std::array<int, 3>> blobs;
  if (c.pattern == Pattern::kBlobs) {
    for (int b = 0; b < 6; ++b) {
      blobs.push_back({r.lower().i + static_cast<int>(splitmix(s) % r.width()),
                       r.lower().j + static_cast<int>(splitmix(s) % r.height()),
                       1 + static_cast<int>(splitmix(s) % 9)});
    }
  }
  for (int j = r.lower().j; j <= r.upper().j; ++j) {
    for (int i = r.lower().i; i <= r.upper().i; ++i) {
      bool tag = false;
      switch (c.pattern) {
        case Pattern::kRandom:
          tag = static_cast<int>(splitmix(s) % 1000) < c.per_mille;
          break;
        case Pattern::kRing:
          tag = std::fabs(std::hypot(i - ci, j - cj) - rad) <= 1.5;
          break;
        case Pattern::kStripes:
          tag = ((i - r.lower().i) % 37 == 5) || ((i + 2 * j) % 53 == 0);
          break;
        case Pattern::kBlobs:
          for (const auto& b : blobs) {
            if (std::abs(i - b[0]) <= b[2] &&
                std::abs(j - b[1]) <= b[2] / 2 + 1) {
              tag = true;
            }
          }
          if (static_cast<int>(splitmix(s) % 1000) < c.per_mille) {
            tag = true;
          }
          break;
      }
      if (tag) {
        tags.set(i, j);
      }
    }
  }
  return tags;
}

const std::vector<Case>& cases() {
  using P = Pattern;
  static const std::vector<Case> k = {
      {"random_w100_neg", Box(-37, -11, 62, 40), P::kRandom, 1, 30, 2, 0.75, 4},
      {"random_sparse_w131", Box(0, 0, 130, 70), P::kRandom, 2, 4, 1, 0.8, 3},
      {"random_dense_w63", Box(-63, -63, -1, 33), P::kRandom, 3, 250, 0, 0.7, 2},
      {"random_w65_b3", Box(100, -7, 164, 50), P::kRandom, 4, 10, 3, 0.75, 4},
      {"ring_w129", Box(-64, -64, 64, 70), P::kRing, 5, 0, 2, 0.75, 4},
      {"ring_w96_unbuffered", Box(3, 1, 98, 90), P::kRing, 6, 0, 0, 0.85, 2},
      {"stripes_w95", Box(5, -20, 99, 60), P::kStripes, 7, 0, 1, 0.7, 4},
      {"stripes_w200_b2", Box(-100, 0, 99, 33), P::kStripes, 8, 0, 2, 0.75, 8},
      {"blobs_w77", Box(-30, -30, 46, 50), P::kBlobs, 9, 2, 2, 0.75, 4},
      {"blobs_w257", Box(0, -3, 256, 120), P::kBlobs, 10, 1, 1, 0.9, 4},
      {"narrow_b_ge_width", Box(-4, 0, 5, 40), P::kRandom, 11, 15, 12, 0.75, 4},
      {"single_column_b_ge_width", Box(7, -9, 7, 30), P::kRandom, 12, 50, 3, 0.75, 1},
      {"single_row_w33", Box(-16, 2, 16, 2), P::kRandom, 13, 100, 40, 0.75, 2},
  };
  return k;
}

/// Recorded per case: tag counts (raw, raw inside the region shrunk by
/// 3, after buffering) and the clustering of the raw tags, of the
/// buffered tags, and of the buffered tags within a box that pokes out
/// of the region.
struct Recorded {
  const char* name;
  std::int64_t raw;
  std::int64_t raw_inner;
  std::int64_t buffered;
  BoxListDigest raw_boxes;
  BoxListDigest boxes;
  BoxListDigest within_boxes;
};

const std::vector<Recorded>& recorded() {
  static const std::vector<Recorded> k = {
    {"random_w100_neg", 162, 134, 2790,
     {79, 711, 0xbb4e51e613b0f184ull},
     {78, 3500, 0x77a946f69a413569ull},
     {47, 1793, 0xc12339af00cc86aeull}},
    {"random_sparse_w131", 41, 35, 353,
     {40, 43, 0xee19111eaa7f16b7ull},
     {39, 367, 0x86fe047c0ac57528ull},
     {23, 202, 0x001560a61abd6b37ull}},
    {"random_dense_w63", 1561, 1329, 1561,
     {548, 3044, 0xe107c4492f9f6847ull},
     {548, 3044, 0xe107c4492f9f6847ull},
     {273, 1584, 0xc01db139636bf3e6ull}},
    {"random_w65_b3", 41, 38, 1639,
     {31, 174, 0xff772793d49764c9ull},
     {36, 1891, 0x5cbbedc381102e18ull},
     {21, 946, 0x008bfae37d6cb3a3ull}},
    {"ring_w129", 724, 724, 1972,
     {47, 1074, 0x3fc0993eee548cfcull},
     {38, 2532, 0x1ccbeef25032b4adull},
     {24, 1365, 0x3440f739d16275fcull}},
    {"ring_w96_unbuffered", 504, 504, 504,
     {61, 605, 0x1446c2e761f75833ull},
     {61, 605, 0x1446c2e761f75833ull},
     {35, 323, 0x21351b7fd8545359ull}},
    {"stripes_w95", 383, 345, 1641,
     {84, 890, 0x6fb2a90442ec04a2ull},
     {77, 2227, 0xd85291842ec1c1e8ull},
     {35, 1203, 0x3cdb4562db5c3338ull}},
    {"stripes_w200_b2", 326, 267, 2364,
     {33, 1771, 0xb1c9e0faffd0dbb7ull},
     {39, 3392, 0x896f3388fe8506bfull},
     {19, 1783, 0xb7c6a0e32fce4dabull}},
    {"blobs_w77", 559, 514, 1277,
     {16, 573, 0x7e47065c756b4853ull},
     {15, 1344, 0x338303a82b65cec9ull},
     {11, 753, 0x3f93312feb5c9764ull}},
    {"blobs_w257", 499, 498, 952,
     {32, 527, 0xde6be00ac361a83eull},
     {33, 962, 0xb1404f8d022912bcull},
     {21, 543, 0x487f8661862601c6ull}},
    {"narrow_b_ge_width", 7, 1, 410,
     {4, 19, 0xb30fa3b1a3e23561ull},
     {1, 410, 0x392a3bf90b6c3511ull},
     {1, 217, 0x8c726ee3db6229c4ull}},
    {"single_column_b_ge_width", 2, 0, 13,
     {2, 2, 0x2e54d11f36965e63ull},
     {2, 13, 0x4440e798dbc6e3d2ull},
     {1, 7, 0xbd5d8aafef465485ull}},
    {"single_row_w33", 4, 0, 33,
     {4, 4, 0xc7ac908e6dcde37bull},
     {1, 33, 0xaff6f45afcdcdb78ull},
     {1, 22, 0xbe1717cf094749b3ull}},
  };
  return k;
}

Box poking_box(const Box& region) {
  return Box(region.lower().i + region.width() / 3, region.lower().j - 5,
             region.upper().i + 9, region.upper().j - region.height() / 4);
}

/// The (2b+1)^2 dilation, clipped to the region, cell by cell.
std::vector<bool> brute_force_dilation(const TagBitmap& tags, int b) {
  const Box& r = tags.region();
  std::vector<bool> out(static_cast<std::size_t>(r.size()), false);
  for (int j = r.lower().j; j <= r.upper().j; ++j) {
    for (int i = r.lower().i; i <= r.upper().i; ++i) {
      if (!tags.is_tagged(i, j)) {
        continue;
      }
      for (int jj = std::max(j - b, r.lower().j);
           jj <= std::min(j + b, r.upper().j); ++jj) {
        for (int ii = std::max(i - b, r.lower().i);
             ii <= std::min(i + b, r.upper().i); ++ii) {
          out[static_cast<std::size_t>(jj - r.lower().j) * r.width() +
              (ii - r.lower().i)] = true;
        }
      }
    }
  }
  return out;
}

TEST(ClusteringRegression, SyntheticBitmapsMatchTheRecordedBoxes) {
  ASSERT_EQ(cases().size(), recorded().size());
  for (std::size_t n = 0; n < cases().size(); ++n) {
    const Case& c = cases()[n];
    const Recorded& want = recorded()[n];
    SCOPED_TRACE(c.name);
    ASSERT_STREQ(c.name, want.name);
    ClusterParams p;
    p.efficiency = c.efficiency;
    p.min_size = c.min_size;
    TagBitmap tags = make_tags(c);
    EXPECT_EQ(tags.count_tags(), want.raw);
    const Box inner = c.region.grow(-3);
    EXPECT_EQ(inner.empty() ? 0 : tags.count_tags(inner), want.raw_inner);
    const auto raw_boxes = berger_rigoutsos(tags, tags.region(), p);
    EXPECT_EQ(digest_of(raw_boxes), want.raw_boxes) << describe(raw_boxes);

    const std::vector<bool> dilated = brute_force_dilation(tags, c.buffer);
    tags.buffer(c.buffer);
    std::int64_t mismatches = 0;
    for (int j = c.region.lower().j; j <= c.region.upper().j; ++j) {
      for (int i = c.region.lower().i; i <= c.region.upper().i; ++i) {
        const bool want_tag =
            dilated[static_cast<std::size_t>(j - c.region.lower().j) *
                        c.region.width() +
                    (i - c.region.lower().i)];
        mismatches += tags.is_tagged(i, j) != want_tag ? 1 : 0;
      }
    }
    EXPECT_EQ(mismatches, 0);
    EXPECT_EQ(tags.count_tags(), want.buffered);
    EXPECT_EQ(tags.count_tags(),
              std::count(dilated.begin(), dilated.end(), true));

    const auto boxes = berger_rigoutsos(tags, c.region, p);
    EXPECT_EQ(digest_of(boxes), want.boxes) << describe(boxes);
    const auto within = berger_rigoutsos(tags, poking_box(c.region), p);
    EXPECT_EQ(digest_of(within), want.within_boxes) << describe(within);
  }
}

TEST(ClusteringRegression, BufferMatchesBruteForceForEveryRadius) {
  // Radii 1..70 over a region 67 wide: multi-word shifts, radii past
  // the width and height, and the doubling schedule's uneven last step.
  const Box region(-29, 5, 37, 44);
  for (int b = 1; b <= 70; b += (b < 10 ? 1 : 7)) {
    SCOPED_TRACE(b);
    TagBitmap tags = make_tags(
        Case{"sparse", region, Pattern::kRandom, 99, 3, b, 0.75, 4});
    const std::vector<bool> want = brute_force_dilation(tags, b);
    tags.buffer(b);
    for (int j = region.lower().j; j <= region.upper().j; ++j) {
      for (int i = region.lower().i; i <= region.upper().i; ++i) {
        ASSERT_EQ(tags.is_tagged(i, j),
                  want[static_cast<std::size_t>(j - region.lower().j) *
                           region.width() +
                       (i - region.lower().i)])
            << "cell (" << i << "," << j << ")";
      }
    }
  }
}

TEST(ClusteringRegression, BoxFillAndMergeMatchCellByCell) {
  const Box region(-70, -3, 60, 20);  // 131 wide: three words per row
  TagBitmap by_box(region);
  TagBitmap by_cell(region);
  for (const Box& b : {Box(-70, -3, -70, -3), Box(-66, 0, 57, 4),
                       Box(-7, 10, 56, 10), Box(58, -3, 60, 20)}) {
    by_box.set(b);
    for (int j = b.lower().j; j <= b.upper().j; ++j) {
      for (int i = b.lower().i; i <= b.upper().i; ++i) {
        by_cell.set(i, j);
      }
    }
  }
  // Patches of odd widths at odd offsets, packed as the tag pass does.
  std::uint64_t seed = 5;
  for (const Box& patch : {Box(-69, -2, -3, 6), Box(1, 7, 60, 19),
                           Box(-30, 12, 40, 12)}) {
    std::vector<std::uint32_t> words(
        static_cast<std::size_t>((patch.size() + 31) / 32), 0u);
    for (std::int64_t t = 0; t < patch.size(); ++t) {
      if (splitmix(seed) % 3 == 0) {
        words[static_cast<std::size_t>(t >> 5)] |= 1u << (t & 31);
        by_cell.set(patch.lower().i + static_cast<int>(t % patch.width()),
                    patch.lower().j + static_cast<int>(t / patch.width()));
      }
    }
    by_box.merge_compressed(patch, words);
  }
  for (int j = region.lower().j; j <= region.upper().j; ++j) {
    for (int i = region.lower().i; i <= region.upper().i; ++i) {
      ASSERT_EQ(by_box.is_tagged(i, j), by_cell.is_tagged(i, j))
          << "cell (" << i << "," << j << ")";
    }
  }
  EXPECT_EQ(by_box.count_tags(), by_cell.count_tags());
  EXPECT_EQ(by_box.count_tags(Box(-100, 0, 0, 100)),
            by_cell.count_tags(Box(-100, 0, 0, 100)));
}

// ---------------------------------------------------------------------------
// Real tags: the 3-level triple_point run of the amr_regrid benchmark
// workload, at set-up and after 6 steps (one regrid in between).

std::string triple_point_config(int steps) {
  return R"({"problem": "triple_point", "grid": {"nx": 448, "ny": 192},
  "amr": {"max_levels": 3, "ratio": 2, "regrid_interval": 4,
          "max_patch_cells": 4096},
  "run": {"max_steps": )" +
         std::to_string(steps) + R"(, "ranks": 1}})";
}

GriddingParams gridding_params(const app::SimulationConfig& sc) {
  GriddingParams gp;
  gp.cluster.efficiency = sc.cluster_efficiency;
  gp.cluster.min_size = sc.min_patch_size;
  gp.cluster.max_box_cells = sc.max_patch_cells * 16;
  gp.tag_buffer = sc.tag_buffer;
  return gp;
}

struct RecordedLevelTags {
  int snapshot;
  int level;
  int tagged_patches;
  std::uint64_t words_digest;  ///< (global id, words) of tagged patches
  std::int64_t raw;
  std::int64_t buffered;
  BoxListDigest boxes;
};

const std::vector<RecordedLevelTags>& recorded_triple_point() {
  static const std::vector<RecordedLevelTags> k = {
    {0, 0, 16, 0x18a77056fbb7bc3dull, 1150, 3438,
     {10, 3474, 0x0a0fea8c8d51847full}},
    {0, 1, 11, 0xdf5b6e9cdf42d9c6ull, 2290, 6894,
     {12, 6930, 0xb26d4f86fb3b9d06ull}},
    {1, 0, 16, 0xe98891560a14d845ull, 1627, 3909,
     {10, 3969, 0x2648401b119936deull}},
    {1, 1, 9, 0xbbba66093142aea8ull, 3622, 8243,
     {13, 8661, 0xeee58ad4e8c02b64ull}},
  };
  return k;
}

std::vector<TagPatch> tag_patches(const hier::PatchLevel& level) {
  std::vector<TagPatch> patches;
  for (const auto& patch : level.local_patches()) {
    auto& data = patch->typed_data<pdat::cuda::CudaData>(0);
    patches.push_back(TagPatch{patch->box(), &data.device()});
  }
  return patches;
}

TEST(TagPass, TriplePointTagsMatchTheRecordedWordsAndBoxes) {
  const cfg::RunConfig config =
      cfg::parse_run_config_text(triple_point_config(6));
  app::Simulation sim(config.sim, nullptr);
  sim.initialize();
  const GriddingParams gp = gridding_params(config.sim);
  std::size_t n = 0;
  for (int snapshot = 0; snapshot < 2; ++snapshot) {
    for (int step = 0; snapshot == 1 && step < config.run.max_steps; ++step) {
      sim.step();
    }
    GriddingAlgorithm gridding(gp, sim.problem(), xfer::RefineAlgorithm{},
                               nullptr, sim.context());
    hier::PatchHierarchy& h = sim.hierarchy();
    ASSERT_EQ(h.num_levels(), 3);
    for (int l = 0; l < h.num_levels() - 1; ++l, ++n) {
      ASSERT_LT(n, recorded_triple_point().size());
      const RecordedLevelTags& want = recorded_triple_point()[n];
      SCOPED_TRACE("snapshot " + std::to_string(snapshot) + " level " +
                   std::to_string(l));
      ASSERT_EQ(want.snapshot, snapshot);
      ASSERT_EQ(want.level, l);
      const hier::PatchLevel& level = h.level(l);

      // The device pass: compressed words byte-identical to the
      // per-patch transfer they replaced, in at most 4 launches.
      vgpu::Device& dev = sim.device();
      const std::uint64_t launches = dev.launch_count();
      const std::uint64_t d2h = dev.transfers().d2h_count;
      LevelTagData tags(tag_patches(level));
      sim.problem().tag_cells(level, h.geometry(), tags, sim.time());
      const auto words = tags.download_compressed();
      EXPECT_LE(dev.launch_count() - launches, 4u);
      EXPECT_EQ(dev.transfers().d2h_count - d2h, 2u);
      std::uint64_t digest = kFnvOffset;
      int tagged = 0;
      for (std::size_t p = 0; p < words.size(); ++p) {
        if (words[p].empty()) {
          continue;
        }
        ++tagged;
        const int gid = level.local_patches()[p]->global_id();
        digest = fnv1a(digest, &gid, sizeof gid);
        digest = fnv1a(digest, words[p].data(),
                       words[p].size() * sizeof(std::uint32_t));
      }
      EXPECT_EQ(tagged, want.tagged_patches);
      EXPECT_EQ(digest, want.words_digest);

      // The host side: merged bitmap, buffer, clustering.
      TagBitmap bitmap = gridding.collect_tags(h, l, sim.time());
      EXPECT_EQ(bitmap.count_tags(), want.raw);
      bitmap.buffer(gp.tag_buffer);
      EXPECT_EQ(bitmap.count_tags(), want.buffered);
      const auto boxes =
          berger_rigoutsos(bitmap, level.domain_box(), gp.cluster);
      EXPECT_EQ(digest_of(boxes), want.boxes) << describe(boxes);
    }
  }
  EXPECT_EQ(n, recorded_triple_point().size());
}

TEST(TagPass, CollectTagsLaunchesAreIndependentOfThePatchCount) {
  const cfg::RunConfig config =
      cfg::parse_run_config_text(triple_point_config(0));
  app::Simulation sim(config.sim, nullptr);
  sim.initialize();
  GriddingAlgorithm gridding(gridding_params(config.sim), sim.problem(),
                             xfer::RefineAlgorithm{}, nullptr, sim.context());
  hier::PatchHierarchy& h = sim.hierarchy();
  vgpu::Device& dev = sim.device();
  for (int l = 0; l < 2; ++l) {
    ASSERT_GT(h.level(l).local_patches().size(), 4u);
    const std::uint64_t regrid = dev.launch_count(vgpu::LaunchTag::kRegrid);
    const std::uint64_t all = dev.launch_count();
    (void)gridding.collect_tags(h, l, sim.time());
    // Clear, flag, any-tagged reduction, compression: all kRegrid.
    EXPECT_EQ(dev.launch_count(vgpu::LaunchTag::kRegrid) - regrid, 4u);
    EXPECT_EQ(dev.launch_count() - all, 4u);
  }
}

// ---------------------------------------------------------------------------
// The regrid path end to end: 33 steps of the amr_regrid benchmark
// workload (8 regrids), and which schedules a regrid rebuilds.

/// Per regrid step: the step, then (patch count, FNV-1a over the patch
/// boxes in global-id order) for levels 0, 1, 2.
struct RecordedRegrid {
  int step;
  std::size_t patches0;
  std::uint64_t boxes0;
  std::size_t patches1;
  std::uint64_t boxes1;
  std::size_t patches2;
  std::uint64_t boxes2;
};

std::uint64_t box_digest(const hier::PatchLevel& level) {
  std::uint64_t d = kFnvOffset;
  for (const hier::GlobalPatch& gp : level.global_patches()) {
    const int c[4] = {gp.box.lower().i, gp.box.lower().j, gp.box.upper().i,
                      gp.box.upper().j};
    d = fnv1a(d, c, sizeof c);
  }
  return d;
}

/// FNV-1a over the bit patterns of density0, energy0, xvel0, yvel0
/// (ghosts included), patches in global-id order.
std::array<std::uint64_t, 4> field_digests(app::Simulation& sim, int l) {
  auto patches = sim.hierarchy().level(l).local_patches();
  std::sort(patches.begin(), patches.end(), [](const auto& a, const auto& b) {
    return a->global_id() < b->global_id();
  });
  const app::Fields& f = sim.fields();
  const std::array<int, 4> ids = {f.density0, f.energy0, f.xvel0, f.yvel0};
  std::array<std::uint64_t, 4> out{};
  for (std::size_t k = 0; k < ids.size(); ++k) {
    std::uint64_t d = kFnvOffset;
    for (const auto& p : patches) {
      auto& data = p->typed_data<pdat::cuda::CudaData>(ids[k]);
      for (int c = 0; c < data.components(); ++c) {
        const auto& arr = data.component(c);
        for (int plane = 0; plane < arr.depth(); ++plane) {
          const std::vector<double> v = arr.download_plane(plane);
          d = fnv1a(d, v.data(), v.size() * sizeof(double));
        }
      }
    }
    out[k] = d;
  }
  return out;
}

TEST(RegridPath, ThirtyThreeStepsMatchTheRecordedRun) {
  static const RecordedRegrid kRegrids[] = {
      {4, 32, 0x9d0c696b8ab92173ull, 15, 0xee21c7e5f150f5e1ull, 19, 0xa378f8f2118af8e1ull},
      {8, 32, 0x9d0c696b8ab92173ull, 16, 0x306c47b10f682499ull, 16, 0x8af333c12fe959b8ull},
      {12, 32, 0x9d0c696b8ab92173ull, 17, 0xd705d18252dad559ull, 28, 0x648f5aa9b462a147ull},
      {16, 32, 0x9d0c696b8ab92173ull, 20, 0x7ed3580caf307343ull, 17, 0xcc91e605b12083f2ull},
      {20, 32, 0x9d0c696b8ab92173ull, 20, 0x2b1961207fac6e3bull, 17, 0xe8b51e72e77aef2cull},
      {24, 32, 0x9d0c696b8ab92173ull, 21, 0x62a4a3983e2307d5ull, 21, 0x542c0af8edc41f42ull},
      {28, 32, 0x9d0c696b8ab92173ull, 21, 0x437ea9359e7cf2ddull, 21, 0x422573b5d8d0ce98ull},
      {32, 32, 0x9d0c696b8ab92173ull, 21, 0x278bb5e8fa44b5e1ull, 21, 0xf07d4afe909fe08aull},
  };
  static const std::array<std::uint64_t, 4> kFields[] = {
      {0x785dff93db1f5005ull, 0x46accc65db0c4aa9ull, 0xf93c1871a8ea060cull, 0x7d037d659d19015bull},
      {0x0091a0c3dd526e5bull, 0x670af4e69b1b5443ull, 0x36daf03ded7abc7full, 0x2da30b73e4570017ull},
      {0x925737c94efa7f51ull, 0x59a3998e00e96009ull, 0x8adae596569f9fa5ull, 0x87819acf9be6f632ull},
  };
  const cfg::RunConfig config =
      cfg::parse_run_config_text(triple_point_config(33));
  app::Simulation sim(config.sim, nullptr);
  sim.initialize();
  std::size_t r = 0;
  for (int s = 0; s < config.run.max_steps; ++s) {
    sim.step();
    if (sim.step_count() % 4 != 0) {
      continue;
    }
    SCOPED_TRACE("step " + std::to_string(sim.step_count()));
    ASSERT_LT(r, std::size(kRegrids));
    const RecordedRegrid& want = kRegrids[r++];
    hier::PatchHierarchy& h = sim.hierarchy();
    ASSERT_EQ(want.step, sim.step_count());
    ASSERT_EQ(h.num_levels(), 3);
    EXPECT_EQ(h.level(0).patch_count(), want.patches0);
    EXPECT_EQ(box_digest(h.level(0)), want.boxes0);
    EXPECT_EQ(h.level(1).patch_count(), want.patches1);
    EXPECT_EQ(box_digest(h.level(1)), want.boxes1);
    EXPECT_EQ(h.level(2).patch_count(), want.patches2);
    EXPECT_EQ(box_digest(h.level(2)), want.boxes2);
  }
  EXPECT_EQ(r, std::size(kRegrids));
  ASSERT_EQ(sim.hierarchy().num_levels(), 3);
  for (int l = 0; l < 3; ++l) {
    EXPECT_EQ(field_digests(sim, l), kFields[l]) << "level " << l;
  }
  const hydro::FieldSummary totals = sim.composite_summary();
  EXPECT_EQ(sim.time(), 0x1.cea77f44f6657p-5);
  EXPECT_EQ(totals.mass, 0x1.a40021bc3cc27p+3);
  EXPECT_EQ(totals.internal_energy, 0x1.7e656d0994449p+3);
  EXPECT_EQ(totals.kinetic_energy, 0x1.8f97bc44a5238p-5);
}

/// Message tags of every schedule, which name the schedule objects.
struct ScheduleTags {
  std::vector<int> level0;  ///< the five refine windows' level-0 schedules
  std::vector<int> others;  ///< every other refine and sync schedule
};

ScheduleTags schedule_tags(const app::LagrangianEulerianIntegrator& in) {
  ScheduleTags t;
  for (int w = 0; w < app::TransferCounters::kWindowCount; ++w) {
    const auto& scheds =
        in.refine_schedules(static_cast<app::TransferCounters::Window>(w));
    for (std::size_t l = 0; l < scheds.size(); ++l) {
      (l == 0 ? t.level0 : t.others)
          .push_back(scheds[l]->same_level_engine().tag());
    }
  }
  for (const auto& s : in.sync_schedules()) {
    t.others.push_back(s->transfer_engine().tag());
  }
  return t;
}

bool disjoint(const std::vector<int>& a, const std::vector<int>& b) {
  const std::set<int> sa(a.begin(), a.end());
  return std::none_of(b.begin(), b.end(),
                      [&](int t) { return sa.count(t) != 0; });
}

TEST(RegridPath, RegridKeepsLevelZeroSchedulesAndRebuildsTheRest) {
  const cfg::RunConfig config =
      cfg::parse_run_config_text(triple_point_config(8));
  app::Simulation sim(config.sim, nullptr);
  sim.initialize();
  app::LagrangianEulerianIntegrator& in = sim.integrator();
  ScheduleTags before = schedule_tags(in);
  ASSERT_EQ(before.level0.size(), 5u);
  ASSERT_EQ(before.others.size(), 5u * 2 + 2);
  for (int regrid = 0; regrid < 2; ++regrid) {
    for (int s = 0; s < 4; ++s) {
      sim.step();
    }
    ASSERT_EQ(sim.gridding_stats().regrids, regrid + 1);
    const ScheduleTags after = schedule_tags(in);
    EXPECT_EQ(after.level0, before.level0);
    ASSERT_EQ(after.others.size(), before.others.size());
    EXPECT_TRUE(disjoint(before.others, after.others));
    EXPECT_TRUE(disjoint(after.level0, after.others));
    before = after;
  }

  // The public call still replaces every schedule.
  in.rebuild_schedules();
  const ScheduleTags rebuilt = schedule_tags(in);
  EXPECT_TRUE(disjoint(before.level0, rebuilt.level0));
  EXPECT_TRUE(disjoint(before.others, rebuilt.others));
  EXPECT_EQ(rebuilt.level0.size(), 5u);
  EXPECT_EQ(rebuilt.others.size(), before.others.size());
}

}  // namespace
}  // namespace ramr::amr
