// Unit and property tests for the AMR machinery: device tag data with
// bit compression (paper §IV-C), tag bitmaps and buffering,
// Berger-Rigoutsos clustering, box chopping and load balancing.
#include <gtest/gtest.h>

#include <cmath>

#include "amr/berger_rigoutsos.hpp"
#include "amr/load_balancer.hpp"
#include "amr/tag_buffer.hpp"
#include "vgpu/device_spec.hpp"

namespace ramr::amr {
namespace {

using mesh::Box;
using mesh::IntVector;

class TagDataTest : public ::testing::Test {
 protected:
  vgpu::Device dev_{vgpu::tesla_k20x()};
};

TEST_F(TagDataTest, StartsClearAndDetectsTags) {
  LevelTagData tags({{Box(0, 0, 31, 31), &dev_}, {Box(32, 0, 63, 31), &dev_}});
  auto words = tags.download_compressed();
  ASSERT_EQ(words.size(), 2u);
  EXPECT_TRUE(words[0].empty());
  EXPECT_TRUE(words[1].empty());
  auto view = tags.groups()[0].views[1];
  vgpu::Stream s(dev_, "test");
  dev_.launch(s, 1, vgpu::KernelCost{0, 4},
              [=](std::int64_t) { view(47, 5) = 1; });
  words = tags.download_compressed();
  EXPECT_TRUE(words[0].empty());
  ASSERT_EQ(words[1].size(), 32u * 32u / 32u);
  EXPECT_EQ(words[1][(5 * 32 + 15) / 32], 1u << ((5 * 32 + 15) % 32));
}

TEST_F(TagDataTest, CompressedMatchesRaw) {
  // Odd patch sizes, so words straddle rows and the last word is partial.
  LevelTagData tags({{Box(2, 3, 40, 35), &dev_},
                     {Box(41, 3, 47, 9), &dev_},
                     {Box(-5, -9, 1, 2), &dev_}});
  vgpu::Stream s(dev_, "test");
  for (std::size_t p = 0; p < tags.patch_count(); ++p) {
    auto view = tags.groups()[0].views[p];
    const Box box = tags.box(p);
    dev_.launch2d(s, box.lower().i, box.lower().j, box.width(), box.height(),
                  vgpu::KernelCost{1, 4}, [=](int i, int j) {
                    view(i, j) = ((i * 7 + j * 3) % 5 == 0) ? 1 : 0;
                  });
  }
  const auto raw = tags.download_raw();
  const auto packed = tags.download_compressed();
  for (std::size_t p = 0; p < tags.patch_count(); ++p) {
    ASSERT_EQ(static_cast<std::int64_t>(raw[p].size()), tags.box(p).size());
    ASSERT_EQ(static_cast<std::int64_t>(packed[p].size()),
              (tags.box(p).size() + 31) / 32);
    for (std::size_t t = 0; t < raw[p].size(); ++t) {
      const bool bit = (packed[p][t >> 5] >> (t & 31)) & 1u;
      ASSERT_EQ(bit, raw[p][t] != 0) << "patch " << p << " cell " << t;
    }
  }
}

TEST_F(TagDataTest, CompressionIs32xSmaller) {
  LevelTagData tags({{Box(0, 0, 255, 255), &dev_}});
  auto view = tags.groups()[0].views[0];
  vgpu::Stream s(dev_, "test");
  dev_.launch(s, 1, vgpu::KernelCost{0, 4},
              [=](std::int64_t) { view(0, 0) = 1; });
  auto before = dev_.transfers();
  (void)tags.download_compressed();
  // The words plus the patch's 4-byte flag.
  const auto compressed_bytes = (dev_.transfers() - before).d2h_bytes - 4u;
  before = dev_.transfers();
  (void)tags.download_raw();
  const auto raw_bytes = (dev_.transfers() - before).d2h_bytes;
  EXPECT_EQ(raw_bytes, 256u * 256u * 4u);
  EXPECT_EQ(compressed_bytes, 256u * 256u / 8u);
  EXPECT_EQ(raw_bytes / compressed_bytes, 32u);
}

TEST_F(TagDataTest, TagPassLaunchesAndCopiesDoNotGrowWithPatches) {
  for (const int patches : {1, 7, 48}) {
    SCOPED_TRACE(patches);
    std::vector<TagPatch> list;
    for (int p = 0; p < patches; ++p) {
      list.push_back({Box(20 * p, 0, 20 * p + 12 + p % 5, 17), &dev_});
    }
    const std::uint64_t launches = dev_.launch_count();
    const auto before = dev_.transfers();
    LevelTagData tags(list);
    LevelTagData::DeviceGroup& g = tags.groups()[0];
    vgpu::Stream s(dev_, "test");
    dev_.launch_batched(s, g.cells, vgpu::KernelCost{1, 4},
                        [&](std::size_t seg, int i, int j) {
                          g.views[seg](i, j) =
                              (seg % 2 == 0 && i - g.views[seg].ilo() == j) ? 1 : 0;
                        });
    const auto words = tags.download_compressed();
    // Clear, flag, any-tagged reduction, compression; flags + words.
    EXPECT_EQ(dev_.launch_count() - launches, 4u);
    const auto moved = dev_.transfers() - before;
    EXPECT_EQ(moved.d2h_count, 2u);
    std::uint64_t word_bytes = 0;
    for (int p = 0; p < patches; ++p) {
      EXPECT_EQ(words[static_cast<std::size_t>(p)].empty(), p % 2 != 0);
      word_bytes += words[static_cast<std::size_t>(p)].size() * 4u;
    }
    EXPECT_EQ(moved.d2h_bytes, 4u * patches + word_bytes);
  }
}

TEST(TagData, TwoDevicesRunTheirOwnPass) {
  vgpu::Device a{vgpu::tesla_k20x()};
  vgpu::Device b{vgpu::tesla_k20x()};
  LevelTagData tags({{Box(0, 0, 15, 15), &a},
                     {Box(16, 0, 31, 15), &b},
                     {Box(32, 0, 47, 15), &a}});
  ASSERT_EQ(tags.groups().size(), 2u);
  EXPECT_EQ(tags.groups()[0].patches, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(tags.groups()[1].patches, (std::vector<std::size_t>{1}));
  auto view = tags.groups()[1].views[0];
  vgpu::Stream s(b, "test");
  b.launch(s, 1, vgpu::KernelCost{0, 4}, [=](std::int64_t) { view(20, 3) = 1; });
  const std::uint64_t la = a.launch_count();
  const std::uint64_t lb = b.launch_count();
  const auto words = tags.download_compressed();
  EXPECT_TRUE(words[0].empty());
  EXPECT_FALSE(words[1].empty());
  EXPECT_TRUE(words[2].empty());
  EXPECT_EQ(a.launch_count() - la, 1u);  // reduction only: nothing tagged
  EXPECT_EQ(b.launch_count() - lb, 2u);  // reduction + compression
}

TEST(TagBitmap, SetAndQuery) {
  TagBitmap tags(Box(-4, -4, 10, 10));
  EXPECT_FALSE(tags.is_tagged(0, 0));
  tags.set(0, 0);
  tags.set(-4, -4);
  tags.set(10, 10);
  EXPECT_TRUE(tags.is_tagged(0, 0));
  EXPECT_TRUE(tags.is_tagged(-4, -4));
  EXPECT_TRUE(tags.is_tagged(10, 10));
  EXPECT_FALSE(tags.is_tagged(1, 0));
  EXPECT_FALSE(tags.is_tagged(-5, 0));  // outside: false, not UB
  EXPECT_EQ(tags.count_tags(), 3);
}

TEST(TagBitmap, MergeCompressedPlacesBitsCorrectly) {
  TagBitmap bitmap(Box(0, 0, 15, 15));
  // A 6x2 patch at (4, 7) with cells 0 and 11 (last) tagged.
  const Box patch(4, 7, 9, 8);
  std::vector<std::uint32_t> words((patch.size() + 31) / 32, 0u);
  words[0] |= 1u << 0;
  words[0] |= 1u << 11;
  bitmap.merge_compressed(patch, words);
  EXPECT_TRUE(bitmap.is_tagged(4, 7));   // flat 0
  EXPECT_TRUE(bitmap.is_tagged(9, 8));   // flat 11
  EXPECT_EQ(bitmap.count_tags(), 2);
}

TEST(TagBitmap, BufferGrowsNeighbourhood) {
  TagBitmap tags(Box(0, 0, 20, 20));
  tags.set(10, 10);
  tags.buffer(2);
  EXPECT_EQ(tags.count_tags(), 25);  // 5x5 block
  EXPECT_TRUE(tags.is_tagged(8, 8));
  EXPECT_TRUE(tags.is_tagged(12, 12));
  EXPECT_FALSE(tags.is_tagged(13, 10));
}

TEST(TagBitmap, BufferClipsAtRegionEdge) {
  TagBitmap tags(Box(0, 0, 10, 10));
  tags.set(0, 0);
  tags.buffer(3);
  EXPECT_EQ(tags.count_tags(), 16);  // 4x4 corner block
}

// ---------------------------------------------------------------------------
// Berger-Rigoutsos

ClusterParams loose_params() {
  ClusterParams p;
  p.efficiency = 0.7;
  p.min_size = 2;
  return p;
}

std::int64_t covered_tags(const TagBitmap& tags, const std::vector<Box>& boxes) {
  std::int64_t n = 0;
  for (const Box& b : boxes) {
    n += tags.count_tags(b);
  }
  return n;
}

TEST(BergerRigoutsos, EmptyTagsYieldNoBoxes) {
  TagBitmap tags(Box(0, 0, 31, 31));
  EXPECT_TRUE(berger_rigoutsos(tags, tags.region(), loose_params()).empty());
}

TEST(BergerRigoutsos, SinglePointYieldsTightBox) {
  TagBitmap tags(Box(0, 0, 31, 31));
  tags.set(13, 7);
  const auto boxes = berger_rigoutsos(tags, tags.region(), loose_params());
  ASSERT_EQ(boxes.size(), 1u);
  EXPECT_EQ(boxes.front(), Box(13, 7, 13, 7));
}

TEST(BergerRigoutsos, SeparatedClustersSplit) {
  TagBitmap tags(Box(0, 0, 63, 63));
  for (int j = 2; j <= 6; ++j) {
    for (int i = 2; i <= 6; ++i) {
      tags.set(i, j);
    }
  }
  for (int j = 50; j <= 55; ++j) {
    for (int i = 50; i <= 55; ++i) {
      tags.set(i, j);
    }
  }
  const auto boxes = berger_rigoutsos(tags, tags.region(), loose_params());
  ASSERT_EQ(boxes.size(), 2u);
  // Disjoint and tag-tight.
  EXPECT_TRUE(boxes[0].intersect(boxes[1]).empty());
  EXPECT_EQ(covered_tags(tags, boxes), tags.count_tags());
}

class BergerRigoutsosProperty : public ::testing::TestWithParam<int> {};

TEST_P(BergerRigoutsosProperty, CoversAllTagsEfficientlyAndDisjointly) {
  const int n = 64;
  const int pattern = GetParam();
  TagBitmap tags(Box(0, 0, n - 1, n - 1));
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      bool tag = false;
      switch (pattern) {
        case 0:  // diagonal band
          tag = std::abs(i - j) <= 2;
          break;
        case 1:  // ring
          tag = std::fabs(std::hypot(i - 32.0, j - 32.0) - 20.0) <= 2.0;
          break;
        case 2:  // cross
          tag = std::abs(i - 32) <= 1 || std::abs(j - 32) <= 1;
          break;
        case 3:  // sparse dots
          tag = (i % 16 == 3) && (j % 16 == 9);
          break;
      }
      if (tag) {
        tags.set(i, j);
      }
    }
  }
  ClusterParams params;
  params.efficiency = 0.75;
  params.min_size = 4;
  const auto boxes = berger_rigoutsos(tags, tags.region(), params);
  ASSERT_FALSE(boxes.empty());
  // Every tag covered.
  EXPECT_EQ(covered_tags(tags, boxes), tags.count_tags());
  // Boxes pairwise disjoint.
  for (std::size_t a = 0; a < boxes.size(); ++a) {
    for (std::size_t b = a + 1; b < boxes.size(); ++b) {
      EXPECT_TRUE(boxes[a].intersect(boxes[b]).empty());
    }
  }
  // Aggregate efficiency at least half the target (individual boxes can
  // fall below when the minimum size clips the recursion).
  std::int64_t area = 0;
  for (const Box& b : boxes) {
    area += b.size();
  }
  EXPECT_GE(static_cast<double>(tags.count_tags()) / area,
            0.5 * params.efficiency);
}

INSTANTIATE_TEST_SUITE_P(Patterns, BergerRigoutsosProperty,
                         ::testing::Values(0, 1, 2, 3));

// ---------------------------------------------------------------------------
// Load balancing

TEST(ChopBoxes, RespectsMaxSizeAndPreservesArea) {
  BalanceParams p;
  p.max_patch_cells = 100;
  p.min_size = 4;
  const std::vector<Box> in = {Box(0, 0, 63, 63), Box(100, 0, 103, 3)};
  const auto out = chop_boxes(in, p);
  std::int64_t area = 0;
  for (const Box& b : out) {
    EXPECT_LE(b.size(), 100);
    area += b.size();
  }
  EXPECT_EQ(area, 64 * 64 + 16);
}

TEST(ChopBoxes, StopsAtMinimumSize) {
  BalanceParams p;
  p.max_patch_cells = 4;  // unreachable with min_size 4
  p.min_size = 4;
  const auto out = chop_boxes({Box(0, 0, 6, 6)}, p);
  for (const Box& b : out) {
    EXPECT_GE(std::min(b.width(), b.height()), 3);  // 7 splits into 4+3
  }
}

TEST(ChopBoxes, MinSizeBoundaryNeverProducesUndersizedPieces) {
  BalanceParams p;
  p.max_patch_cells = 16;
  p.min_size = 4;
  // 8x8 splits exactly once per axis into four 4x4 pieces — the min_size
  // boundary case where both halves land exactly at the floor.
  const auto exact = chop_boxes({Box(0, 0, 7, 7)}, p);
  EXPECT_EQ(exact.size(), 4u);
  std::int64_t area = 0;
  for (const Box& b : exact) {
    EXPECT_EQ(b.width(), 4);
    EXPECT_EQ(b.height(), 4);
    area += b.size();
  }
  EXPECT_EQ(area, 64);

  // One cell short of splittable: a 7x7 box (width < 2*min_size) must
  // survive unsplit even though it exceeds max_patch_cells.
  const auto stuck = chop_boxes({Box(0, 0, 6, 6)}, p);
  ASSERT_EQ(stuck.size(), 1u);
  EXPECT_EQ(stuck[0], Box(0, 0, 6, 6));

  // A mixed box splits only along its splittable axis: 8x5 can halve in
  // x but never in y.
  const auto mixed = chop_boxes({Box(0, 0, 7, 4)}, p);
  for (const Box& b : mixed) {
    EXPECT_GE(b.width(), p.min_size);
    EXPECT_EQ(b.height(), 5);
  }
}

TEST(BalanceBoxes, MortonAssignmentInvariantUnderInputPermutation) {
  std::vector<Box> boxes;
  for (int j = 0; j < 4; ++j) {
    for (int i = 0; i < 4; ++i) {
      boxes.emplace_back(20 * i, 20 * j, 20 * i + 10 + i, 20 * j + 12 + j);
    }
  }
  BalanceParams p;
  p.max_patch_cells = 128;
  const auto ref = balance_boxes(boxes, 4, p);
  // Reversed and rotated input orders must produce the identical
  // (box, rank, id) sequence: the Morton sort with its total-order tie
  // break erases the caller's ordering.
  std::vector<Box> reversed(boxes.rbegin(), boxes.rend());
  std::vector<Box> rotated(boxes.begin() + 5, boxes.end());
  rotated.insert(rotated.end(), boxes.begin(), boxes.begin() + 5);
  for (const auto& permuted : {reversed, rotated}) {
    const auto got = balance_boxes(permuted, 4, p);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t n = 0; n < ref.size(); ++n) {
      EXPECT_EQ(got[n].box, ref[n].box);
      EXPECT_EQ(got[n].owner_rank, ref[n].owner_rank);
      EXPECT_EQ(got[n].global_id, ref[n].global_id);
    }
  }
}

TEST(BalanceBoxes, AssignsEveryBoxWithDenseIds) {
  BalanceParams p;
  p.max_patch_cells = 256;
  const auto patches = balance_boxes({Box(0, 0, 63, 63)}, 4, p);
  EXPECT_EQ(patches.size(), 16u);
  std::int64_t area = 0;
  for (std::size_t n = 0; n < patches.size(); ++n) {
    EXPECT_EQ(patches[n].global_id, static_cast<int>(n));
    EXPECT_GE(patches[n].owner_rank, 0);
    EXPECT_LT(patches[n].owner_rank, 4);
    area += patches[n].box.size();
  }
  EXPECT_EQ(area, 64 * 64);
}

TEST(BalanceBoxes, MortonBalanceIsReasonable) {
  BalanceParams p;
  p.max_patch_cells = 64;
  for (int ranks : {2, 4, 8, 16}) {
    const auto patches = balance_boxes({Box(0, 0, 63, 63)}, ranks, p);
    EXPECT_LT(load_imbalance(patches, ranks), 1.35)
        << ranks << " ranks";
  }
}

TEST(BalanceBoxes, DeterministicAcrossCalls) {
  BalanceParams p;
  p.max_patch_cells = 128;
  const std::vector<Box> boxes = {Box(0, 0, 31, 31), Box(40, 10, 70, 30)};
  const auto a = balance_boxes(boxes, 4, p);
  const auto b = balance_boxes(boxes, 4, p);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t n = 0; n < a.size(); ++n) {
    EXPECT_EQ(a[n].box, b[n].box);
    EXPECT_EQ(a[n].owner_rank, b[n].owner_rank);
  }
}

TEST(Morton, PreservesSpatialLocality) {
  // Nearby boxes should have closer codes than far ones (coarse check).
  const auto c00 = morton_code(Box(0, 0, 7, 7));
  const auto c10 = morton_code(Box(8, 0, 15, 7));
  const auto cff = morton_code(Box(1000, 1000, 1007, 1007));
  EXPECT_LT(c10 - c00, cff - c00);
}

}  // namespace
}  // namespace ramr::amr
