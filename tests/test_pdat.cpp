// Unit tests for patch data: GPU-resident CudaData, the overlap calculus
// and MessageStream framing. Transfers between patch data objects are
// tested through the compiled plans (test_transfer_plan.cpp,
// test_xfer.cpp).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mesh/box.hpp"
#include "pdat/box_overlap.hpp"
#include "pdat/cuda/cuda_data.hpp"
#include "pdat/message_stream.hpp"
#include "vgpu/device_spec.hpp"

namespace ramr::pdat {
namespace {

using mesh::Box;
using mesh::Centering;
using mesh::IntVector;

TEST(Overlap, CopyOverlapMatchesGhostIntersection) {
  const BoxOverlap ov =
      overlap_for_copy(Centering::kCell, Box(0, 0, 4, 4), Box(5, 0, 9, 4),
                       IntVector(2, 2));
  ASSERT_EQ(ov.components(), 1);
  // Ghost box of dst is [3,-2]..[11,6]; src interior is [0,0]..[4,4]:
  // overlap = [3,0]..[4,4], 10 cells.
  EXPECT_EQ(ov.element_count(), 10);
}

TEST(Overlap, RegionOverlapNodeSeamsDisjoint) {
  mesh::BoxList cells;
  cells.push_back(Box(0, 0, 3, 3));
  cells.push_back(Box(4, 0, 7, 3));  // adjacent in x
  const BoxOverlap ov = overlap_for_region(Centering::kNode, cells);
  // Node space union is [0,0]..[8,4] = 45 nodes; the seam column at i=4
  // must not be counted twice.
  EXPECT_EQ(ov.element_count(), 45);
}

TEST(Overlap, SideOverlapHasTwoComponents) {
  mesh::BoxList cells;
  cells.push_back(Box(0, 0, 3, 3));
  const BoxOverlap ov = overlap_for_region(Centering::kSide, cells);
  ASSERT_EQ(ov.components(), 2);
  EXPECT_EQ(ov.component(0).size(), 20);  // 5x4 x-faces
  EXPECT_EQ(ov.component(1).size(), 20);  // 4x5 y-faces
}

// ---------------------------------------------------------------------------
// GPU-resident data

class CudaDataTest : public ::testing::Test {
 protected:
  vgpu::Device dev_{vgpu::tesla_k20x()};
};

TEST_F(CudaDataTest, FillAndDownload) {
  pdat::cuda::CudaCellData d(dev_, Box(0, 0, 9, 9), IntVector(2, 2));
  d.fill(3.25);
  const auto host = d.component(0).download_plane();
  EXPECT_EQ(host.size(), 14u * 14u);
  for (double v : host) {
    ASSERT_DOUBLE_EQ(v, 3.25);
  }
}

TEST_F(CudaDataTest, SideDataComponents) {
  pdat::cuda::CudaSideData s(dev_, Box(0, 0, 3, 3), IntVector(0, 0));
  EXPECT_EQ(s.components(), 2);
  EXPECT_EQ(s.component(0).index_box(), Box(0, 0, 4, 3));
  EXPECT_EQ(s.component(1).index_box(), Box(0, 0, 3, 4));
}

TEST_F(CudaDataTest, FactoryAllocatesCorrectType) {
  pdat::cuda::CudaDataFactory f(dev_, Centering::kNode, IntVector(2, 2));
  auto pd = f.allocate(Box(0, 0, 7, 7));
  EXPECT_NE(dynamic_cast<pdat::cuda::CudaData*>(pd.get()), nullptr);
  EXPECT_EQ(pd->centering(), Centering::kNode);
  auto scratch = f.allocate_with_ghosts(Box(0, 0, 3, 3), IntVector::zero());
  EXPECT_EQ(scratch->ghost_box(), Box(0, 0, 3, 3));
}

TEST_F(CudaDataTest, DeviceMemoryReleasedOnDestruction) {
  const auto before = dev_.bytes_allocated();
  {
    pdat::cuda::CudaNodeData n(dev_, Box(0, 0, 63, 63), IntVector(2, 2));
    EXPECT_GT(dev_.bytes_allocated(), before);
  }
  EXPECT_EQ(dev_.bytes_allocated(), before);
}

TEST(MessageStream, TypedReadWrite) {
  MessageStream ms;
  ms.write<int>(42);
  ms.write<double>(2.5);
  EXPECT_EQ(ms.read<int>(), 42);
  EXPECT_DOUBLE_EQ(ms.read<double>(), 2.5);
  EXPECT_TRUE(ms.fully_consumed());
  EXPECT_THROW(ms.read<int>(), util::Error);
}

TEST(MessageStream, UnderflowThrowsWithoutAdvancing) {
  MessageStream ms;
  const double values[3] = {1.0, 2.0, 3.0};
  ms.write_doubles(values, 3);
  EXPECT_FALSE(ms.fully_consumed());

  double out[2] = {0.0, 0.0};
  ms.read_doubles(out, 2);
  EXPECT_DOUBLE_EQ(out[1], 2.0);
  EXPECT_FALSE(ms.fully_consumed());

  // One double left: a two-double read must throw and leave the read
  // position untouched, so the remaining payload is still consumable.
  EXPECT_THROW(ms.read_doubles(out, 2), util::Error);
  EXPECT_EQ(ms.read_position(), 2 * sizeof(double));
  EXPECT_DOUBLE_EQ(ms.read<double>(), 3.0);
  EXPECT_TRUE(ms.fully_consumed());
  EXPECT_THROW(ms.view_and_skip(1), util::Error);
}

TEST(MessageStream, WrappedBufferTracksConsumption) {
  MessageStream src;
  src.write<std::int64_t>(-9);
  src.write<std::int64_t>(11);
  MessageStream ms(src.release());
  EXPECT_FALSE(ms.fully_consumed());
  EXPECT_EQ(ms.read<std::int64_t>(), -9);
  EXPECT_FALSE(ms.fully_consumed());
  EXPECT_EQ(ms.read<std::int64_t>(), 11);
  EXPECT_TRUE(ms.fully_consumed());
}

TEST(MessageStream, ReserveKeepsGrowPointersStable) {
  // The aggregated pack path holds pointers returned by grow() while the
  // stream keeps growing; an exact reserve() guarantees no reallocation
  // invalidates them.
  MessageStream ms;
  ms.reserve(64 * sizeof(double));
  EXPECT_GE(ms.capacity(), 64 * sizeof(double));
  std::byte* first = ms.grow(8 * sizeof(double));
  std::byte* second = ms.grow(56 * sizeof(double));
  // Write through the FIRST pointer after the later growth.
  for (int i = 0; i < 8; ++i) {
    const double v = 0.5 * i;
    std::memcpy(first + i * sizeof(double), &v, sizeof(double));
  }
  const double tail = 99.0;
  std::memcpy(second + 55 * sizeof(double), &tail, sizeof(double));

  double out[64];
  ms.read_doubles(out, 64);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[7], 3.5);
  EXPECT_DOUBLE_EQ(out[63], 99.0);
  EXPECT_TRUE(ms.fully_consumed());
}

}  // namespace
}  // namespace ramr::pdat
