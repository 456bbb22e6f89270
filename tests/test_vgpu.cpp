// Unit tests for the virtual GPU runtime: memory accounting, the kernel
// launch machinery (functional correctness + cost model), PCIe transfer
// logging, and the component-scoped clock.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "util/array_view.hpp"
#include "vgpu/device.hpp"
#include "vgpu/device_buffer.hpp"
#include "vgpu/device_spec.hpp"
#include "vgpu/sim_clock.hpp"

namespace ramr::vgpu {
namespace {

DeviceSpec tiny_gpu() {
  DeviceSpec s = tesla_k20x();
  s.mem_bytes = 1024 * 1024;  // 1 MiB for capacity tests
  return s;
}

TEST(SimClock, ChargesToCurrentComponent) {
  SimClock clock;
  clock.charge(1.0);  // no scope: "other"
  {
    ComponentScope scope(clock, "hydro");
    clock.charge(2.0);
    {
      ComponentScope inner(clock, "boundary");
      clock.charge(0.5);
    }
    clock.charge(1.5);
  }
  EXPECT_DOUBLE_EQ(clock.component("other"), 1.0);
  EXPECT_DOUBLE_EQ(clock.component("hydro"), 3.5);
  EXPECT_DOUBLE_EQ(clock.component("boundary"), 0.5);
  EXPECT_DOUBLE_EQ(clock.total(), 5.0);
}

TEST(SimClock, ResetZeroesComponentsAndTimeline) {
  SimClock a;
  a.charge_to("x", 1.0);
  a.charge_to("y", 3.0);
  EXPECT_DOUBLE_EQ(a.total(), 4.0);
  EXPECT_DOUBLE_EQ(a.timeline().makespan(), 4.0);
  a.reset();
  EXPECT_DOUBLE_EQ(a.total(), 0.0);
  EXPECT_DOUBLE_EQ(a.component("x"), 0.0);
  EXPECT_DOUBLE_EQ(a.timeline().makespan(), 0.0);
  EXPECT_DOUBLE_EQ(a.timeline().busy_total(), 0.0);
}

TEST(Device, MemoryAccountingAndCapacity) {
  Device dev(tiny_gpu());
  EXPECT_EQ(dev.bytes_allocated(), 0u);
  {
    DeviceBuffer<double> buf(dev, 1000);
    EXPECT_EQ(dev.bytes_allocated(), 8000u);
    DeviceBuffer<double> buf2(dev, 100);
    EXPECT_EQ(dev.bytes_allocated(), 8800u);
  }
  EXPECT_EQ(dev.bytes_allocated(), 0u);
  EXPECT_EQ(dev.peak_bytes_allocated(), 8800u);
  // cudaMalloc failure: capacity is 1 MiB.
  EXPECT_THROW(DeviceBuffer<double>(dev, 200000), util::Error);
}

TEST(Device, MoveTransfersOwnership) {
  Device dev(tiny_gpu());
  DeviceBuffer<double> a(dev, 10);
  DeviceBuffer<double> b = std::move(a);
  EXPECT_EQ(b.size(), 10);
  EXPECT_EQ(dev.bytes_allocated(), 80u);
  a = DeviceBuffer<double>(dev, 5);
  b = std::move(a);
  EXPECT_EQ(dev.bytes_allocated(), 40u);
}

TEST(Device, UploadDownloadRoundTripAndTransferLog) {
  Device dev(tesla_k20x());
  DeviceBuffer<double> buf(dev, 256);
  std::vector<double> host(256);
  std::iota(host.begin(), host.end(), 0.0);
  buf.upload(host.data(), 256);
  std::vector<double> back(256, -1.0);
  buf.download(back.data(), 256);
  EXPECT_EQ(host, back);
  EXPECT_EQ(dev.transfers().h2d_count, 1u);
  EXPECT_EQ(dev.transfers().h2d_bytes, 2048u);
  EXPECT_EQ(dev.transfers().d2h_count, 1u);
  EXPECT_EQ(dev.transfers().d2h_bytes, 2048u);
}

TEST(Device, HostProcessorPaysNoPcie) {
  Device cpu(xeon_e5_2670_node());
  DeviceBuffer<double> buf(cpu, 64);
  std::vector<double> host(64, 3.0);
  buf.upload(host.data(), 64);
  EXPECT_EQ(cpu.transfers().total_count(), 0u);
  EXPECT_DOUBLE_EQ(cpu.clock().total(), 0.0);
}

TEST(Device, LaunchExecutesEveryThreadOnce) {
  Device dev(tesla_k20x());
  Stream stream(dev, "test");
  DeviceBuffer<int> buf(dev, 10000);
  dev.launch(stream, 10000, KernelCost{1.0, 8.0},
             [p = buf.device_ptr()](std::int64_t i) {
               p[i] = static_cast<int>(2 * i);
             });
  std::vector<int> host(10000);
  buf.download(host.data(), 10000);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(host[i], 2 * i);
  }
}

TEST(Device, Launch2dMapsGlobalIndices) {
  Device dev(tesla_k20x());
  Stream stream(dev, "test");
  DeviceBuffer<double> buf(dev, 5 * 3);
  util::View v(buf.device_ptr(), -2, 4, 5, 3);
  dev.launch2d(stream, -2, 4, 5, 3, KernelCost{0.0, 8.0},
               [=](int i, int j) { v(i, j) = 10.0 * i + j; });
  std::vector<double> host(15);
  buf.download(host.data(), 15);
  // (i=-2, j=4) is the first element, row-major.
  EXPECT_DOUBLE_EQ(host[0], -16.0);
  EXPECT_DOUBLE_EQ(host[4], 24.0);   // i=2, j=4
  EXPECT_DOUBLE_EQ(host[14], 26.0);  // i=2, j=6
}

TEST(Device, KernelCostModelBandwidthBound) {
  DeviceSpec spec = tesla_k20x();
  Device dev(spec);
  Stream stream(dev, "test");
  const std::int64_t n = 1 << 20;
  dev.launch(stream, n, KernelCost{2.0, 24.0}, [](std::int64_t) {});
  // Memory-bound: t = overhead + n*24 / (bw * occupancy(n)).
  const double util = n / (n + spec.half_saturation_threads);
  const double expected =
      spec.launch_overhead_s + n * 24.0 / (spec.mem_bw_gbs * 1.0e9 * util);
  EXPECT_NEAR(dev.clock().total(), expected, expected * 1e-12);
}

TEST(Device, KernelCostModelComputeBound) {
  DeviceSpec spec = tesla_k20x();
  Device dev(spec);
  Stream stream(dev, "test");
  const std::int64_t n = 1 << 16;
  dev.launch(stream, n, KernelCost{10000.0, 8.0}, [](std::int64_t) {});
  const double util = n / (n + spec.half_saturation_threads);
  const double expected =
      spec.launch_overhead_s + n * 10000.0 / (spec.peak_gflops * 1.0e9 * util);
  EXPECT_NEAR(dev.clock().total(), expected, expected * 1e-12);
}

TEST(Device, PcieCostModel) {
  DeviceSpec spec = tesla_k20x();
  Device dev(spec);
  DeviceBuffer<double> buf(dev, 1 << 16);
  std::vector<double> host(1 << 16, 1.0);
  buf.upload(host.data(), 1 << 16);
  const double bytes = (1 << 16) * 8.0;
  const double expected = spec.pcie_lat_s + bytes / (spec.pcie_bw_gbs * 1.0e9);
  EXPECT_NEAR(dev.clock().total(), expected, expected * 1e-12);
}

TEST(Device, SharedClockReceivesCharges) {
  SimClock shared;
  Device dev(tesla_k20x(), &shared);
  Stream stream(dev, "test");
  {
    ComponentScope scope(shared, "hydro");
    dev.launch(stream, 100, KernelCost{1.0, 8.0}, [](std::int64_t) {});
  }
  EXPECT_GT(shared.component("hydro"), 0.0);
  EXPECT_DOUBLE_EQ(shared.total(), dev.clock().total());
}

TEST(Device, EmptyLaunchChargesNothing) {
  Device dev(tesla_k20x());
  Stream stream(dev, "test");
  dev.launch(stream, 0, KernelCost{1.0, 8.0}, [](std::int64_t) {});
  EXPECT_DOUBLE_EQ(dev.clock().total(), 0.0);
}

TEST(DeviceSpec, PresetsMatchTableOne) {
  // Table I: both platforms use the K20x with 6 GB; IPA nodes have dual
  // 8-core E5-2670s and 128 GB; Titan nodes have a 16-core Opteron 6274
  // and 32 GB.
  EXPECT_EQ(tesla_k20x().mem_bytes, 6ull << 30);
  EXPECT_TRUE(tesla_k20x().is_accelerator);
  EXPECT_FALSE(xeon_e5_2670_node().is_accelerator);
  EXPECT_EQ(xeon_e5_2670_node().mem_bytes, 128ull << 30);
  EXPECT_EQ(opteron_6274_node().mem_bytes, 32ull << 30);
  // The GPU/CPU sustained bandwidth ratio drives the large-problem
  // speedup in Fig. 9 (2.67x at 6.4M zones).
  const double ratio = tesla_k20x().mem_bw_gbs / xeon_e5_2670_node().mem_bw_gbs;
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 3.5);
}

}  // namespace
}  // namespace ramr::vgpu
