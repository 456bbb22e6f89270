// Multi-device rank topology: vgpu::Topology construction and lane
// naming, peer-link copies (charging, counters, PCIe fallback,
// GPU-direct staging), measured device assignment, and end-to-end
// multi-device simulations whose physics must be bit-identical to the
// single-device runs (docs/device_topology.md).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "amr/load_balancer.hpp"
#include "app/simulation.hpp"
#include "vgpu/device_buffer.hpp"
#include "vgpu/timeline.hpp"
#include "vgpu/topology.hpp"

namespace ramr {
namespace {

using vgpu::Topology;
using vgpu::TopologySpec;

TEST(Topology, OwnsDevicesWithOrdinalsOnOneClock) {
  vgpu::SimClock clock;
  TopologySpec spec;
  spec.device_count = 3;
  Topology topo(spec, vgpu::tesla_k20x(), &clock);
  ASSERT_EQ(topo.device_count(), 3);
  for (int d = 0; d < topo.device_count(); ++d) {
    EXPECT_EQ(topo.device(d).ordinal(), d);
  }
  // All devices charge the shared clock: one account per rank.
  const double before = clock.total();
  std::vector<std::byte> host(1 << 20);
  vgpu::DeviceBuffer<std::byte> buf(topo.device(2), 1 << 20);
  topo.device(2).memcpy_h2d(buf.device_ptr(), host.data(), host.size());
  EXPECT_GT(clock.total(), before);
}

TEST(Topology, LaneNamesAreStableContracts) {
  // The metrics layer and the benches look these lanes up by name.
  EXPECT_EQ(Topology::peer_lane_name(0, 1), "peer0-1");
  EXPECT_EQ(Topology::peer_lane_name(3, 2), "peer3-2");
  EXPECT_EQ(Topology::gpu_lane_name(0), "gpu0");
  EXPECT_EQ(Topology::xfer_lane_name(2), "xfer2");
}

TEST(Topology, PresetLinksAndCopyTime) {
  const vgpu::PeerLinkSpec nv = vgpu::nvlink2();
  EXPECT_DOUBLE_EQ(nv.bw_gbs, 23.0);
  EXPECT_DOUBLE_EQ(nv.latency_s, 1.3e-6);
  const vgpu::PeerLinkSpec sw = vgpu::pcie_switch();
  EXPECT_GT(nv.bw_gbs, sw.bw_gbs);
  EXPECT_LT(nv.latency_s, sw.latency_s);
  // copy_time = latency + bytes / bandwidth.
  EXPECT_DOUBLE_EQ(nv.copy_time(23ull * 1000 * 1000 * 1000),
                   nv.latency_s + 1.0);
  EXPECT_DOUBLE_EQ(vgpu::ideal_peer_link().latency_s, 0.0);
}

TEST(PeerCopy, ChargesTheDirectedLinkLane) {
  vgpu::SimClock clock;
  vgpu::Timeline& tl = clock.timeline();
  tl.enable_named_lanes();
  TopologySpec spec;
  spec.device_count = 2;
  Topology topo(spec, vgpu::tesla_k20x(), &clock);

  const std::uint64_t kBytes = 1 << 20;
  std::vector<double> src(kBytes / sizeof(double), 3.25);
  std::vector<double> dst(src.size(), 0.0);
  const double done =
      topo.device(0).memcpy_peer(dst.data(), topo.device(1), src.data(),
                                 kBytes);
  EXPECT_EQ(dst.front(), 3.25);
  EXPECT_EQ(dst.back(), 3.25);
  EXPECT_EQ(topo.device(0).transfers().peer_count, 1u);
  EXPECT_EQ(topo.device(0).transfers().peer_bytes, kBytes);

  const int link = tl.lane(Topology::peer_lane_name(0, 1));
  EXPECT_DOUBLE_EQ(tl.busy(link), spec.link.copy_time(kBytes));
  EXPECT_DOUBLE_EQ(done, tl.now(link));
  // The reverse direction is a different engine and stays idle.
  EXPECT_DOUBLE_EQ(tl.busy(tl.lane(Topology::peer_lane_name(1, 0))), 0.0);
}

TEST(PeerCopy, SelfCopyIsFreeAndUncounted) {
  vgpu::SimClock clock;
  TopologySpec spec;
  spec.device_count = 2;
  Topology topo(spec, vgpu::tesla_k20x(), &clock);
  std::vector<double> buf(64, 1.0), out(64, 0.0);
  EXPECT_DOUBLE_EQ(
      topo.device(0).memcpy_peer(out.data(), topo.device(0), buf.data(),
                                 64 * sizeof(double)),
      0.0);
  EXPECT_EQ(topo.device(0).transfers().peer_count, 0u);
  EXPECT_EQ(out.front(), 1.0);
}

TEST(PeerCopy, FallsBackToPcieWithoutLinkParameters) {
  // Devices outside a Topology never get set_peer_link: a peer copy then
  // stages through the host port at PCIe cost.
  vgpu::SimClock clock;
  vgpu::Timeline& tl = clock.timeline();
  tl.enable_named_lanes();
  const vgpu::DeviceSpec spec = vgpu::tesla_k20x();
  vgpu::Device a(spec, &clock), b(spec, &clock);
  b.set_ordinal(1);
  const std::uint64_t kBytes = 1 << 16;
  std::vector<double> src(kBytes / sizeof(double), 2.0);
  std::vector<double> dst(src.size(), 0.0);
  a.memcpy_peer(dst.data(), b, src.data(), kBytes);
  EXPECT_EQ(dst.front(), 2.0);
  const int link = tl.lane(Topology::peer_lane_name(0, 1));
  EXPECT_DOUBLE_EQ(
      tl.busy(link),
      spec.pcie_lat_s + static_cast<double>(kBytes) / (spec.pcie_bw_gbs * 1e9));
}

TEST(PeerCopy, GpuDirectStagingCountsBytesWithoutCharging) {
  vgpu::SimClock clock;
  TopologySpec spec;
  spec.device_count = 1;
  Topology topo(spec, vgpu::tesla_k20x(), &clock);
  vgpu::Device& dev = topo.device(0);
  std::vector<std::byte> host(4096);
  std::vector<std::byte> card(4096, std::byte{7});
  const double before = clock.total();
  dev.memcpy_d2h_direct(host.data(), card.data(), host.size());
  dev.memcpy_h2d_direct(card.data(), host.data(), host.size());
  EXPECT_EQ(host[0], std::byte{7});
  // NIC-direct staging is the whole point: bytes move, nothing is
  // charged to the modeled PCIe account.
  EXPECT_DOUBLE_EQ(clock.total(), before);
  EXPECT_EQ(dev.transfers().gpu_direct_count, 2u);
  EXPECT_EQ(dev.transfers().gpu_direct_bytes, 2u * 4096u);
}

std::vector<hier::GlobalPatch> some_patches(int owner) {
  std::vector<hier::GlobalPatch> patches;
  for (int n = 0; n < 8; ++n) {
    hier::GlobalPatch p;
    p.box = mesh::Box(16 * n, 0, 16 * n + 15, 15 + n);  // uneven sizes
    p.owner_rank = owner;
    p.global_id = n;
    patches.push_back(p);
  }
  return patches;
}

TEST(MultiDevice, AssignDevicesIsDeterministicAndUsesAllDevices) {
  amr::BalanceParams params;
  params.devices_per_rank = 2;
  auto a = some_patches(/*owner=*/0);
  auto b = some_patches(/*owner=*/0);
  amr::assign_devices(a, /*my_rank=*/0, params);
  amr::assign_devices(b, /*my_rank=*/0, params);
  bool used[2] = {false, false};
  for (std::size_t n = 0; n < a.size(); ++n) {
    EXPECT_EQ(a[n].device, b[n].device);
    ASSERT_GE(a[n].device, 0);
    ASSERT_LT(a[n].device, 2);
    used[a[n].device] = true;
  }
  EXPECT_TRUE(used[0] && used[1]);

  // Remote patches keep device 0 — their placement is never consulted.
  auto remote = some_patches(/*owner=*/1);
  amr::assign_devices(remote, /*my_rank=*/0, params);
  for (const auto& p : remote) {
    EXPECT_EQ(p.device, 0);
  }
}

TEST(MultiDevice, MeasuredCostsShiftLoadTowardTheFasterDevice) {
  amr::BalanceParams params;
  params.devices_per_rank = 2;
  // Device 1 measured 4x slower per cell than device 0.
  std::vector<amr::MeasuredDeviceCosts> measured(2);
  measured[0] = {1.0, 100000};
  measured[1] = {4.0, 100000};
  auto patches = some_patches(/*owner=*/0);
  amr::assign_devices(patches, /*my_rank=*/0, params, &measured);
  std::int64_t cells[2] = {0, 0};
  for (const auto& p : patches) {
    cells[p.device] += p.box.size();
  }
  EXPECT_GT(cells[0], cells[1]);
}

app::SimulationConfig multi_cfg(int devices, bool gpu_direct) {
  app::SimulationConfig cfg;
  cfg.problem = "sod";
  cfg.nx = 64;
  cfg.ny = 64;
  cfg.max_levels = 2;
  cfg.regrid_interval = 3;
  cfg.max_patch_cells = 32 * 32;
  cfg.min_patch_size = 8;
  cfg.async_overlap = true;
  cfg.topology.device_count = devices;
  cfg.topology.gpu_direct = gpu_direct;
  if (devices > 1) {
    cfg.balance_method = amr::BalanceMethod::kMeasured;
  }
  return cfg;
}

TEST(MultiDevice, SyncMeasuredAssignmentKeepsUniformRates) {
  // A single-lane timeline has no per-device lanes, so kMeasured sees no
  // per-device busy time and keeps uniform seconds-per-cell rates. The
  // expected patch->device string was recorded from the model without
  // any timeline on the synchronous path; reading the host lane's busy
  // time for every device instead flips the level-1 assignment.
  app::SimulationConfig cfg = multi_cfg(2, false);
  cfg.async_overlap = false;
  cfg.nx = 80;
  cfg.ny = 48;
  cfg.max_patch_cells = 20 * 20;
  app::Simulation sim(cfg, nullptr);
  sim.initialize();
  sim.run(7);
  ASSERT_EQ(sim.gridding_stats().regrids, 2);
  std::string devices;
  auto& h = sim.hierarchy();
  for (int l = 0; l < h.num_levels(); ++l) {
    if (l > 0) {
      devices += '|';
    }
    for (const auto& patch : h.level(l).local_patches()) {
      devices += static_cast<char>('0' + patch->device_ordinal());
    }
  }
  EXPECT_EQ(devices, "0101010101010101|01010101");
}

TEST(MultiDevice, PhysicsBitIdenticalAcrossDeviceCounts) {
  app::Simulation base(multi_cfg(1, false), nullptr);
  base.initialize();
  base.run(6);
  const hydro::FieldSummary ref = base.composite_summary();

  for (const int devices : {2, 4}) {
    app::Simulation sim(multi_cfg(devices, false), nullptr);
    sim.initialize();
    sim.run(6);
    const hydro::FieldSummary got = sim.composite_summary();
    EXPECT_EQ(got.mass, ref.mass) << devices << " devices";
    EXPECT_EQ(got.internal_energy, ref.internal_energy) << devices
                                                        << " devices";
    EXPECT_EQ(got.kinetic_energy, ref.kinetic_energy) << devices
                                                      << " devices";
    EXPECT_EQ(sim.integrator().transfer_counters().plan_fallbacks, 0u)
        << devices << " devices";
  }
}

TEST(MultiDevice, PatchesSpreadOverTheDevicesAndPeerTrafficFlows) {
  app::Simulation sim(multi_cfg(2, false), nullptr);
  sim.initialize();
  sim.run(4);
  ASSERT_NE(sim.topology(), nullptr);
  bool used[2] = {false, false};
  auto& h = sim.hierarchy();
  for (int l = 0; l < h.num_levels(); ++l) {
    for (const auto& patch : h.level(l).local_patches()) {
      used[patch->device_ordinal()] = true;
    }
  }
  EXPECT_TRUE(used[0] && used[1]);
  std::uint64_t peer_bytes = 0;
  for (int d = 0; d < 2; ++d) {
    peer_bytes += sim.topology()->device(d).transfers().peer_bytes;
  }
  EXPECT_GT(peer_bytes, 0u);
}

TEST(MultiDevice, GpuDirectKeepsPhysicsIdentical) {
  app::Simulation staged(multi_cfg(2, false), nullptr);
  staged.initialize();
  staged.run(4);
  app::Simulation direct(multi_cfg(2, true), nullptr);
  direct.initialize();
  direct.run(4);
  const hydro::FieldSummary a = staged.composite_summary();
  const hydro::FieldSummary b = direct.composite_summary();
  EXPECT_EQ(a.mass, b.mass);
  EXPECT_EQ(a.internal_energy, b.internal_energy);
  EXPECT_EQ(a.kinetic_energy, b.kinetic_energy);
}

}  // namespace
}  // namespace ramr
