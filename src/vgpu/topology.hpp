// Multi-device rank topology: N modeled devices sharing one rank clock,
// connected all-to-all by NVLink-style peer links.
//
// The paper's single-GPU ranks keep data resident and cross PCIe only
// for halos, tags and sync. A multi-device rank adds one more link
// class: device-to-device peer copies that never touch the host. The
// Topology owns the rank's devices (each with its own memory arena and
// ordinal), gives every device the peer-link parameters, and names the
// Timeline lanes the model charges: one compute lane per device
// ("gpu<i>") and one copy lane per directed link ("peer<i>-<j>"), so
// peer crossings overlap compute exactly like the d2h/h2d copy engines
// of the async subsystem (docs/device_topology.md).
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "vgpu/device.hpp"

namespace ramr::vgpu {

/// Latency/bandwidth description of the device-to-device link, the peer
/// analogue of simmpi::NetworkSpec. Uniform all-to-all: every ordered
/// device pair of the rank shares these parameters (an NVLink clique or
/// a PCIe switch, not a ring).
struct PeerLinkSpec {
  std::string name;
  double latency_s = 0.0;  ///< per-copy initiation latency
  double bw_gbs = 0.0;     ///< per-direction bandwidth, GB/s

  /// Modeled seconds one peer copy of `bytes` occupies its link lane.
  double copy_time(std::uint64_t bytes) const {
    return latency_s + static_cast<double>(bytes) / (bw_gbs * 1.0e9);
  }
};

/// NVLink 2.0 brick: 25 GB/s per direction peak, ~23 GB/s sustained,
/// sub-2us initiation through the copy engine.
inline PeerLinkSpec nvlink2() {
  PeerLinkSpec s;
  s.name = "NVLink 2.0";
  s.latency_s = 1.3e-6;
  s.bw_gbs = 23.0;
  return s;
}

/// Peer DMA through a PCIe 3.0 switch: both directions share the x16
/// port, ~10 GB/s sustained and PCIe-class latency.
inline PeerLinkSpec pcie_switch() {
  PeerLinkSpec s;
  s.name = "PCIe 3.0 switch";
  s.latency_s = 2.5e-6;
  s.bw_gbs = 10.0;
  return s;
}

/// Infinitely fast link (ablation baseline: what would a zero-cost
/// interconnect buy). Bandwidth stays finite so copy_time never divides
/// by zero.
inline PeerLinkSpec ideal_peer_link() {
  PeerLinkSpec s;
  s.name = "ideal";
  s.latency_s = 0.0;
  s.bw_gbs = 1.0e9;
  return s;
}

/// JSON-configurable shape of one rank's device complex (the `topology`
/// config block, cfg/config.cpp).
struct TopologySpec {
  int device_count = 1;          ///< devices per rank
  PeerLinkSpec link = nvlink2();  ///< uniform all-to-all peer link
  /// GPU-direct RDMA wire mode: packed message buffers ship NIC-direct,
  /// so per-message host staging (the modeled D2H before send and H2D
  /// after receive) disappears; wire time itself is unchanged.
  bool gpu_direct = false;
};

/// The devices of one rank. All share the rank's SimClock (and thus its
/// Timeline), so per-device busy time is separable by lane under the
/// async model while modeled totals stay one account.
class Topology {
 public:
  /// Builds `spec.device_count` devices of type `device_spec`, charging
  /// `clock`. Each device gets its ordinal and the peer-link parameters.
  Topology(const TopologySpec& spec, const DeviceSpec& device_spec,
           SimClock* clock);

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  int device_count() const { return static_cast<int>(devices_.size()); }

  Device& device(int ordinal) {
    RAMR_REQUIRE(ordinal >= 0 && ordinal < device_count(),
                 "device ordinal " << ordinal << " out of range (topology has "
                                   << device_count() << " devices)");
    return *devices_[static_cast<std::size_t>(ordinal)];
  }

  const TopologySpec& spec() const { return spec_; }

  /// Timeline lane carrying the directed peer link src -> dst (the name
  /// Device::memcpy_peer charges).
  static std::string peer_lane_name(int src, int dst) {
    return "peer" + std::to_string(src) + "-" + std::to_string(dst);
  }

  /// Timeline compute lane of one device's hydro stream.
  static std::string gpu_lane_name(int ordinal) {
    return "gpu" + std::to_string(ordinal);
  }

  /// Timeline lane carrying one device's transfer-plan launches (pack /
  /// unpack / local-copy partitions). Separate from the device's compute
  /// lane so a rank's devices pack and scatter concurrently while the
  /// caller's compute overlaps the whole exchange.
  static std::string xfer_lane_name(int ordinal) {
    return "xfer" + std::to_string(ordinal);
  }

 private:
  TopologySpec spec_;
  std::vector<std::unique_ptr<Device>> devices_;
};

/// Per-device fan-out of one level-wide operation: on a multi-device
/// rank each device's group runs on that device's compute lane, forked
/// from the caller's active lane, so the devices work concurrently; the
/// caller rejoins at the slowest lane when the fan-out is destroyed.
/// Without a topology, or with one device, every group stays on the
/// caller's lane.
class DeviceFanOut {
 public:
  explicit DeviceFanOut(Topology* topology)
      : topology_(topology != nullptr && topology->device_count() > 1
                      ? topology
                      : nullptr) {
    if (topology_ != nullptr) {
      join_ = timeline().now();
    }
  }
  ~DeviceFanOut() {
    if (topology_ != nullptr) {
      Timeline& tl = timeline();
      tl.advance(tl.active_lane(), join_);
    }
  }

  DeviceFanOut(const DeviceFanOut&) = delete;
  DeviceFanOut& operator=(const DeviceFanOut&) = delete;

  /// Runs `body` as device `ordinal`'s group.
  template <typename F>
  void run(int ordinal, F&& body) {
    if (topology_ == nullptr) {
      body();
      return;
    }
    Timeline& tl = timeline();
    LaneScope scope(tl, tl.lane(Topology::gpu_lane_name(ordinal)));
    body();
    join_ = std::max(join_, tl.now());
  }

 private:
  Timeline& timeline() { return topology_->device(0).timeline(); }

  Topology* topology_;
  double join_ = 0.0;
};

}  // namespace ramr::vgpu
