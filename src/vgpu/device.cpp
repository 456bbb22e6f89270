#include "vgpu/device.hpp"

#include <cstring>

namespace ramr::vgpu {

void Device::charge_crossing(bool h2d, std::uint64_t bytes) {
  if (h2d) {
    ++transfers_.h2d_count;
    transfers_.h2d_bytes += bytes;
  } else {
    ++transfers_.d2h_count;
    transfers_.d2h_bytes += bytes;
  }
  clock_->charge(spec_.pcie_lat_s +
                 static_cast<double>(bytes) / (spec_.pcie_bw_gbs * 1.0e9));
}

void Device::memcpy_h2d(void* dst, const void* src, std::uint64_t bytes) {
  std::memcpy(dst, src, bytes);
  if (spec_.is_accelerator && bytes > 0) {
    charge_crossing(/*h2d=*/true, bytes);
  }
}

void Device::memcpy_d2h(void* dst, const void* src, std::uint64_t bytes) {
  std::memcpy(dst, src, bytes);
  if (spec_.is_accelerator && bytes > 0) {
    charge_crossing(/*h2d=*/false, bytes);
  }
}

double Device::memcpy_peer(void* dst, Device& dst_device, const void* src,
                           std::uint64_t bytes) {
  std::memcpy(dst, src, bytes);
  if (!spec_.is_accelerator || bytes == 0 || &dst_device == this) {
    return 0.0;
  }
  ++transfers_.peer_count;
  transfers_.peer_bytes += bytes;
  // Unset link parameters degrade to the PCIe model: a peer copy staged
  // through the host port costs one PCIe crossing.
  const double lat = peer_bw_gbs_ > 0.0 ? peer_lat_s_ : spec_.pcie_lat_s;
  const double bw = peer_bw_gbs_ > 0.0 ? peer_bw_gbs_ : spec_.pcie_bw_gbs;
  const double seconds = lat + static_cast<double>(bytes) / (bw * 1.0e9);
  Timeline* tl = timeline();
  if (tl == nullptr) {
    clock_->charge(seconds);
    return 0.0;
  }
  // The directed link is its own copy engine (Topology::peer_lane_name):
  // the fork orders the copy after the issuing lane's pack, and the
  // caller orders the consuming unpack after the returned timestamp.
  const int lane = tl->lane("peer" + std::to_string(ordinal_) + "-" +
                            std::to_string(dst_device.ordinal_));
  double done = 0.0;
  {
    LaneScope scope(tl, lane);
    clock_->charge(seconds);
    done = tl->now(lane);
  }
  return done;
}

void Device::memcpy_d2h_direct(void* dst, const void* src,
                               std::uint64_t bytes) {
  std::memcpy(dst, src, bytes);
  if (spec_.is_accelerator && bytes > 0) {
    ++transfers_.gpu_direct_count;
    transfers_.gpu_direct_bytes += bytes;
  }
}

void Device::memcpy_h2d_direct(void* dst, const void* src,
                               std::uint64_t bytes) {
  std::memcpy(dst, src, bytes);
  if (spec_.is_accelerator && bytes > 0) {
    ++transfers_.gpu_direct_count;
    transfers_.gpu_direct_bytes += bytes;
  }
}

double Device::modeled_kernel_seconds(std::int64_t n,
                                      const KernelCost& cost) const {
  const double flops = cost.flops_per_thread * static_cast<double>(n);
  const double bytes = cost.bytes_per_thread * static_cast<double>(n);
  // Occupancy ramp: small grids cannot saturate a throughput-oriented
  // device (see DeviceSpec::half_saturation_threads).
  const double utilization =
      static_cast<double>(n) /
      (static_cast<double>(n) + spec_.half_saturation_threads);
  const double t_compute = flops / (spec_.peak_gflops * 1.0e9 * utilization);
  const double t_memory = bytes / (spec_.mem_bw_gbs * 1.0e9 * utilization);
  return spec_.launch_overhead_s + std::max(t_compute, t_memory);
}

void Device::maybe_inject_launch_fault() {
  if (fault_plan_ == nullptr ||
      !fault_plan_->should_inject(util::FaultSite::kLaunch)) {
    return;
  }
  ++fault_stats_.launch_faults;
  const int retries = fault_plan_->config().launch_retries;
  for (int attempt = 0; attempt < retries; ++attempt) {
    // Each ECC-style retry re-issues the launch: one extra launch
    // overhead on the clock, then a fresh deterministic draw decides
    // whether the retry also faults.
    ++fault_stats_.launch_retries;
    kernel_seconds_ += spec_.launch_overhead_s;
    clock_->charge(spec_.launch_overhead_s);
    if (!fault_plan_->should_inject(util::FaultSite::kLaunch)) {
      return;
    }
    ++fault_stats_.launch_faults;
  }
  ++fault_stats_.launch_aborts;
  RAMR_FAIL("injected launch fault on " << spec_.name
            << ": kernel launch returned cudaErrorECCUncorrectable after "
            << retries << " retries");
}

void Device::charge_kernel(std::int64_t n, const KernelCost& cost) {
  maybe_inject_launch_fault();
  if (fusion_depth_ > 0) {
    // Deferred: execution already happened (eagerly, at the call site);
    // only the modeled charge waits for the flush. Track what the
    // unfused accounting would have cost — the serial-equivalent
    // baseline the service reports per job.
    const std::string& component = clock_->current_component();
    FusionGroup* group = nullptr;
    for (FusionGroup& g : fusion_groups_) {
      if (g.flops_per_thread == cost.flops_per_thread &&
          g.bytes_per_thread == cost.bytes_per_thread &&
          g.tag == launch_tag_ && g.component == component) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      fusion_groups_.push_back(FusionGroup{cost.flops_per_thread,
                                           cost.bytes_per_thread, launch_tag_,
                                           component, 0});
      group = &fusion_groups_.back();
    }
    group->threads += n;
    ++fusion_stats_.enqueued;
    fusion_stats_.serial_seconds += modeled_kernel_seconds(n, cost);
    return;
  }
  const double seconds = modeled_kernel_seconds(n, cost);
  ++launch_count_;
  ++launch_count_by_tag_[static_cast<std::size_t>(launch_tag_)];
  kernel_seconds_ += seconds;
  if (ChargeListener* listener = clock_->listener()) {
    listener->on_kernel_launch(static_cast<int>(launch_tag_));
  }
  clock_->charge(seconds);
}

void Device::begin_launch_fusion() {
  // Deferral re-orders charges; the SimClock is an order-independent
  // accumulator so totals are exact, but a timeline derives lane cursors
  // from charge ORDER — fusion and the async model are exclusive.
  RAMR_REQUIRE(clock_->timeline() == nullptr,
               "launch fusion requires the synchronous timing model "
               "(detach the Timeline first)");
  ++fusion_depth_;
}

void Device::end_launch_fusion() {
  RAMR_REQUIRE(fusion_depth_ > 0, "launch fusion scope underflow");
  if (--fusion_depth_ > 0) {
    return;
  }
  for (const FusionGroup& g : fusion_groups_) {
    const KernelCost cost{g.flops_per_thread, g.bytes_per_thread};
    const double seconds = modeled_kernel_seconds(g.threads, cost);
    ++launch_count_;
    ++launch_count_by_tag_[static_cast<std::size_t>(g.tag)];
    kernel_seconds_ += seconds;
    if (ChargeListener* listener = clock_->listener()) {
      listener->on_kernel_launch(static_cast<int>(g.tag));
    }
    clock_->charge_to(g.component, seconds);
    ++fusion_stats_.groups_flushed;
    fusion_stats_.fused_seconds += seconds;
  }
  fusion_groups_.clear();
}

void Device::charge_scalar_readback() {
  if (spec_.is_accelerator) {
    ++transfers_.d2h_scalar_count;
    charge_crossing(/*h2d=*/false, sizeof(double));
  }
}

void Device::charge_reduction(std::int64_t n, double bytes_per_item) {
  KernelCost cost;
  cost.flops_per_thread = 1.0;
  cost.bytes_per_thread = bytes_per_item;
  charge_kernel(n, cost);
  // Final partial-block reduction and result readback for accelerators is
  // a scalar D2H transfer; charged by the caller via memcpy_d2h when it
  // actually reads the value.
}

}  // namespace ramr::vgpu
