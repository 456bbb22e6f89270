// Parallel execution context shared by all communication schedules on a
// rank. Serial runs use a default-constructed context (null communicator).
//
// Tags are allocated from a monotonically increasing counter at schedule
// construction; every rank constructs schedules in the same order (the
// metadata is replicated), so tags agree without negotiation.
#pragma once

#include "simmpi/communicator.hpp"
#include "vgpu/device.hpp"
#include "vgpu/sim_clock.hpp"
#include "vgpu/timeline.hpp"

namespace ramr::vgpu {
class Topology;
}  // namespace ramr::vgpu

namespace ramr::xfer {

/// Rank-local handle to the (simulated) MPI world.
struct ParallelContext {
  int my_rank = 0;
  int world_size = 1;
  simmpi::Communicator* comm = nullptr;  ///< null when world_size == 1
  /// Clock charged for host-side mesh-management work (schedule
  /// construction, box calculus); may be null in unit tests.
  vgpu::SimClock* clock = nullptr;
  /// The rank's compute device: launch-category scopes (LaunchTag) of
  /// the integrator and the gridding pass attribute their launches on
  /// it. May be null in unit tests.
  vgpu::Device* device = nullptr;
  /// The rank's device complex when it has more than one device. With a
  /// topology set, compiled plans split cross-device endpoints into
  /// per-(src,dst)-device launch partitions with peer-lane copies;
  /// without one, endpoints on two devices are rejected.
  vgpu::Topology* topology = nullptr;
  /// GPU-direct RDMA wire mode: packed send buffers ship NIC-direct, so
  /// the compiled path skips the modeled per-message D2H before isend and
  /// H2D after receive (wire time is unchanged).
  bool gpu_direct = false;
  /// Multi-lane timing model of the async-overlap runs, or null for the
  /// synchronous single-cursor model. When set, split-phase schedule
  /// execution charges its pack/send legs on the "comm" lane so their
  /// wire time overlaps compute issued between begin and finish
  /// (docs/async_overlap.md).
  vgpu::Timeline* timeline = nullptr;
  /// Widened overlap window (requires a timeline): every stencil stage
  /// splits into an interior sweep that overlaps its halo exchange and a
  /// rind sweep after it, and RefineSchedule::fill_begin() additionally
  /// starts the strictly-interior part of the coarse gather so its wire
  /// time hides too. False = the single EOS window of the original
  /// async-overlap subsystem (ablation; docs/async_overlap.md).
  bool wide_overlap = false;
  int next_tag = 1 << 10;

  int allocate_tag() { return next_tag++; }

  bool is_serial() const { return world_size <= 1; }

  /// Charges `ops` box-calculus operations at a sustained host rate
  /// (~50 ns per box intersection/removal on one core). This is the
  /// SAMRAI mesh-management time the paper's §V-B identifies as the
  /// serial fraction behind the strong-scaling falloff.
  void charge_host_ops(double ops) {
    if (clock != nullptr) {
      clock->charge(ops * 50.0e-9);
    }
  }
};

}  // namespace ramr::xfer
