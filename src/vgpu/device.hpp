// The virtual device: a modeled processor with its own memory space.
//
// Functional semantics are real — kernels run their bodies over the full
// index space (data-parallel on the global host thread pool) and memcpy
// actually moves bytes. Performance semantics are modeled: each launch
// and transfer charges time on the device's SimClock according to the
// DeviceSpec. Device memory is a tracked arena so capacity (6 GB on a
// K20x) and residency can be asserted by tests.
//
// The launch API deliberately mirrors the paper's CUDA usage (Fig. 5a):
// a 1-D grid of threads covering one element each.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <mutex>
#include <memory>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"
#include "vgpu/device_spec.hpp"
#include "vgpu/launch_batch.hpp"
#include "vgpu/sim_clock.hpp"
#include "vgpu/timeline.hpp"
#include "vgpu/transfer_log.hpp"

namespace ramr::vgpu {

/// Cost declaration for a kernel launch: per-thread arithmetic and memory
/// traffic, used by the machine model. Bytes should count reads+writes of
/// the kernel body per output element.
struct KernelCost {
  double flops_per_thread = 0.0;
  double bytes_per_thread = 0.0;
};

/// Category a kernel launch is attributed to. The aggregate launch_count
/// stays the headline number; per-tag counts let benches and tests break
/// it down (hydro stages vs the transfer path) and assert launch budgets
/// like "pack launches == messages sent" per exchange.
enum class LaunchTag : int {
  kOther = 0,       ///< untagged (init, diagnostics)
  kHydro,           ///< hydro stage + timestep kernels
  kTransferPack,    ///< message packing (fused plan or per-transaction)
  kTransferUnpack,  ///< message unpacking
  kLocalCopy,       ///< schedule-local device-to-device copies
  kRegrid,          ///< regrid path: tagging/clustering + interpolation
  kRind,            ///< boundary-shell sweeps of interior/rind stage splits
};
inline constexpr int kLaunchTagCount = 7;

/// Cumulative accounting of launch fusion (begin/end_launch_fusion): how
/// many kernel charges were deferred into how many fused launches, and
/// the modeled seconds each accounting assigns the same work — the
/// throughput lever of the multi-job service (svc::SimulationServer):
/// serial_seconds - fused_seconds is pure savings from amortized launch
/// overhead and the better occupancy of summed grids.
struct FusionStats {
  std::uint64_t enqueued = 0;        ///< kernel charges deferred
  std::uint64_t groups_flushed = 0;  ///< fused launches actually charged
  double serial_seconds = 0.0;       ///< unfused cost of everything enqueued
  double fused_seconds = 0.0;        ///< fused cost actually charged
};

/// Cumulative injected-fault accounting for one device (util/fault.hpp).
/// launch_faults counts injections; each is either absorbed by ECC-style
/// retries (launch_retries charges, one launch overhead apiece) or
/// escapes as a thrown util::Error (launch_aborts).
struct FaultStats {
  std::uint64_t launch_faults = 0;   ///< injected launch failures
  std::uint64_t launch_retries = 0;  ///< ECC retries charged
  std::uint64_t launch_aborts = 0;   ///< launch faults that escaped as errors
  std::uint64_t alloc_faults = 0;    ///< injected allocation failures
};

class Device;

/// An in-order execution queue, as in CUDA. Functionally the virtual
/// device executes kernels eagerly (so stream semantics are trivially
/// preserved); the stream scopes TIMING: when the device's clock carries
/// a Timeline and the stream is bound to a lane, every launch on the
/// stream advances that lane's cursor instead of the active lane — the
/// stream is a concurrent engine, exactly a CUDA stream. Unbound streams
/// follow the active lane (the CUDA default stream: fully ordered with
/// the issuing code).
class Stream {
 public:
  Stream(Device& device, std::string name) : device_(&device), name_(std::move(name)) {}

  Device& device() const { return *device_; }
  const std::string& name() const { return name_; }

  /// Routes this stream's launches onto a timeline lane (see
  /// Timeline::lane). Negative restores default-stream behavior.
  void bind_lane(int lane) { lane_ = lane; }
  int lane() const { return lane_; }

 private:
  Device* device_;
  std::string name_;
  int lane_ = -1;  ///< timeline lane; -1 = follow the active lane
};

/// A marker in a stream; wait_event models cross-stream ordering. With
/// eager execution ordering always holds functionally; under a timeline
/// the event carries the REAL timestamp of the stream's lane at record
/// time, and waiting advances the waiter to it (completion = max of the
/// dependency chains, never the sum).
class Event {
 public:
  void record(Stream& stream);  // defined after Device
  bool recorded() const { return recorded_; }

  /// Lane time at record (0 without a timeline).
  double timestamp() const { return timestamp_; }

 private:
  bool recorded_ = false;
  double timestamp_ = 0.0;
};

/// A modeled processor with a private memory arena, a simulated clock and
/// a transfer log.
class Device {
 public:
  /// When `shared_clock` is non-null all modeled time is charged there
  /// (used by distributed ranks so device + network time share one
  /// component scope); otherwise the device owns a private clock.
  explicit Device(DeviceSpec spec, SimClock* shared_clock = nullptr)
      : spec_(std::move(spec)),
        owned_clock_(shared_clock == nullptr ? std::make_unique<SimClock>()
                                             : nullptr),
        clock_(shared_clock != nullptr ? shared_clock : owned_clock_.get()) {}

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const DeviceSpec& spec() const { return spec_; }
  SimClock& clock() { return *clock_; }
  const SimClock& clock() const { return *clock_; }
  TransferLog& transfers() { return transfers_; }
  const TransferLog& transfers() const { return transfers_; }

  /// Timing model attached to this device's clock, or null when running
  /// the synchronous (single-cursor) model.
  Timeline* timeline() const { return clock_->timeline(); }

  /// Models cudaStreamWaitEvent: `stream`'s lane (or the active lane for
  /// an unbound stream) cannot proceed before the event's timestamp.
  /// No-op without a timeline.
  void wait_event(Stream& stream, const Event& event) {
    Timeline* tl = timeline();
    if (tl != nullptr) {
      tl->advance(stream.lane() >= 0 ? stream.lane() : tl->active_lane(),
                  event.timestamp());
    }
  }

  std::uint64_t bytes_allocated() const { return bytes_allocated_; }
  std::uint64_t peak_bytes_allocated() const { return peak_bytes_; }

  /// Cumulative kernel launches charged (a fused batched launch counts
  /// once, however many segments it covers).
  std::uint64_t launch_count() const { return launch_count_; }

  /// Launches attributed to one category (see LaunchTag). The sum over
  /// all tags equals launch_count().
  std::uint64_t launch_count(LaunchTag tag) const {
    return launch_count_by_tag_[static_cast<std::size_t>(tag)];
  }

  /// Category charged for launches until changed (prefer LaunchTagScope).
  LaunchTag launch_tag() const { return launch_tag_; }
  void set_launch_tag(LaunchTag tag) { launch_tag_ = tag; }

  /// Cumulative modeled seconds charged for kernels (launch overhead
  /// included) — the kernel-time slice of the clock's total.
  double kernel_seconds() const { return kernel_seconds_; }

  /// Attaches a fault plan (util/fault.hpp) consulted at every launch
  /// charge and allocation; null (the default) disables injection. The
  /// device does not own the plan — prefer the FaultScope RAII so the
  /// pointer cannot outlive the plan.
  void set_fault_plan(util::FaultPlan* plan) { fault_plan_ = plan; }
  util::FaultPlan* fault_plan() const { return fault_plan_; }
  const FaultStats& fault_stats() const { return fault_stats_; }

  /// Allocates `n` elements in device memory. Throws util::Error when the
  /// modeled capacity would be exceeded (a real cudaMalloc failure) or an
  /// allocation fault is injected (a transient cudaMalloc failure).
  template <typename T>
  T* allocate(std::int64_t n) {
    const std::uint64_t bytes = static_cast<std::uint64_t>(n) * sizeof(T);
    if (fault_plan_ != nullptr &&
        fault_plan_->should_inject(util::FaultSite::kAlloc)) {
      ++fault_stats_.alloc_faults;
      RAMR_FAIL("injected allocation fault on " << spec_.name << ": cudaMalloc("
                << bytes << " bytes) returned cudaErrorMemoryAllocation");
    }
    RAMR_REQUIRE(bytes_allocated_ + bytes <= spec_.mem_bytes,
                 "device memory exhausted on " << spec_.name << ": "
                 << bytes_allocated_ << " + " << bytes << " > "
                 << spec_.mem_bytes);
    bytes_allocated_ += bytes;
    peak_bytes_ = std::max(peak_bytes_, bytes_allocated_);
    return new T[static_cast<std::size_t>(n)];
  }

  template <typename T>
  void deallocate(T* p, std::int64_t n) noexcept {
    bytes_allocated_ -= static_cast<std::uint64_t>(n) * sizeof(T);
    delete[] p;
  }

  /// Copies host -> device, charging PCIe cost (no cost on a host
  /// "device", where the copy degenerates to memcpy within one space).
  void memcpy_h2d(void* dst, const void* src, std::uint64_t bytes);

  /// Copies device -> host, charging PCIe cost.
  void memcpy_d2h(void* dst, const void* src, std::uint64_t bytes);

  /// Position of this device within its rank's vgpu::Topology (0 for a
  /// standalone device).
  int ordinal() const { return ordinal_; }
  void set_ordinal(int ordinal) { ordinal_ = ordinal; }

  /// Peer-link parameters used by memcpy_peer (set by vgpu::Topology).
  /// Until set, peer copies fall back to the PCIe link model (a
  /// staged-through-host copy without NVLink).
  void set_peer_link(double latency_s, double bw_gbs) {
    peer_lat_s_ = latency_s;
    peer_bw_gbs_ = bw_gbs;
  }

  /// Copies this device -> `dst_device` over the peer link, charging
  /// link latency + bytes/bandwidth on the directed Timeline copy lane
  /// "peer<src>-<dst>" (Topology::peer_lane_name); forked from the
  /// active lane, so the copy cannot start before the pack that produced
  /// the data. Returns the link-lane completion timestamp (the caller
  /// orders the consuming unpack after it); 0 without a timeline, where
  /// the cost is charged serially. No modeled cost on host "devices" or
  /// same-device copies.
  double memcpy_peer(void* dst, Device& dst_device, const void* src,
                     std::uint64_t bytes);

  /// GPU-direct staging: moves the bytes between device memory and a
  /// wire buffer WITHOUT a modeled PCIe crossing — the NIC reads/writes
  /// device memory directly (GPUDirect RDMA), so per-message host
  /// staging disappears from the model. Logged separately so residency
  /// tests can assert the eliminated crossings.
  void memcpy_d2h_direct(void* dst, const void* src, std::uint64_t bytes);
  void memcpy_h2d_direct(void* dst, const void* src, std::uint64_t bytes);

  /// Launches `n` threads executing body(i) for i in [0, n), data
  /// parallel. Charges modeled kernel time to the device clock.
  template <typename F>
  void launch(Stream& stream, std::int64_t n, const KernelCost& cost, F&& body) {
    RAMR_DEBUG_ASSERT(&stream.device() == this);
    if (n <= 0) {
      return;
    }
    charge_kernel(stream, n, cost);
    util::ThreadPool::global().parallel_for(
        n, [&body](std::int64_t begin, std::int64_t end) {
          for (std::int64_t i = begin; i < end; ++i) {
            body(i);
          }
        });
  }

  /// 2-D convenience wrapper: body(i, j) over a width x height tile with
  /// global offsets (ilo, jlo), mapping j to the slow axis as the paper's
  /// kernels do. Iteration inside each parallel_for chunk is row-wise:
  /// the div/mod locating the chunk start runs once per chunk, not once
  /// per element.
  template <typename F>
  void launch2d(Stream& stream, int ilo, int jlo, int width, int height,
                const KernelCost& cost, F&& body) {
    RAMR_DEBUG_ASSERT(&stream.device() == this);
    if (width <= 0 || height <= 0) {
      return;
    }
    const std::int64_t n = static_cast<std::int64_t>(width) * height;
    charge_kernel(stream, n, cost);
    // Single-tile fast path: shares run_tile_rows with the fused
    // executor but needs no SegmentTable (no per-launch allocations —
    // this is still the path under every per-transaction transfer
    // kernel).
    const LaunchSeg2D tile{ilo, jlo, width, height};
    util::ThreadPool::global().parallel_for(
        n, [&](std::int64_t begin, std::int64_t end) {
          auto drop_seg = [&body](std::size_t, int i, int j) { body(i, j); };
          run_tile_rows(tile, 0, begin, end, drop_seg);
        });
  }

  /// Fused launch over a SegmentTable (vgpu/launch_batch.hpp): ONE
  /// launch-overhead charge and one data-parallel sweep over the
  /// concatenated index space of all segments, with utilization computed
  /// from the total thread count. body(seg, i, j) runs for every (i, j)
  /// of every segment, row-wise within each segment — the same index
  /// sets and per-element arithmetic as the equivalent per-segment
  /// launch2d calls, so results are bit-identical to the per-patch path.
  template <typename F>
  void launch_batched(Stream& stream, const SegmentTable& segments,
                      const KernelCost& cost, F&& body) {
    RAMR_DEBUG_ASSERT(&stream.device() == this);
    const std::int64_t n = segments.total_threads();
    if (n <= 0) {
      return;
    }
    charge_kernel(stream, n, cost);
    util::ThreadPool::global().parallel_for(
        n, [&](std::int64_t begin, std::int64_t end) {
          run_segments(segments, begin, end, body);
        });
  }

  /// Charges a device-side reduction of n elements (tree depth ~ log n is
  /// dominated by the memory sweep at these sizes).
  void charge_reduction(std::int64_t n, double bytes_per_item = sizeof(double));

  /// Device-side min-reduction: evaluates f(i) for i in [0, n) data
  /// parallel and returns the minimum. Charges one kernel plus (for
  /// accelerators) the scalar D2H readback — this is the only per-step
  /// PCIe traffic of the resident scheme outside halo exchange. A
  /// wrapper over reduce_min_batched: [0, n) is laid out as rows of a
  /// wide virtual tile so 64-bit trip counts fit the int-typed segment
  /// fields; same single kernel charge and readback, same ascending
  /// evaluation order.
  template <typename F>
  double reduce_min(Stream& stream, std::int64_t n, const KernelCost& cost,
                    F&& f) {
    if (n <= 0) {
      return std::numeric_limits<double>::infinity();
    }
    constexpr std::int64_t kRow = std::int64_t{1} << 30;
    SegmentTable rows;
    if (n / kRow > 0) {
      rows.add(0, 0, static_cast<int>(kRow), static_cast<int>(n / kRow));
    }
    if (n % kRow > 0) {
      rows.add(0, static_cast<int>(n / kRow), static_cast<int>(n % kRow), 1);
    }
    return reduce_min_batched(
        stream, rows, cost, [&f](std::size_t, int i, int j) {
          return f(static_cast<std::int64_t>(j) * kRow + i);
        });
  }

  /// Fused min-reduction over a SegmentTable: one kernel charge for the
  /// total thread count and ONE scalar D2H readback, replacing P
  /// per-patch reduce_min calls (P kernels and P readbacks). f(seg, i, j)
  /// must be pure; min is exact, so the result is bit-identical to the
  /// per-segment reductions it fuses.
  template <typename F>
  double reduce_min_batched(Stream& stream, const SegmentTable& segments,
                            const KernelCost& cost, F&& f) {
    RAMR_DEBUG_ASSERT(&stream.device() == this);
    const std::int64_t n = segments.total_threads();
    if (n <= 0) {
      return std::numeric_limits<double>::infinity();
    }
    Timeline* tl = stream.lane() >= 0 ? timeline() : nullptr;
    double global_min = std::numeric_limits<double>::infinity();
    {
      // The scalar readback rides the stream's lane with the kernel.
      LaneScope lane(tl, stream.lane());
      charge_kernel(n, cost);
      std::mutex m;
      util::ThreadPool::global().parallel_for(
          n, [&](std::int64_t begin, std::int64_t end) {
            double local = std::numeric_limits<double>::infinity();
            auto take = [&](std::size_t seg, int i, int j) {
              local = std::min(local, f(seg, i, j));
            };
            run_segments(segments, begin, end, take);
            std::lock_guard<std::mutex> lock(m);
            global_min = std::min(global_min, local);
          });
      charge_scalar_readback();
    }
    if (tl != nullptr) {
      // Returning the scalar is a synchronization point: the caller's
      // lane cannot consume the value before the reduction completed.
      tl->advance(tl->active_lane(), tl->now(stream.lane()));
    }
    return global_min;
  }

  /// Charges the D2H readback of one scalar result (no-op on host specs).
  void charge_scalar_readback();

  /// While a launch-fusion scope is open, kernel bodies still execute
  /// eagerly (results stay bit-identical by construction) but their
  /// modeled charges are DEFERRED: charges with the same per-thread
  /// cost, launch tag and clock component accumulate into one group, and
  /// on close each group is charged as ONE launch — one launch overhead
  /// and an occupancy ramp computed from the group's total thread count.
  /// This is the cross-job analogue of launch_batched: the service
  /// interleaves K jobs' level advances inside one scope, so the same
  /// stage kernel of different jobs fuses exactly like the same stage of
  /// different patches. SimClock totals are order-independent
  /// accumulators, so deferring is sound on the synchronous path;
  /// a timeline (async model) is rejected at begin. Scopes nest; the
  /// flush happens when the outermost closes. Scalar readbacks and PCIe
  /// crossings are never deferred (the data is consumed immediately).
  void begin_launch_fusion();
  void end_launch_fusion();
  bool launch_fusion_open() const { return fusion_depth_ > 0; }
  const FusionStats& fusion_stats() const { return fusion_stats_; }

  /// The modeled cost of launching `n` threads at `cost` right now (the
  /// single home of the kernel-time formula).
  double modeled_kernel_seconds(std::int64_t n, const KernelCost& cost) const;

 private:
  void charge_kernel(std::int64_t n, const KernelCost& cost);

  /// Consults the fault plan before a launch charge: an injected launch
  /// fault is absorbed by up to config().launch_retries ECC-style retries
  /// (one launch-overhead charge each); past that it escapes as a thrown
  /// util::Error.
  void maybe_inject_launch_fault();

  /// Charges the launch on the stream's timeline lane when the stream is
  /// bound to one (async streams); on the active lane otherwise.
  void charge_kernel(const Stream& stream, std::int64_t n,
                     const KernelCost& cost) {
    LaneScope lane(stream.lane() >= 0 ? timeline() : nullptr, stream.lane());
    charge_kernel(n, cost);
  }

  /// Runs body(seg_id, i, j) over one tile's tile-local flattened index
  /// range [begin, end): the (i, j) position is resolved once at the
  /// start and advanced row-wise — no per-element div/mod.
  template <typename F>
  static void run_tile_rows(const LaunchSeg2D& seg, std::size_t seg_id,
                            std::int64_t begin, std::int64_t end, F& body) {
    int j = seg.jlo + static_cast<int>(begin / seg.width);
    int i = seg.ilo + static_cast<int>(begin % seg.width);
    std::int64_t idx = begin;
    while (idx < end) {
      const std::int64_t run =
          std::min<std::int64_t>(end - idx, (seg.ilo + seg.width) - i);
      for (const int iend = i + static_cast<int>(run); i < iend; ++i) {
        body(seg_id, i, j);
      }
      idx += run;
      if (i == seg.ilo + seg.width) {
        i = seg.ilo;
        ++j;
      }
    }
  }

  /// Runs body(arg, i, j) over flattened indices [begin, end) of a fused
  /// launch: the segment is resolved once per transition (binary search
  /// at the chunk start, increment afterwards), rows via run_tile_rows.
  /// The body receives the segment's ARGUMENT id (== the segment index
  /// unless the table assigned one explicitly).
  template <typename F>
  static void run_segments(const SegmentTable& segments, std::int64_t begin,
                           std::int64_t end, F& body) {
    std::size_t s = segments.find(begin);
    std::int64_t idx = begin;
    while (idx < end) {
      const LaunchSeg2D& seg = segments.segment(s);
      const std::int64_t seg_begin = segments.offset(s);
      const std::int64_t seg_end = seg_begin + seg.size();
      if (idx >= seg_end) {
        ++s;
        continue;
      }
      const std::int64_t stop = std::min(end, seg_end);
      run_tile_rows(seg, segments.arg(s), idx - seg_begin, stop - seg_begin,
                    body);
      idx = stop;
    }
  }

  /// Logs one crossing in the given direction and charges its modeled
  /// wire time (the single home of the PCIe cost formula).
  void charge_crossing(bool h2d, std::uint64_t bytes);

  DeviceSpec spec_;
  std::unique_ptr<SimClock> owned_clock_;
  SimClock* clock_ = nullptr;
  TransferLog transfers_;
  int ordinal_ = 0;
  double peer_lat_s_ = 0.0;
  double peer_bw_gbs_ = 0.0;  ///< 0 = unset, fall back to the PCIe model
  std::uint64_t bytes_allocated_ = 0;
  std::uint64_t peak_bytes_ = 0;
  std::uint64_t launch_count_ = 0;
  LaunchTag launch_tag_ = LaunchTag::kOther;
  std::array<std::uint64_t, kLaunchTagCount> launch_count_by_tag_{};
  double kernel_seconds_ = 0.0;

  /// One deferred-charge group of an open launch-fusion scope: charges
  /// agreeing on (per-thread cost, tag, component) fuse into one launch.
  /// In this codebase the KernelCost constants uniquely identify the
  /// kernel bodies, so the key needs no function identity.
  struct FusionGroup {
    double flops_per_thread = 0.0;
    double bytes_per_thread = 0.0;
    LaunchTag tag = LaunchTag::kOther;
    std::string component;
    std::int64_t threads = 0;
  };
  std::vector<FusionGroup> fusion_groups_;
  int fusion_depth_ = 0;
  FusionStats fusion_stats_;
  util::FaultPlan* fault_plan_ = nullptr;
  FaultStats fault_stats_;
};

inline void Event::record(Stream& stream) {
  recorded_ = true;
  const Timeline* tl = stream.device().clock().timeline();
  if (tl != nullptr) {
    timestamp_ =
        tl->now(stream.lane() >= 0 ? stream.lane() : tl->active_lane());
  }
}

/// RAII launch-tag scope: launches on `device` are attributed to `tag`
/// for the scope's lifetime. A null device makes the scope a no-op, so
/// callers that may run host-only need no branching.
class LaunchTagScope {
 public:
  LaunchTagScope(Device* device, LaunchTag tag) : device_(device) {
    if (device_ != nullptr) {
      previous_ = device_->launch_tag();
      device_->set_launch_tag(tag);
    }
  }
  ~LaunchTagScope() {
    if (device_ != nullptr) {
      device_->set_launch_tag(previous_);
    }
  }

  LaunchTagScope(const LaunchTagScope&) = delete;
  LaunchTagScope& operator=(const LaunchTagScope&) = delete;

 private:
  Device* device_;
  LaunchTag previous_ = LaunchTag::kOther;
};

/// RAII launch-fusion scope (see Device::begin_launch_fusion). A null
/// device makes the scope a no-op, so call sites need no branching.
class LaunchFusionScope {
 public:
  explicit LaunchFusionScope(Device* device) : device_(device) {
    if (device_ != nullptr) {
      device_->begin_launch_fusion();
    }
  }
  ~LaunchFusionScope() {
    if (device_ != nullptr) {
      device_->end_launch_fusion();
    }
  }

  LaunchFusionScope(const LaunchFusionScope&) = delete;
  LaunchFusionScope& operator=(const LaunchFusionScope&) = delete;

 private:
  Device* device_;
};

/// RAII fault-plan scope: `device` consults `plan` for the scope's
/// lifetime, then reverts to the previous plan (normally null) — the
/// device can never hold a dangling plan pointer past the scope. A null
/// device or null plan makes the scope a no-op.
class FaultScope {
 public:
  FaultScope(Device* device, util::FaultPlan* plan)
      : device_(plan != nullptr ? device : nullptr) {
    if (device_ != nullptr) {
      previous_ = device_->fault_plan();
      device_->set_fault_plan(plan);
    }
  }
  ~FaultScope() {
    if (device_ != nullptr) {
      device_->set_fault_plan(previous_);
    }
  }

  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

 private:
  Device* device_;
  util::FaultPlan* previous_ = nullptr;
};

}  // namespace ramr::vgpu
