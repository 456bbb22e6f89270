// Shared execution engine for all communication schedules (the paper's
// Fig. 4 transfer path, aggregated and compiled).
//
// Planning (done by RefineSchedule / CoarsenSchedule) produces a list of
// Transactions — one (source object, destination object, variable,
// overlap) movement each — in a deterministic plan order that every rank
// computes identically from the replicated level metadata. The engine
// groups them into ONE PeerMessage per destination rank, and finalize()
// COMPILES the replicated geometry into persistent transfer plans:
//
//   PackPlan   (per outgoing peer)  — a segment table gathering every
//                                     transaction's source regions into
//                                     the message payload layout,
//   UnpackPlan (per incoming peer)  — a segment table scattering the
//                                     received payload into destination
//                                     arrays,
//   LocalCopyPlan (one per engine)  — a segment table of all on-rank
//                                     device-to-device copies.
//
// execute() then issues ONE fused device launch per plan: one pack launch
// + one PCIe crossing per message sent, one upload + one scatter launch
// per message received, and one local-copy launch per exchange (plus one
// snapshot-gather launch when node/side seam reads alias writes) —
// instead of one launch per (transaction, component, box). Two compile-
// time analyses make the fused launches race-free and deterministic:
// destination regions that overlap in plan order (node seams written by
// several sources) are CLIPPED so only the last plan-order writer touches
// each element, and local-copy reads that alias any write of the exchange
// are SNAPSHOTTED before the apply writes start, so every transferred
// value is the pre-exchange source value — the same pack-then-apply
// semantics a remote transfer always has, independent of the rank
// layout. Plans are cached across timesteps; a regrid rebuilds the
// schedule (and therefore the plans).
//
// Schedules describe their transactions through TransferDelegate
// (geometry once at compile time, endpoint binding each execute); the
// engine owns all marshalling through the device views every PatchData
// exports. The compiled plans are the only way data moves.
#pragma once

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "pdat/box_overlap.hpp"
#include "pdat/message_stream.hpp"
#include "pdat/patch_data.hpp"
#include "util/array_view.hpp"
#include "vgpu/launch_batch.hpp"
#include "xfer/parallel_context.hpp"

namespace ramr::xfer {

/// Exact payload bytes of a depth-`depth` double-array transaction over
/// `overlap` — the shared sizing rule both endpoints of a transaction
/// apply to the replicated overlap metadata.
inline std::size_t overlap_stream_size(const pdat::BoxOverlap& overlap,
                                       int depth) {
  return static_cast<std::size_t>(overlap.element_count()) *
         static_cast<std::size_t>(depth) * sizeof(double);
}

/// One planned data movement between two ranks (possibly the same).
struct Transaction {
  int src_owner = -1;
  int dst_owner = -1;
  /// Opaque index into the owning schedule's transaction table; the
  /// engine hands it back through the TransferDelegate calls.
  std::size_t handle = 0;
};

/// Replicated, compile-time description of one transaction. Every rank
/// derives the identical geometry from the shared level metadata; the
/// overlap pointer must stay valid for the schedule's lifetime.
struct TransferGeometry {
  /// Destination-index-space fill regions (per component) + src shift.
  const pdat::BoxOverlap* overlap = nullptr;
  /// Depth planes of the moved variable.
  int depth = 1;
  /// Opaque destination-object id: two transactions may write the same
  /// element only if they share dst_slot. The plan compiler clips
  /// earlier writers against later ones per (dst_slot, component, plane),
  /// reproducing the plan-order last-writer-wins semantics in one fused
  /// race-free launch.
  int dst_slot = 0;
  /// Source-object id in the SAME space as dst_slot, or -1 when the
  /// source object is never a write target of this exchange (scratch,
  /// another level's arrays). Same-level ghost fills of node/side data
  /// read source seam lines that other transactions write; the compiler
  /// snapshots such reads before any apply write (see Plan::staged_segs),
  /// giving local copies the pack-then-apply semantics remote transfers
  /// always had — race-free and independent of the rank layout.
  int src_slot = -1;
};

/// Execute-time binding of a transaction's endpoints on this rank.
struct TransferEndpoints {
  pdat::PatchData* src = nullptr;  ///< null when the source is remote
  pdat::PatchData* dst = nullptr;  ///< null when the destination is remote
};

/// How a concrete schedule describes its transactions. This replaces the
/// callback-per-transaction TransactionDelegate (stream_size / pack /
/// unpack / copy_local): the engine owns all data movement; schedules
/// only describe it, which is what lets the engine fuse a whole message
/// into one launch.
class TransferDelegate {
 public:
  virtual ~TransferDelegate() = default;

  /// Replicated plan geometry of one transaction (sizing, plan
  /// compilation). Must agree between sender and receiver.
  virtual TransferGeometry geometry(std::size_t handle) const = 0;

  /// Binds the transaction's local endpoints for one execute(). Called
  /// after the schedule's per-exchange scratch exists; endpoints whose
  /// owner is another rank are returned null. Object identity may change
  /// between executes (scratch reallocation) — the compiled plans rebind
  /// views each execute — but the geometry may not.
  virtual TransferEndpoints endpoints(std::size_t handle) = 0;
};

/// Aggregated exchange plan: one message per peer rank per execute(),
/// one fused device launch per plan.
class TransferSchedule {
 public:
  TransferSchedule() = default;

  /// Binds the rank context and allocates the exchange's message tag.
  void initialize(ParallelContext& ctx) {
    ctx_ = &ctx;
    tag_ = ctx.allocate_tag();
  }

  /// The exchange's message tag: unique among the schedules of a rank
  /// (the context's counter only grows), so it also names the schedule.
  int tag() const { return tag_; }

  /// Appends a transaction; plan order is the add order.
  void add(const Transaction& t) { transactions_.push_back(t); }

  /// Groups transactions into per-peer messages, computes exact message
  /// sizes, and compiles the pack/unpack/local-copy plans. Call once,
  /// after the last add().
  void finalize(const TransferDelegate& delegate);

  /// Runs one exchange. May be called repeatedly (every timestep); plans
  /// compiled by finalize() are reused, only endpoint views rebind.
  /// Equivalent to execute_begin() + execute_finish().
  void execute(TransferDelegate& delegate);

  /// Split-phase execution: execute_begin() posts every receive, issues
  /// the fused pack launches + one isend per peer message, and runs the
  /// local-copy apply (snapshot included) — under an attached timeline
  /// (ParallelContext::timeline) all of it on the "comm" lane, with the
  /// wire legs on the network lane, so everything the caller runs before
  /// execute_finish() overlaps the communication.
  /// execute_finish() waits for the messages, uploads + fused-unpacks
  /// them, completes the sends, and joins the comm lane back into the
  /// caller's lane (an Event recorded on the comm stream).
  ///
  /// The data movement and launch contents are identical to execute()'s
  /// — only the modeled timestamps differ — so split and single-phase
  /// execution are bit-identical by construction. The caller must not
  /// touch data the exchange reads or writes between begin and finish.
  void execute_begin(TransferDelegate& delegate);
  void execute_finish();

  /// True between execute_begin() and execute_finish().
  bool in_flight() const { return in_flight_; }

  bool empty() const { return transactions_.empty(); }
  std::size_t transaction_count() const { return transactions_.size(); }

  /// Wire bytes this rank sends per execute() (headers included).
  std::uint64_t bytes_sent_per_exchange() const { return bytes_sent_; }

  /// Aggregated messages this rank sends / receives per execute().
  std::uint64_t messages_sent_per_exchange() const {
    return send_messages_.size();
  }
  std::uint64_t messages_received_per_exchange() const {
    return recv_messages_.size();
  }

  // -- Compiled-plan observability (tests, benches) ----------------------

  /// True once finalize() has compiled the transfer plans.
  bool plans_compiled() const { return plans_compiled_; }

  /// Total clipped segments across all compiled plans.
  std::size_t plan_segment_count() const {
    std::size_t n = local_plan_.ops.size();
    for (const auto& [peer, plan] : pack_plans_) {
      (void)peer;
      n += plan.ops.size();
    }
    for (const auto& [peer, plan] : unpack_plans_) {
      (void)peer;
      n += plan.ops.size();
    }
    return n;
  }

  /// How many executes ran the compiled plans. An execute with no
  /// transaction on this rank is a no-op and does not count.
  std::uint64_t compiled_executions() const { return compiled_executions_; }

 private:
  /// All transactions flowing between this rank and one peer, in plan
  /// order, with the exact aggregated wire size.
  struct PeerMessage {
    std::vector<std::size_t> transaction_indices;
    std::size_t payload_bytes = 0;
    std::size_t wire_bytes = 0;  ///< payload + header
  };

  /// One rectangle of a fused transfer launch. The segment table holds
  /// the (possibly clipped) iteration box; the op records which
  /// transaction/component/plane it belongs to, run geometry addressing
  /// the payload (pack/unpack: the UNclipped run; local: the clipped
  /// piece, addressing the snapshot buffer), and the dst->src shift.
  struct PlanSeg {
    std::uint32_t txn = 0;    ///< index into transactions_
    std::uint16_t comp = 0;   ///< component index
    std::uint16_t plane = 0;  ///< depth plane
    bool staged = false;      ///< local op reads the pre-apply snapshot
    int run_ilo = 0;          ///< run box for payload/snapshot addressing
    int run_jlo = 0;
    int run_w = 0;
    std::int64_t payload_base = 0;  ///< doubles from the payload/snapshot start
    int shift_i = 0;                ///< dst index - shift = src index
    int shift_j = 0;
  };

  /// A compiled fused launch: segment table + per-segment ops. The local
  /// plan may additionally carry a snapshot stage: segments whose READ
  /// region intersects any write of the exchange (node/side seam lines)
  /// are gathered into a staging buffer before the apply writes start,
  /// so every read observes the pre-exchange state — exactly what a
  /// remote peer's pack would have seen.
  struct Plan {
    vgpu::SegmentTable segs;
    std::vector<PlanSeg> ops;
    std::int64_t payload_doubles = 0;  ///< full message payload (pack/unpack)
    vgpu::SegmentTable staged_segs;    ///< aliased-read subset (local plan)
    std::vector<std::size_t> staged_ops;  ///< indices into ops
    std::int64_t staging_doubles = 0;
  };

  /// One device's share of a fused plan launch (multi-device ranks): the
  /// subset of a Plan's segments whose bound endpoint lives on `dev`.
  /// Segment args carry the GLOBAL op index, so the partition's launch
  /// body indexes the original plan.ops / view arrays unchanged — the
  /// split changes which device is charged, never what is computed.
  struct DevicePart {
    vgpu::Device* dev = nullptr;
    vgpu::SegmentTable segs;
  };

  /// Local-copy ops whose endpoints live on two different devices of the
  /// rank: packed on src_dev into a compact buffer, shipped over the
  /// directed peer link, scattered on dst_dev. Per-op buffer offsets
  /// live in peer_offset_ (indexed by the global op index).
  struct PeerPart {
    vgpu::Device* src_dev = nullptr;
    vgpu::Device* dst_dev = nullptr;
    vgpu::SegmentTable segs;
    std::int64_t doubles = 0;  ///< compact peer-buffer size
  };

  void compile_plans();
  /// Binds this execute's endpoints and their devices; false when no
  /// transaction touches this rank (nothing to execute).
  bool bind(TransferDelegate& delegate);
  void build_device_parts();
  void execute_compiled_begin();
  void execute_compiled_finish();
  void execute_local_plan(vgpu::Timeline* tl, int comm_lane);
  /// Forks `dev`'s per-device transfer lane from the comm lane's cursor
  /// and remembers it for the closing join (multi-device ranks: each
  /// device's plan partitions serialize on their own lane, not on the
  /// single comm lane). Returns comm_lane itself without a timeline.
  int device_lane(vgpu::Timeline* tl, int comm_lane, vgpu::Device* dev);
  std::vector<util::View> resolve_views(const Plan& plan, bool src_side) const;

  ParallelContext* ctx_ = nullptr;
  int tag_ = 0;
  bool finalized_ = false;
  std::vector<Transaction> transactions_;
  /// Per-transaction replicated geometry, cached at finalize().
  std::vector<TransferGeometry> geometry_;
  std::map<int, PeerMessage> send_messages_;  ///< keyed by destination rank
  std::map<int, PeerMessage> recv_messages_;  ///< keyed by source rank
  std::uint64_t bytes_sent_ = 0;

  // Compiled plans (geometry only; views rebind each execute).
  bool plans_compiled_ = false;
  std::map<int, Plan> pack_plans_;    ///< keyed by destination rank
  std::map<int, Plan> unpack_plans_;  ///< keyed by source rank
  Plan local_plan_;

  // Per-execute state.
  std::vector<TransferEndpoints> bindings_;
  vgpu::Device* plan_device_ = nullptr;
  /// Endpoints span several devices of the rank's topology; the compiled
  /// plans execute through the per-device partitions below.
  bool multi_device_ = false;
  std::map<int, std::vector<DevicePart>> pack_parts_;    ///< by dst rank
  std::map<int, std::vector<DevicePart>> unpack_parts_;  ///< by src rank
  std::vector<DevicePart> local_same_parts_;
  std::vector<DevicePart> local_staged_parts_;
  std::vector<PeerPart> local_peer_parts_;
  std::vector<std::int64_t> peer_offset_;  ///< per local op, doubles
  std::uint64_t compiled_executions_ = 0;

  // Split-phase in-flight state (execute_begin .. execute_finish).
  bool in_flight_ = false;
  bool flight_bound_ = false;  ///< bind() found work on this rank
  std::map<int, simmpi::Request> flight_recvs_;
  std::vector<pdat::MessageStream> flight_send_streams_;
  std::vector<simmpi::Request> flight_sends_;
  /// Per-device transfer lanes used this exchange; the closing join
  /// covers them alongside the comm lane.
  std::vector<int> flight_lanes_;
};

}  // namespace ramr::xfer
