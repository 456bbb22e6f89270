#include "xfer/transfer_schedule.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "vgpu/device_buffer.hpp"
#include "vgpu/topology.hpp"

namespace ramr::xfer {

namespace {

/// Fixed-size frame at the head of every aggregated message, validated on
/// receive against the receiver's replicated plan.
struct MessageHeader {
  std::uint32_t transaction_count = 0;
  std::uint32_t reserved = 0;
  std::uint64_t payload_bytes = 0;
};

/// Pack / unpack / copy move 8 bytes in and 8 bytes out per thread.
constexpr vgpu::KernelCost kXferCost{0.0, 16.0};

}  // namespace

void TransferSchedule::finalize(const TransferDelegate& delegate) {
  RAMR_REQUIRE(!finalized_, "TransferSchedule finalized twice");
  RAMR_REQUIRE(ctx_ != nullptr, "TransferSchedule used before initialize()");
  finalized_ = true;

  const int me = ctx_->my_rank;
  geometry_.reserve(transactions_.size());
  for (std::size_t i = 0; i < transactions_.size(); ++i) {
    const Transaction& t = transactions_[i];
    geometry_.push_back(delegate.geometry(t.handle));
    RAMR_REQUIRE(geometry_.back().overlap != nullptr,
                 "transaction described without an overlap");
    if (t.src_owner == t.dst_owner) {
      continue;  // local transactions are applied directly, never framed
    }
    PeerMessage* msg = nullptr;
    if (t.src_owner == me) {
      msg = &send_messages_[t.dst_owner];
    } else if (t.dst_owner == me) {
      msg = &recv_messages_[t.src_owner];
    } else {
      continue;  // between two other ranks; not our traffic
    }
    msg->transaction_indices.push_back(i);
    msg->payload_bytes +=
        overlap_stream_size(*geometry_[i].overlap, geometry_[i].depth);
  }
  for (auto* messages : {&send_messages_, &recv_messages_}) {
    for (auto& [peer, msg] : *messages) {
      (void)peer;
      msg.wire_bytes = sizeof(MessageHeader) + msg.payload_bytes;
    }
  }
  for (const auto& [peer, msg] : send_messages_) {
    (void)peer;
    bytes_sent_ += msg.wire_bytes;
  }
  compile_plans();
}

void TransferSchedule::compile_plans() {
  const int me = ctx_->my_rank;

  // Payload base (in doubles) of each framed transaction within its
  // message: transactions follow each other in plan order.
  std::vector<std::int64_t> payload_base(transactions_.size(), 0);
  for (auto* messages : {&send_messages_, &recv_messages_}) {
    for (auto& [peer, msg] : *messages) {
      (void)peer;
      std::int64_t base = 0;
      for (const std::size_t i : msg.transaction_indices) {
        payload_base[i] = base;
        base += geometry_[i].overlap->element_count() * geometry_[i].depth;
      }
    }
  }

  // Pack plans: segments in SOURCE index space, in exact payload layout
  // order — component-major, then depth plane, then overlap box, each box
  // row-major. Both endpoints derive it from the replicated geometry.
  // Pack only reads, so no clipping is needed and the segment-table
  // offsets walk the payload contiguously.
  for (const auto& [peer, msg] : send_messages_) {
    Plan& plan = pack_plans_[peer];
    plan.payload_doubles =
        static_cast<std::int64_t>(msg.payload_bytes / sizeof(double));
    for (const std::size_t i : msg.transaction_indices) {
      const TransferGeometry& g = geometry_[i];
      const mesh::IntVector shift = g.overlap->src_shift();
      std::int64_t off = payload_base[i];
      for (int k = 0; k < g.overlap->components(); ++k) {
        for (int d = 0; d < g.depth; ++d) {
          for (const mesh::Box& b : g.overlap->component(k).boxes()) {
            const mesh::Box src = b.shift(mesh::IntVector(-shift.i, -shift.j));
            PlanSeg op;
            op.txn = static_cast<std::uint32_t>(i);
            op.comp = static_cast<std::uint16_t>(k);
            op.plane = static_cast<std::uint16_t>(d);
            op.run_ilo = src.lower().i;
            op.run_jlo = src.lower().j;
            op.run_w = src.width();
            op.payload_base = off;
            plan.segs.add(src.lower().i, src.lower().j, src.width(),
                          src.height());
            plan.ops.push_back(op);
            off += b.size();
          }
        }
      }
    }
  }

  // Destination-side write runs (local copies + unpacks) in GLOBAL plan
  // order. Each run is clipped against every LATER run targeting the same
  // (dst_slot, component, plane): only the last plan-order writer keeps
  // each element, so the fused launches are free of intra-launch write
  // conflicts and their any-order execution reproduces the sequential
  // apply bit-for-bit.
  struct WriteRun {
    std::size_t txn;
    int comp;
    int plane;
    mesh::Box box;          ///< un-clipped destination run
    std::int64_t base;      ///< payload base of the run (unpack runs)
  };
  std::vector<WriteRun> runs;
  std::map<std::tuple<int, int, int>, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < transactions_.size(); ++i) {
    const Transaction& t = transactions_[i];
    if (t.dst_owner != me) {
      continue;
    }
    const TransferGeometry& g = geometry_[i];
    std::int64_t off = t.src_owner == me ? 0 : payload_base[i];
    for (int k = 0; k < g.overlap->components(); ++k) {
      for (int d = 0; d < g.depth; ++d) {
        for (const mesh::Box& b : g.overlap->component(k).boxes()) {
          groups[{g.dst_slot, k, d}].push_back(runs.size());
          runs.push_back(WriteRun{i, k, d, b, off});
          off += b.size();
        }
      }
    }
  }
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const WriteRun& run = runs[r];
    const TransferGeometry& g = geometry_[run.txn];
    mesh::BoxList pieces(run.box);
    for (const std::size_t q : groups[{g.dst_slot, run.comp, run.plane}]) {
      if (q <= r) {
        continue;
      }
      pieces.remove_intersections(runs[q].box);
      if (pieces.empty()) {
        break;
      }
    }
    if (pieces.empty()) {
      continue;  // fully overwritten by later plan-order writers
    }
    const Transaction& t = transactions_[run.txn];
    const bool local = t.src_owner == me;
    Plan& plan = local ? local_plan_ : unpack_plans_[t.src_owner];
    const mesh::IntVector shift = g.overlap->src_shift();
    for (const mesh::Box& piece : pieces.boxes()) {
      PlanSeg op;
      op.txn = static_cast<std::uint32_t>(run.txn);
      op.comp = static_cast<std::uint16_t>(run.comp);
      op.plane = static_cast<std::uint16_t>(run.plane);
      op.shift_i = shift.i;
      op.shift_j = shift.j;
      if (local) {
        // Local copies address no payload; the run fields address the
        // snapshot buffer over the clipped piece itself (dst space).
        op.run_ilo = piece.lower().i;
        op.run_jlo = piece.lower().j;
        op.run_w = piece.width();
        // Snapshot reads that alias ANY write of this exchange: the
        // source seam lines of node/side same-level fills are also
        // ghost-fill targets, so a live read would race with (and
        // order-depend on) the fused apply writes.
        if (g.src_slot >= 0) {
          const mesh::Box read_box = piece.shift(-shift);
          for (const std::size_t q :
               groups[{g.src_slot, run.comp, run.plane}]) {
            if (!read_box.intersect(runs[q].box).empty()) {
              op.staged = true;
              break;
            }
          }
        }
        if (op.staged) {
          op.payload_base = local_plan_.staging_doubles;
          local_plan_.staging_doubles += piece.size();
          local_plan_.staged_segs.add(piece.lower().i, piece.lower().j,
                                      piece.width(), piece.height());
          local_plan_.staged_ops.push_back(local_plan_.ops.size());
        }
      } else {
        op.run_ilo = run.box.lower().i;
        op.run_jlo = run.box.lower().j;
        op.run_w = run.box.width();
        op.payload_base = run.base;
      }
      plan.segs.add(piece.lower().i, piece.lower().j, piece.width(),
                    piece.height());
      plan.ops.push_back(op);
    }
  }
  // Every received message has a plan entry even when its writes were
  // fully clipped: the message must still be received and charged.
  for (const auto& [peer, msg] : recv_messages_) {
    unpack_plans_[peer].payload_doubles =
        static_cast<std::int64_t>(msg.payload_bytes / sizeof(double));
  }
  plans_compiled_ = true;
}

bool TransferSchedule::bind(TransferDelegate& delegate) {
  bindings_.assign(transactions_.size(), TransferEndpoints{});
  plan_device_ = nullptr;
  multi_device_ = false;
  const int me = ctx_->my_rank;
  for (std::size_t i = 0; i < transactions_.size(); ++i) {
    const Transaction& t = transactions_[i];
    if (t.src_owner != me && t.dst_owner != me) {
      continue;
    }
    TransferEndpoints ep = delegate.endpoints(t.handle);
    if (t.src_owner == me) {
      RAMR_REQUIRE(ep.src != nullptr, "missing local source object");
    }
    if (t.dst_owner == me) {
      RAMR_REQUIRE(ep.dst != nullptr, "missing local destination object");
    }
    for (pdat::PatchData* data : {t.src_owner == me ? ep.src : nullptr,
                                  t.dst_owner == me ? ep.dst : nullptr}) {
      if (data == nullptr) {
        continue;
      }
      vgpu::Device* dev = data->transfer_device();
      if (plan_device_ == nullptr) {
        plan_device_ = dev;
      } else if (plan_device_ != dev) {
        // With a topology the plans split into per-device launch
        // partitions, peer crossings charged to the link lanes
        // (build_device_parts below). Without one there is no peer link
        // to charge, so endpoints on two devices are a wiring error.
        RAMR_REQUIRE(ctx_->topology != nullptr,
                     "transfer schedule (tag " << tag_ << ") has endpoints "
                     "on two devices but no topology");
        multi_device_ = true;
      }
    }
    bindings_[i] = ep;
  }
  if (plan_device_ == nullptr) {
    return false;
  }
  if (multi_device_) {
    build_device_parts();
  }
  return true;
}

void TransferSchedule::build_device_parts() {
  // Re-partition every compiled plan by the device its bound endpoints
  // actually live on. Rebuilt each bind: scratch objects (and, after a
  // measured-balance regrid, patch->device placement) change between
  // executes while the plan geometry does not.
  pack_parts_.clear();
  unpack_parts_.clear();
  local_same_parts_.clear();
  local_staged_parts_.clear();
  local_peer_parts_.clear();
  peer_offset_.assign(local_plan_.ops.size(), 0);

  const auto part_for = [](std::vector<DevicePart>& parts,
                           vgpu::Device* dev) -> DevicePart& {
    for (DevicePart& p : parts) {
      if (p.dev == dev) {
        return p;
      }
    }
    parts.push_back(DevicePart{dev, {}});
    return parts.back();
  };

  for (const auto& [peer, plan] : pack_plans_) {
    std::vector<DevicePart>& parts = pack_parts_[peer];
    for (std::size_t s = 0; s < plan.ops.size(); ++s) {
      const vgpu::LaunchSeg2D& seg = plan.segs.segment(s);
      vgpu::Device* dev = bindings_[plan.ops[s].txn].src->transfer_device();
      part_for(parts, dev).segs.add(seg.ilo, seg.jlo, seg.width, seg.height, s);
    }
  }
  for (const auto& [peer, plan] : unpack_plans_) {
    std::vector<DevicePart>& parts = unpack_parts_[peer];
    for (std::size_t s = 0; s < plan.ops.size(); ++s) {
      const vgpu::LaunchSeg2D& seg = plan.segs.segment(s);
      vgpu::Device* dev = bindings_[plan.ops[s].txn].dst->transfer_device();
      part_for(parts, dev).segs.add(seg.ilo, seg.jlo, seg.width, seg.height, s);
    }
  }
  for (std::size_t s = 0; s < local_plan_.ops.size(); ++s) {
    const vgpu::LaunchSeg2D& seg = local_plan_.segs.segment(s);
    const TransferEndpoints& ep = bindings_[local_plan_.ops[s].txn];
    vgpu::Device* src_dev = ep.src->transfer_device();
    vgpu::Device* dst_dev = ep.dst->transfer_device();
    if (src_dev == dst_dev) {
      part_for(local_same_parts_, dst_dev)
          .segs.add(seg.ilo, seg.jlo, seg.width, seg.height, s);
      if (local_plan_.ops[s].staged) {
        part_for(local_staged_parts_, dst_dev)
            .segs.add(seg.ilo, seg.jlo, seg.width, seg.height, s);
      }
      continue;
    }
    // Cross-device: compact peer buffer per directed (src, dst) pair.
    PeerPart* pp = nullptr;
    for (PeerPart& cand : local_peer_parts_) {
      if (cand.src_dev == src_dev && cand.dst_dev == dst_dev) {
        pp = &cand;
        break;
      }
    }
    if (pp == nullptr) {
      local_peer_parts_.push_back(PeerPart{src_dev, dst_dev, {}, 0});
      pp = &local_peer_parts_.back();
    }
    peer_offset_[s] = pp->doubles;
    pp->doubles += seg.size();
    pp->segs.add(seg.ilo, seg.jlo, seg.width, seg.height, s);
  }
}

int TransferSchedule::device_lane(vgpu::Timeline* tl, int comm_lane,
                                  vgpu::Device* dev) {
  if (tl == nullptr || comm_lane < 0) {
    return comm_lane;
  }
  const int lane = tl->lane(vgpu::Topology::xfer_lane_name(dev->ordinal()));
  tl->advance(lane, tl->now(comm_lane));
  flight_lanes_.push_back(lane);
  return lane;
}

void TransferSchedule::execute(TransferDelegate& delegate) {
  execute_begin(delegate);
  execute_finish();
}

void TransferSchedule::execute_begin(TransferDelegate& delegate) {
  RAMR_REQUIRE(finalized_, "TransferSchedule executed before finalize()");
  RAMR_REQUIRE(!in_flight_, "execute_begin() while an exchange is in flight");
  const bool remote = !send_messages_.empty() || !recv_messages_.empty();
  RAMR_REQUIRE(!remote || ctx_->comm != nullptr,
               "distributed transfer plan without a communicator");
  flight_bound_ = bind(delegate);
  in_flight_ = true;
  if (!flight_bound_) {
    // No transaction touches this rank, so there is nothing to pack,
    // send, receive or apply.
    RAMR_DEBUG_ASSERT(!remote);
    return;
  }
  ++compiled_executions_;
  execute_compiled_begin();
}

void TransferSchedule::execute_finish() {
  RAMR_REQUIRE(in_flight_, "execute_finish() without execute_begin()");
  if (flight_bound_) {
    execute_compiled_finish();
  }
  in_flight_ = false;
  flight_recvs_.clear();
  flight_send_streams_.clear();
  flight_sends_.clear();
  flight_lanes_.clear();
}

std::vector<util::View> TransferSchedule::resolve_views(const Plan& plan,
                                                        bool src_side) const {
  // Rebind each segment to its endpoint's current device view: the
  // geometric plan is stable across executes, only the object pointers
  // (per-exchange scratch) change.
  std::vector<util::View> views;
  views.reserve(plan.ops.size());
  for (std::size_t s = 0; s < plan.ops.size(); ++s) {
    const PlanSeg& op = plan.ops[s];
    const TransferEndpoints& ep = bindings_[op.txn];
    pdat::PatchData* data = src_side ? ep.src : ep.dst;
    RAMR_DEBUG_ASSERT(data != nullptr);
    const vgpu::LaunchSeg2D& seg = plan.segs.segment(s);
    mesh::Box region(seg.ilo, seg.jlo, seg.ilo + seg.width - 1,
                     seg.jlo + seg.height - 1);
    if (src_side && (op.shift_i != 0 || op.shift_j != 0)) {
      region = region.shift(mesh::IntVector(-op.shift_i, -op.shift_j));
    }
    views.push_back(data->transfer_view(op.comp, op.plane, region));
  }
  return views;
}

void TransferSchedule::execute_compiled_begin() {
  vgpu::Device& dev = *plan_device_;
  vgpu::Stream stream(dev, "xfer");
  // Under a timeline the whole begin phase runs on the comm lane: the
  // pack launches and D2H crossings advance it (the comm stream is bound
  // to it), the isends' wire time rides the network lane, and the
  // caller's compute lane does not move — whatever runs between begin
  // and finish overlaps this communication.
  vgpu::Timeline* tl = ctx_->timeline;
  const int comm_lane = tl != nullptr ? tl->lane("comm") : -1;
  vgpu::LaneScope comm_scope(tl, comm_lane);
  stream.bind_lane(comm_lane);

  // 1. Post every receive before any packing happens.
  std::map<int, simmpi::Request>& recvs = flight_recvs_;
  for (const auto& [peer, msg] : recv_messages_) {
    (void)msg;
    recvs.emplace(peer, ctx_->comm->irecv(peer, tag_));
  }

  // 2. One fused gather launch + ONE PCIe crossing + one isend per
  //    outgoing peer message. The download rides the device's D2H COPY
  //    ENGINE — its own timeline lane, chained after this message's pack
  //    (fork) and before its isend (the send issues from the engine's
  //    cursor) — so the NEXT message's pack launch overlaps this
  //    message's bus crossing, exactly as CUDA streams overlap compute
  //    with the dedicated copy engines.
  const int d2h_lane = tl != nullptr ? tl->lane("d2h") : -1;
  std::vector<pdat::MessageStream>& send_streams = flight_send_streams_;
  send_streams.reserve(send_messages_.size());
  std::vector<simmpi::Request>& sends = flight_sends_;
  sends.reserve(send_messages_.size());
  const bool gpu_direct = ctx_->gpu_direct;
  for (const auto& [peer, msg] : send_messages_) {
    const Plan& plan = pack_plans_.at(peer);
    vgpu::DeviceBuffer<double> staging(dev, plan.payload_doubles);
    {
      vgpu::AnnotationScope pack_annotation(ctx_->clock, "xfer:pack");
      const std::vector<util::View> views =
          resolve_views(plan, /*src_side=*/true);
      double* out = staging.device_ptr();
      const PlanSeg* ops = plan.ops.data();
      const util::View* v = views.data();
      const auto pack_body = [=](std::size_t s, int i, int j) {
        const PlanSeg& op = ops[s];
        out[op.payload_base +
            static_cast<std::int64_t>(j - op.run_jlo) * op.run_w +
            (i - op.run_ilo)] = v[s](i, j);
      };
      if (!multi_device_) {
        vgpu::LaunchTagScope tag_scope(&dev, vgpu::LaunchTag::kTransferPack);
        dev.launch_batched(stream, plan.segs, kXferCost, pack_body);
      } else {
        // One gather launch per source device, all writing the SAME staging
        // buffer at the GLOBAL payload offsets — the wire layout is
        // bit-identical to the single-device pack by construction. Each
        // partition rides its device's own transfer lane (forked from the
        // comm cursor) so the devices gather concurrently; the join below
        // holds the message's bus crossing / isend until every partition
        // has finished.
        double packed = tl != nullptr ? tl->now(comm_lane) : 0.0;
        for (const DevicePart& part : pack_parts_.at(peer)) {
          vgpu::Stream part_stream(*part.dev, "xfer");
          const int lane = device_lane(tl, comm_lane, part.dev);
          part_stream.bind_lane(lane);
          vgpu::LaunchTagScope tag_scope(part.dev,
                                         vgpu::LaunchTag::kTransferPack);
          part.dev->launch_batched(part_stream, part.segs, kXferCost,
                                   pack_body);
          if (tl != nullptr) {
            packed = std::max(packed, tl->now(lane));
          }
        }
        if (tl != nullptr) {
          tl->advance(comm_lane, packed);
        }
      }
    }
    // Wire leg: staging crossing (unless gpu_direct) + isend.
    vgpu::AnnotationScope wire_annotation(ctx_->clock, "xfer:wire");
    pdat::MessageStream ms;
    ms.reserve(msg.wire_bytes);
    MessageHeader header;
    header.transaction_count =
        static_cast<std::uint32_t>(msg.transaction_indices.size());
    header.payload_bytes = msg.payload_bytes;
    ms.write(header);
    std::byte* dst = ms.grow(msg.payload_bytes);
    if (gpu_direct) {
      // NIC-direct: no modeled D2H staging; the isend issues straight
      // from the comm lane (pack completion) and wire time is unchanged.
      dev.memcpy_d2h_direct(dst, staging.device_ptr(), msg.payload_bytes);
      RAMR_REQUIRE(ms.size() == msg.wire_bytes,
                   "aggregated message to rank " << peer << " packed "
                   << ms.size() << " bytes, planned " << msg.wire_bytes);
      send_streams.push_back(std::move(ms));
      sends.push_back(ctx_->comm->isend(peer, tag_, send_streams.back().data(),
                                        send_streams.back().size()));
    } else {
      // Fork the copy engine from the pack's completion; the isend below
      // issues from the engine's cursor (still inside this scope), so
      // wire follows download follows pack — per message, while packs of
      // later messages proceed on the comm lane concurrently. On a
      // multi-device rank the whole payload crosses on the message's
      // home device (the plan device).
      vgpu::LaneScope d2h_scope(tl, comm_lane >= 0 ? d2h_lane : -1);
      dev.memcpy_d2h(dst, staging.device_ptr(), msg.payload_bytes);
      RAMR_REQUIRE(ms.size() == msg.wire_bytes,
                   "aggregated message to rank " << peer << " packed "
                   << ms.size() << " bytes, planned " << msg.wire_bytes);
      send_streams.push_back(std::move(ms));
      sends.push_back(ctx_->comm->isend(peer, tag_, send_streams.back().data(),
                                        send_streams.back().size()));
    }
  }

  // 3. ONE fused local-copy launch per exchange. Compile-time clipping
  //    made all remaining writes (here and in the unpack plans) disjoint,
  //    so the order between this launch and the per-peer scatters is
  //    free — every element receives exactly its last plan-order writer.
  //    Reads that alias any of the exchange's writes (node/side seam
  //    lines) go through a pre-apply snapshot — one extra gather launch,
  //    issued before any apply write, so every copied value is the
  //    pre-exchange source value, identical to what a remote peer's pack
  //    ships regardless of the rank layout.
  if (local_plan_.segs.total_threads() > 0) {
    execute_local_plan(tl, comm_lane);
  }
}

void TransferSchedule::execute_local_plan(vgpu::Timeline* tl, int comm_lane) {
  vgpu::AnnotationScope annotation(ctx_->clock, "xfer:local");
  vgpu::Device& dev = *plan_device_;
  vgpu::Stream stream(dev, "xfer");
  stream.bind_lane(comm_lane);
  const std::vector<util::View> dst_views =
      resolve_views(local_plan_, /*src_side=*/false);
  const std::vector<util::View> src_views =
      resolve_views(local_plan_, /*src_side=*/true);
  const PlanSeg* ops = local_plan_.ops.data();
  const util::View* dv = dst_views.data();
  const util::View* sv = src_views.data();
  if (!multi_device_) {
    vgpu::LaunchTagScope tag_scope(&dev, vgpu::LaunchTag::kLocalCopy);
    vgpu::DeviceBuffer<double> snapshot(
        dev, std::max<std::int64_t>(local_plan_.staging_doubles, 1));
    double* snap = snapshot.device_ptr();
    if (local_plan_.staging_doubles > 0) {
      const std::size_t* staged = local_plan_.staged_ops.data();
      dev.launch_batched(stream, local_plan_.staged_segs, kXferCost,
                         [=](std::size_t t, int i, int j) {
                           const PlanSeg& op = ops[staged[t]];
                           snap[op.payload_base +
                                static_cast<std::int64_t>(j - op.run_jlo) *
                                    op.run_w +
                                (i - op.run_ilo)] =
                               sv[staged[t]](i - op.shift_i, j - op.shift_j);
                         });
    }
    dev.launch_batched(
        stream, local_plan_.segs, kXferCost, [=](std::size_t s, int i, int j) {
          const PlanSeg& op = ops[s];
          dv[s](i, j) =
              op.staged
                  ? snap[op.payload_base +
                         static_cast<std::int64_t>(j - op.run_jlo) * op.run_w +
                         (i - op.run_ilo)]
                  : sv[s](i - op.shift_i, j - op.shift_j);
        });
    return;
  }

  // Multi-device local plan, strict read-before-write phases: every read
  // of the exchange (same-device snapshot gathers, cross-device peer
  // packs) completes before any write (same-device applies, peer
  // unpacks). Global clipping already made all writes disjoint, so the
  // order among writers is free — the same pack-then-apply semantics the
  // single-device plan has.
  //
  // 1. Per-device snapshot gathers for same-device aliased reads. Each
  //    device gathers into its own snapshot buffer at the plan's global
  //    staging offsets.
  std::vector<vgpu::DeviceBuffer<double>> snapshots;
  snapshots.reserve(local_staged_parts_.size());
  std::vector<std::pair<vgpu::Device*, double*>> snap_by_dev;
  for (const DevicePart& part : local_staged_parts_) {
    snapshots.emplace_back(
        *part.dev, std::max<std::int64_t>(local_plan_.staging_doubles, 1));
    double* snap = snapshots.back().device_ptr();
    snap_by_dev.emplace_back(part.dev, snap);
    vgpu::Stream part_stream(*part.dev, "xfer");
    part_stream.bind_lane(device_lane(tl, comm_lane, part.dev));
    vgpu::LaunchTagScope tag_scope(part.dev, vgpu::LaunchTag::kLocalCopy);
    part.dev->launch_batched(part_stream, part.segs, kXferCost,
                             [=](std::size_t s, int i, int j) {
                               const PlanSeg& op = ops[s];
                               snap[op.payload_base +
                                    static_cast<std::int64_t>(j - op.run_jlo) *
                                        op.run_w +
                                    (i - op.run_ilo)] =
                                   sv[s](i - op.shift_i, j - op.shift_j);
                             });
  }

  // 2. Cross-device packs into compact per-(src,dst) buffers — before
  //    any apply write, so the live reads see pre-exchange values — then
  //    the peer-link crossing itself, charged to the directed
  //    "peer<i>-<j>" lane forked from the comm lane.
  struct PeerFlight {
    const PeerPart* part;
    vgpu::DeviceBuffer<double> src_buf;
    vgpu::DeviceBuffer<double> dst_buf;
    double ready = 0.0;  ///< link-lane completion of the crossing
  };
  std::vector<PeerFlight> flights;
  flights.reserve(local_peer_parts_.size());
  const std::int64_t* off = peer_offset_.data();
  for (const PeerPart& part : local_peer_parts_) {
    PeerFlight f{&part,
                 vgpu::DeviceBuffer<double>(
                     *part.src_dev, std::max<std::int64_t>(part.doubles, 1)),
                 vgpu::DeviceBuffer<double>(
                     *part.dst_dev, std::max<std::int64_t>(part.doubles, 1)),
                 0.0};
    double* buf = f.src_buf.device_ptr();
    vgpu::Stream part_stream(*part.src_dev, "xfer");
    const int src_lane = device_lane(tl, comm_lane, part.src_dev);
    part_stream.bind_lane(src_lane);
    {
      vgpu::LaunchTagScope tag_scope(part.src_dev, vgpu::LaunchTag::kLocalCopy);
      part.src_dev->launch_batched(part_stream, part.segs, kXferCost,
                                   [=](std::size_t s, int i, int j) {
                                     const PlanSeg& op = ops[s];
                                     buf[off[s] +
                                         static_cast<std::int64_t>(
                                             j - op.run_jlo) *
                                             op.run_w +
                                         (i - op.run_ilo)] =
                                         sv[s](i - op.shift_i, j - op.shift_j);
                                   });
    }
    // memcpy_peer forks the directed link lane from the active lane;
    // scoping to the source device's transfer lane chains the crossing
    // after the pack launch above, not after unrelated comm work.
    vgpu::LaneScope src_scope(tl, src_lane);
    f.ready = part.src_dev->memcpy_peer(
        f.dst_buf.device_ptr(), *part.dst_dev, f.src_buf.device_ptr(),
        static_cast<std::uint64_t>(part.doubles) * sizeof(double));
    flights.push_back(std::move(f));
  }

  // 3. Same-device applies, one launch per device.
  for (const DevicePart& part : local_same_parts_) {
    double* snap = nullptr;
    for (const auto& [d, p] : snap_by_dev) {
      if (d == part.dev) {
        snap = p;
        break;
      }
    }
    vgpu::Stream part_stream(*part.dev, "xfer");
    part_stream.bind_lane(device_lane(tl, comm_lane, part.dev));
    vgpu::LaunchTagScope tag_scope(part.dev, vgpu::LaunchTag::kLocalCopy);
    part.dev->launch_batched(
        part_stream, part.segs, kXferCost, [=](std::size_t s, int i, int j) {
          const PlanSeg& op = ops[s];
          dv[s](i, j) =
              op.staged
                  ? snap[op.payload_base +
                         static_cast<std::int64_t>(j - op.run_jlo) * op.run_w +
                         (i - op.run_ilo)]
                  : sv[s](i - op.shift_i, j - op.shift_j);
        });
  }

  // 4. Peer unpacks on the destination device, each ordered after its
  //    link crossing completes.
  for (const PeerFlight& f : flights) {
    const PeerPart& part = *f.part;
    const int dst_lane = device_lane(tl, comm_lane, part.dst_dev);
    if (tl != nullptr) {
      tl->advance(dst_lane, f.ready);
    }
    const double* buf = f.dst_buf.device_ptr();
    vgpu::Stream part_stream(*part.dst_dev, "xfer");
    part_stream.bind_lane(dst_lane);
    vgpu::LaunchTagScope tag_scope(part.dst_dev, vgpu::LaunchTag::kLocalCopy);
    part.dst_dev->launch_batched(
        part_stream, part.segs, kXferCost, [=](std::size_t s, int i, int j) {
          const PlanSeg& op = ops[s];
          dv[s](i, j) = buf[off[s] +
                            static_cast<std::int64_t>(j - op.run_jlo) *
                                op.run_w +
                            (i - op.run_ilo)];
        });
  }
}

void TransferSchedule::execute_compiled_finish() {
  vgpu::Device& dev = *plan_device_;
  vgpu::Stream stream(dev, "xfer");
  // Finish continues the comm lane PRE-ISSUED: its stream operations —
  // per-message arrival waits, uploads, fused scatters — model receive
  // processing enqueued on the transfer stream at begin time and gated
  // on the arrival events (stream-ordered receives), so they start at
  // max(comm-lane progress, arrival), not at the caller's present.
  // That is what lets the DEcomposition side of an exchange hide behind
  // the compute issued between begin and finish, exactly as the pack
  // side already does; the closing Event still joins the lane back into
  // the caller's, so completion is the max of the compute and
  // communication chains, never less than either.
  vgpu::Timeline* tl = ctx_->timeline;
  const int comm_lane = tl != nullptr ? tl->lane("comm") : -1;
  {
    vgpu::LaneScope comm_scope(tl, comm_lane, /*preissued=*/true);
    stream.bind_lane(comm_lane);

    // 4. Per received message: ONE upload crossing + one fused scatter
    //    launch. Uploads ride the H2D COPY ENGINE (its own lane, forked
    //    per message from the arrival wait), and every upload is issued
    //    before any scatter: message k+1's bus crossing overlaps message
    //    k's scatter kernel, with each scatter chained after its own
    //    upload's completion.
    const int h2d_lane = tl != nullptr ? tl->lane("h2d") : -1;
    struct Arrived {
      int peer;
      vgpu::DeviceBuffer<double> staging;
      double uploaded_at = 0.0;  ///< H2D engine cursor after the upload
    };
    std::vector<Arrived> arrived;
    arrived.reserve(recv_messages_.size());
    for (const auto& [peer, msg] : recv_messages_) {
      vgpu::AnnotationScope wire_annotation(ctx_->clock, "xfer:wire");
      auto rit = flight_recvs_.find(peer);
      RAMR_REQUIRE(rit != flight_recvs_.end(),
                   "no posted receive for rank " << peer);
      ctx_->comm->wait(rit->second);
      pdat::MessageStream ms(rit->second.take_payload());
      RAMR_REQUIRE(ms.size() == msg.wire_bytes,
                   "aggregated message from rank " << peer << " is "
                   << ms.size() << " bytes, planned " << msg.wire_bytes);
      const auto header = ms.read<MessageHeader>();
      RAMR_REQUIRE(header.transaction_count == msg.transaction_indices.size() &&
                       header.payload_bytes == msg.payload_bytes,
                   "aggregated message frame mismatch from rank " << peer);
      const Plan& plan = unpack_plans_.at(peer);
      Arrived a{peer, vgpu::DeviceBuffer<double>(dev, plan.payload_doubles),
                0.0};
      const std::byte* src = ms.view_and_skip(msg.payload_bytes);
      if (ctx_->gpu_direct) {
        // NIC-direct receive: the payload lands in device memory with no
        // modeled H2D staging; the scatter issues from the comm cursor
        // (which the arrival wait already advanced).
        dev.memcpy_h2d_direct(a.staging.device_ptr(), src, msg.payload_bytes);
      } else {
        vgpu::LaneScope h2d_scope(tl, comm_lane >= 0 ? h2d_lane : -1);
        dev.memcpy_h2d(a.staging.device_ptr(), src, msg.payload_bytes);
        if (tl != nullptr) {
          a.uploaded_at = tl->now(h2d_lane);
        }
      }
      RAMR_REQUIRE(ms.fully_consumed(), "aggregated message from rank " << peer
                   << " not fully consumed: " << ms.read_position() << " of "
                   << ms.size());
      arrived.push_back(std::move(a));
    }
    for (const Arrived& a : arrived) {
      const Plan& plan = unpack_plans_.at(a.peer);
      if (plan.segs.total_threads() == 0) {
        continue;
      }
      vgpu::AnnotationScope unpack_annotation(ctx_->clock, "xfer:unpack");
      if (tl != nullptr) {
        // The scatter cannot start before its payload is device-resident.
        tl->advance(comm_lane, a.uploaded_at);
      }
      const std::vector<util::View> views =
          resolve_views(plan, /*src_side=*/false);
      const PlanSeg* ops = plan.ops.data();
      const util::View* v = views.data();
      const double* in = a.staging.device_ptr();
      const auto scatter_body = [=](std::size_t s, int i, int j) {
        const PlanSeg& op = ops[s];
        v[s](i, j) = in[op.payload_base +
                        static_cast<std::int64_t>(j - op.run_jlo) * op.run_w +
                        (i - op.run_ilo)];
      };
      if (!multi_device_) {
        vgpu::LaunchTagScope tag_scope(&dev, vgpu::LaunchTag::kTransferUnpack);
        dev.launch_batched(stream, plan.segs, kXferCost, scatter_body);
      } else {
        // One scatter launch per destination device, all reading the
        // message's staging buffer at the global payload offsets. Each
        // partition's lane forks from the comm cursor, which the arrival
        // wait and upload already advanced — devices scatter concurrently
        // but never before their payload is resident.
        for (const DevicePart& part : unpack_parts_.at(a.peer)) {
          vgpu::Stream part_stream(*part.dev, "xfer");
          part_stream.bind_lane(device_lane(tl, comm_lane, part.dev));
          vgpu::LaunchTagScope tag_scope(part.dev,
                                         vgpu::LaunchTag::kTransferUnpack);
          part.dev->launch_batched(part_stream, part.segs, kXferCost,
                                   scatter_body);
        }
      }
    }
    if (!flight_sends_.empty()) {
      ctx_->comm->wait_all(flight_sends_);
    }
  }
  if (tl != nullptr) {
    // Join: the exchange's writes are visible to the caller only once
    // the comm lane — and, on a multi-device rank, every per-device
    // transfer lane this exchange used — has drained.
    vgpu::Event done;
    done.record(stream);
    double join = done.timestamp();
    for (const int lane : flight_lanes_) {
      join = std::max(join, tl->now(lane));
    }
    tl->advance(tl->active_lane(), join);
  }
}

}  // namespace ramr::xfer
