// Multi-lane timing model: the one account of WHEN modeled work
// completes.
//
// The SimClock answers "how many modeled seconds of work were charged,
// by component" — a serial account. The Timeline answers "WHEN does each
// piece of work complete if independent engines run concurrently": every
// lane (a compute stream, the communication stream, the NIC) owns a time
// cursor on the shared clock, operations advance the lane they run on,
// and cross-lane ordering is imposed only where the program records it
// (events, message arrivals, collective rendezvous). The completion time
// of overlapped work is therefore the MAX of the dependency chains, not
// the sum of the charges — which is exactly the paper's claim for
// GPU-resident AMR: wire time hidden behind compute costs nothing.
//
// Every SimClock owns one Timeline, and every charge advances the ACTIVE
// lane (a scope stack, like ComponentScope; lane 0 "host" is the
// default). A timeline starts in single-lane mode: lane(name) returns
// the host lane, so every lane scope, fork, event wait and join
// collapses onto one cursor that adds up the same charges in the same
// order as SimClock::total() — the synchronous schedule, in which every
// fill finishes before the next stage starts. Only cross-rank waits
// (message arrivals, collective rendezvous) move that cursor without a
// charge. enable_named_lanes() switches to one cursor per named lane
// (async-overlap runs): overlap appears only where a caller routes work
// onto another lane (LaneScope, Stream::bind_lane) between a fork and a
// join.
//
// Accounting:
//   busy(lane)       modeled seconds of work charged on the lane
//   busy_total()     all charges (== SimClock::total() after a reset)
//   makespan()       max lane cursor = completion time of the rank
//   overlap_seconds_saved() = busy_total() + imbalance_idle() - makespan()
#pragma once

#include <string>
#include <vector>

namespace ramr::vgpu {

class SimClock;

/// Per-rank multi-lane virtual time. Not thread-safe: one rank, one
/// thread, like the SimClock that owns it.
class Timeline {
 public:
  /// Lane 0 always exists: the host/compute lane every charge lands on
  /// unless a scope routes it elsewhere.
  static constexpr int kHostLane = 0;

  /// Built by `clock` (SimClock owns its timeline), in single-lane mode.
  explicit Timeline(SimClock& clock);

  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;

  /// Switches from the single-lane mode to one cursor per named lane
  /// (the async-overlap model). One-way: lanes never merge back.
  void enable_named_lanes() { named_lanes_ = true; }
  bool named_lanes() const { return named_lanes_; }

  /// Returns the lane with this name, creating it at the current host
  /// cursor if it does not exist yet. The host lane in single-lane mode.
  int lane(const std::string& name);
  std::size_t lane_count() const { return lanes_.size(); }
  const std::string& lane_name(int lane) const;

  /// Current cursor of one lane / of the active lane.
  double now(int lane) const;
  double now() const { return now(active_lane()); }
  int active_lane() const { return active_stack_.back(); }

  /// Cross-lane ordering: cursor(lane) = max(cursor(lane), t). Waits add
  /// no busy time — idle is exactly what overlap removes.
  void advance(int lane, double t);

  /// Collective rendezvous on the active lane: like advance(), but the
  /// forward jump is booked as imbalance idle — load-imbalance wait
  /// that overlap cannot remove, so overlap_seconds_saved() excludes it
  /// rather than mistaking it for lost overlap.
  void rendezvous(double t);

  /// Books load-imbalance idle directly (the receiver's wait beyond the
  /// wire time when a sender lags — see Communicator::recv).
  void add_imbalance_idle(double seconds) { imbalance_idle_ += seconds; }
  double imbalance_idle() const { return imbalance_idle_; }

  /// Completion time of everything issued so far (max over lanes),
  /// including cross-rank waits (rendezvous idle, lagging senders).
  double makespan() const;

  /// makespan() with the imbalance idle removed: the completion time
  /// without load-imbalance waits, comparable across ranks and between
  /// the single-lane and named-lane modes. By construction
  /// comparable_seconds() == busy_total() - overlap_seconds_saved().
  double comparable_seconds() const { return makespan() - imbalance_idle_; }

  /// Work charged on one lane / on all lanes.
  double busy(int lane) const;
  double busy_total() const { return busy_total_; }

  /// Modeled seconds the lanes saved over running every charge back to
  /// back — the headline counter of the async subsystem: the off-host
  /// lane work (comm kernels, copy engines, wire) hidden behind other
  /// lanes, minus any time the critical path stalled on a message whose
  /// wire failed to hide. Imbalance idle — collective rendezvous waits
  /// and the part of a message wait caused by a lagging sender — is
  /// excluded: it is load imbalance, not overlap. 0 on a single-rank
  /// single-lane run, where the cursor is the busy sum.
  double overlap_seconds_saved() const {
    return busy_total_ + imbalance_idle_ - makespan();
  }

  /// Re-anchors every cursor at zero (benches reset with the clock).
  void reset();

  /// SimClock hook: `seconds` of work just charged; runs on the active
  /// lane starting at its cursor.
  void on_charge(double seconds);

  // Scope management (prefer LaneScope). Pushing forks the lane from the
  // previously active one: ops on the new lane are issued now, so they
  // cannot start earlier than the issuing lane's cursor.
  void push_lane(int lane);
  /// Like push_lane but WITHOUT the fork: the routed work was already
  /// enqueued on `lane` at an earlier point (stream operations recorded
  /// at begin time, gated on event/message arrival — the pre-issued
  /// receive processing of a split-phase exchange), so it continues from
  /// the lane's own cursor instead of the issuing lane's present.
  void push_lane_preissued(int lane) { active_stack_.push_back(lane); }
  void pop_lane();

 private:
  struct Lane {
    std::string name;
    double cursor = 0.0;
    double busy = 0.0;
  };

  SimClock* clock_;
  bool named_lanes_ = false;
  std::vector<Lane> lanes_;
  std::vector<int> active_stack_;
  double busy_total_ = 0.0;
  double imbalance_idle_ = 0.0;
};

/// RAII active-lane scope: charges within go to `lane`, forked from the
/// previously active lane — or, with `preissued`, continuing from the
/// lane's own cursor (work recorded on the lane earlier and gated on
/// arrival events, not issued now). A negative lane (an unbound stream)
/// makes the scope a no-op, so call sites need no branching.
class LaneScope {
 public:
  LaneScope(Timeline& timeline, int lane, bool preissued = false)
      : timeline_(timeline), active_(lane >= 0) {
    if (!active_) {
      return;
    }
    if (preissued) {
      timeline_.push_lane_preissued(lane);
    } else {
      timeline_.push_lane(lane);
    }
  }
  ~LaneScope() {
    if (active_) {
      timeline_.pop_lane();
    }
  }

  LaneScope(const LaneScope&) = delete;
  LaneScope& operator=(const LaneScope&) = delete;

 private:
  Timeline& timeline_;
  bool active_;
};

}  // namespace ramr::vgpu
