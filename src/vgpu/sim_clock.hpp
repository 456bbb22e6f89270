// Per-rank simulated clock with named components.
//
// Every modeled cost (kernel launches, PCIe copies, network messages)
// is charged to the component currently on top of the clock's scope
// stack, so the benches can report the same breakdown as Figure 11 of
// the paper (hydrodynamics / synchronisation / regridding / timestep).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "vgpu/timeline.hpp"

namespace ramr::vgpu {

/// Observer of everything the modeled clock does. The clock (and, via
/// the clock, Timeline and Device) notifies the attached listener of
/// every charge, counted kernel launch, lane wait, and annotation
/// scope. Observing is strictly passive: a listener never alters
/// modeled seconds, launch counts, or lane cursors, so a run with a
/// listener attached is bit-identical to one without.
class ChargeListener {
 public:
  virtual ~ChargeListener() = default;

  /// Every modeled charge, after the clock and timeline have absorbed
  /// it: `component` is the clock component it was booked to.
  virtual void on_charge(const std::string& component, double seconds) = 0;

  /// A counted kernel launch (Device::launch_count is about to
  /// increment); the next on_charge carries its cost. `tag` is the
  /// LaunchTag as an int. Fault-retry overhead does NOT fire this —
  /// retries charge time without counting a launch.
  virtual void on_kernel_launch(int tag) { (void)tag; }

  /// A lane's cursor jumped forward without busy time: a fork syncing
  /// to its issuer, a join, an arrival wait, or (rendezvous=true) a
  /// cross-rank barrier booking imbalance idle.
  virtual void on_lane_wait(int lane, double t_begin, double t_end,
                            bool rendezvous) {
    (void)lane;
    (void)t_begin;
    (void)t_end;
    (void)rendezvous;
  }

  /// Named scope entry/exit (AnnotationScope). Scopes nest.
  virtual void on_annotation_begin(const std::string& name) { (void)name; }
  virtual void on_annotation_end() {}

  /// The clock (and any timeline) re-anchored virtual time at zero.
  virtual void on_clock_reset() {}
};

/// Accumulates modeled seconds per named component, and owns the
/// rank's Timeline (vgpu/timeline.hpp), which every charge advances.
class SimClock {
 public:
  /// Charges `seconds` to the current component (and the total), and
  /// advances the timeline's active lane by the same amount.
  void charge(double seconds);

  /// Charges to an explicit component regardless of the current scope.
  void charge_to(const std::string& component, double seconds);

  double total() const { return total_; }
  double component(const std::string& name) const;
  const std::map<std::string, double>& components() const { return by_component_; }

  /// Name of the component currently on top of the scope stack.
  const std::string& current_component() const;

  /// Zeros the accumulations; the timeline resets with it so benches
  /// that reset the clock re-anchor virtual time at zero.
  void reset();

  // Scope management (used via ComponentScope).
  void push_component(std::string name);
  void pop_component();

  /// The rank's timing model: single-lane unless enable_named_lanes()
  /// switched it (async-overlap runs).
  Timeline& timeline() { return timeline_; }
  const Timeline& timeline() const { return timeline_; }

  /// Attached observer (obs::TraceRecorder), or null — the default and
  /// the zero-overhead path. One slot: managed by the listener's
  /// ctor/dtor.
  ChargeListener* listener() const { return listener_; }
  void set_listener(ChargeListener* listener) { listener_ = listener; }

 private:
  std::map<std::string, double> by_component_;
  std::vector<std::string> scope_stack_;
  double total_ = 0.0;
  Timeline timeline_{*this};
  ChargeListener* listener_ = nullptr;
};

/// RAII helper: all charges within the scope go to `component`.
class ComponentScope {
 public:
  ComponentScope(SimClock& clock, std::string component) : clock_(clock) {
    clock_.push_component(std::move(component));
  }
  ~ComponentScope() { clock_.pop_component(); }

  ComponentScope(const ComponentScope&) = delete;
  ComponentScope& operator=(const ComponentScope&) = delete;

 private:
  SimClock& clock_;
};

/// RAII helper: names a region of modeled time for the clock's
/// listener ("stage:hydro", "window:state", "xfer:pack", ...). Unlike
/// ComponentScope this charges nothing and books nothing — with no
/// listener attached (the default) it is a pair of null checks, so
/// annotated code paths stay bit-identical when observability is off.
class AnnotationScope {
 public:
  AnnotationScope(SimClock* clock, const char* name) : clock_(clock) {
    ChargeListener* listener = clock_ != nullptr ? clock_->listener() : nullptr;
    if (listener != nullptr) {
      listener->on_annotation_begin(name);
    }
  }
  ~AnnotationScope() {
    // Re-queried, never cached: the listener present at entry may have
    // been destroyed inside the scope (service mode tears down a traced
    // job's recorder mid-recovery), and a listener attached inside the
    // scope never saw the begin — it drops the unmatched end.
    ChargeListener* listener = clock_ != nullptr ? clock_->listener() : nullptr;
    if (listener != nullptr) {
      listener->on_annotation_end();
    }
  }

  AnnotationScope(const AnnotationScope&) = delete;
  AnnotationScope& operator=(const AnnotationScope&) = delete;

 private:
  SimClock* clock_;
};

}  // namespace ramr::vgpu
