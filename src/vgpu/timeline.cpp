#include "vgpu/timeline.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "vgpu/sim_clock.hpp"

namespace ramr::vgpu {

Timeline::Timeline(SimClock& clock) : clock_(&clock) {
  lanes_.push_back(Lane{"host", 0.0, 0.0});
  active_stack_.push_back(kHostLane);
}

int Timeline::lane(const std::string& name) {
  if (!named_lanes_) {
    return kHostLane;
  }
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (lanes_[i].name == name) {
      return static_cast<int>(i);
    }
  }
  // New lanes are born at the host cursor: they model engines that exist
  // from the start but have been idle, and idle lanes never drag the
  // makespan backwards.
  lanes_.push_back(Lane{name, lanes_[kHostLane].cursor, 0.0});
  return static_cast<int>(lanes_.size() - 1);
}

const std::string& Timeline::lane_name(int lane) const {
  return lanes_[static_cast<std::size_t>(lane)].name;
}

double Timeline::now(int lane) const {
  return lanes_[static_cast<std::size_t>(lane)].cursor;
}

void Timeline::advance(int lane, double t) {
  Lane& l = lanes_[static_cast<std::size_t>(lane)];
  if (t > l.cursor) {
    if (ChargeListener* listener = clock_->listener()) {
      listener->on_lane_wait(lane, l.cursor, t, /*rendezvous=*/false);
    }
    l.cursor = t;
  }
}

void Timeline::rendezvous(double t) {
  const int lane = active_lane();
  Lane& l = lanes_[static_cast<std::size_t>(lane)];
  if (t > l.cursor) {
    if (ChargeListener* listener = clock_->listener()) {
      listener->on_lane_wait(lane, l.cursor, t, /*rendezvous=*/true);
    }
    imbalance_idle_ += t - l.cursor;
    l.cursor = t;
  }
}

double Timeline::makespan() const {
  double m = 0.0;
  for (const Lane& l : lanes_) {
    m = std::max(m, l.cursor);
  }
  return m;
}

double Timeline::busy(int lane) const {
  return lanes_[static_cast<std::size_t>(lane)].busy;
}

void Timeline::reset() {
  for (Lane& l : lanes_) {
    l.cursor = 0.0;
    l.busy = 0.0;
  }
  busy_total_ = 0.0;
  imbalance_idle_ = 0.0;
}

void Timeline::on_charge(double seconds) {
  Lane& l = lanes_[static_cast<std::size_t>(active_lane())];
  l.cursor += seconds;
  l.busy += seconds;
  busy_total_ += seconds;
}

void Timeline::push_lane(int lane) {
  RAMR_DEBUG_ASSERT(lane >= 0 && static_cast<std::size_t>(lane) < lanes_.size());
  // Fork: work routed here is issued by the currently active lane, so it
  // cannot start before that lane's present.
  advance(lane, lanes_[static_cast<std::size_t>(active_lane())].cursor);
  active_stack_.push_back(lane);
}

void Timeline::pop_lane() {
  RAMR_REQUIRE(active_stack_.size() > 1, "lane scope underflow");
  active_stack_.pop_back();
}

}  // namespace ramr::vgpu
