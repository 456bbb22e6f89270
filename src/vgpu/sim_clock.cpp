#include "vgpu/sim_clock.hpp"

#include "util/error.hpp"

namespace ramr::vgpu {

namespace {
const std::string kOther = "other";
}  // namespace

void SimClock::charge(double seconds) {
  charge_to(current_component(), seconds);
}

void SimClock::charge_to(const std::string& component, double seconds) {
  RAMR_DEBUG_ASSERT(seconds >= 0.0);
  by_component_[component] += seconds;
  total_ += seconds;
  timeline_.on_charge(seconds);
  if (listener_ != nullptr) {
    listener_->on_charge(component, seconds);
  }
}

double SimClock::component(const std::string& name) const {
  const auto it = by_component_.find(name);
  return it == by_component_.end() ? 0.0 : it->second;
}

const std::string& SimClock::current_component() const {
  return scope_stack_.empty() ? kOther : scope_stack_.back();
}

void SimClock::reset() {
  by_component_.clear();
  total_ = 0.0;
  timeline_.reset();
  if (listener_ != nullptr) {
    listener_->on_clock_reset();
  }
}

void SimClock::push_component(std::string name) {
  scope_stack_.push_back(std::move(name));
}

void SimClock::pop_component() {
  RAMR_REQUIRE(!scope_stack_.empty(), "component scope underflow");
  scope_stack_.pop_back();
}

}  // namespace ramr::vgpu
