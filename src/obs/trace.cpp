#include "obs/trace.hpp"

#include <utility>

#include "cfg/json.hpp"
#include "util/error.hpp"
#include "vgpu/device.hpp"
#include "vgpu/timeline.hpp"

namespace ramr::obs {

const char* launch_tag_label(int tag) {
  static const char* const kNames[vgpu::kLaunchTagCount] = {
      "other",      "hydro",  "transfer_pack", "transfer_unpack",
      "local_copy", "regrid", "rind"};
  if (tag < 0 || tag >= vgpu::kLaunchTagCount) {
    return "none";
  }
  return kNames[tag];
}

TraceRecorder::TraceRecorder(vgpu::SimClock& clock, std::size_t capacity)
    : clock_(&clock), capacity_(capacity) {
  RAMR_REQUIRE(capacity_ > 0, "trace ring capacity must be positive");
  RAMR_REQUIRE(clock_->listener() == nullptr,
               "SimClock already has an attached listener");
  clock_->set_listener(this);
  ring_.reserve(capacity_ < 4096 ? capacity_ : 4096);
}

TraceRecorder::~TraceRecorder() {
  if (clock_->listener() == this) {
    clock_->set_listener(nullptr);
  }
}

std::vector<TraceSpan> TraceRecorder::spans() const {
  std::vector<TraceSpan> out;
  out.reserve(ring_.size());
  // Once full, head_ points at the oldest retained span.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

const std::string& TraceRecorder::name(std::int32_t id) const {
  RAMR_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < names_.size(),
               "trace name id " << id << " out of range");
  return names_[static_cast<std::size_t>(id)];
}

std::string TraceRecorder::lane_label(std::int32_t lane) const {
  const vgpu::Timeline& tl = clock_->timeline();
  if (lane >= 0 && static_cast<std::size_t>(lane) < tl.lane_count()) {
    return tl.lane_name(lane);
  }
  return "lane" + std::to_string(lane);
}

std::int32_t TraceRecorder::intern(const std::string& name) {
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) {
    return it->second;
  }
  const auto id = static_cast<std::int32_t>(names_.size());
  names_.push_back(name);
  name_ids_.emplace(name, id);
  return id;
}

void TraceRecorder::record(const TraceSpan& span) {
  if (ring_.size() < capacity_) {
    ring_.push_back(span);
    return;
  }
  ring_[head_] = span;
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

void TraceRecorder::on_charge(const std::string& component, double seconds) {
  TraceSpan s;
  // The timeline has already absorbed this charge: the active lane's
  // cursor moved by exactly `seconds`. Bracketing [now - seconds, now]
  // replays the same doubles in the same order as Lane::busy, so span
  // sums match the timeline's accounting bitwise.
  const vgpu::Timeline& tl = clock_->timeline();
  s.lane = tl.active_lane();
  s.t_end = tl.now(s.lane);
  s.t_begin = s.t_end - seconds;
  s.duration_s = seconds;
  s.name = intern(component);
  s.tag = pending_tag_;
  pending_tag_ = -1;
  s.step = step_;
  s.kind = SpanKind::kCharge;
  record(s);
}

void TraceRecorder::on_kernel_launch(int tag) {
  pending_tag_ = tag;
}

void TraceRecorder::on_lane_wait(int lane, double t_begin, double t_end,
                                 bool rendezvous) {
  TraceSpan s;
  s.lane = lane;
  s.name = intern(rendezvous ? "rendezvous" : "wait");
  s.step = step_;
  s.t_begin = t_begin;
  s.t_end = t_end;
  s.duration_s = t_end - t_begin;
  s.kind = rendezvous ? SpanKind::kRendezvous : SpanKind::kWait;
  record(s);
}

void TraceRecorder::on_annotation_begin(const std::string& name) {
  OpenAnnotation a;
  a.name = intern(name);
  a.step = step_;
  const vgpu::Timeline& tl = clock_->timeline();
  a.lane = tl.active_lane();
  a.t_begin = tl.now(a.lane);
  annotation_stack_.push_back(a);
}

void TraceRecorder::on_annotation_end() {
  if (annotation_stack_.empty()) {
    // An end with no matching begin: this recorder attached to the
    // clock inside an already-open AnnotationScope (service mode
    // attaches a retried job's recorder during recovery, inside the
    // server's recovery/round scopes). There is nothing to bracket.
    return;
  }
  const OpenAnnotation a = annotation_stack_.back();
  annotation_stack_.pop_back();
  TraceSpan s;
  s.lane = a.lane;
  s.name = a.name;
  s.step = a.step;
  s.t_begin = a.t_begin;
  s.t_end = clock_->timeline().now(a.lane);
  s.duration_s = s.t_end - s.t_begin;
  s.kind = SpanKind::kAnnotation;
  record(s);
}

void TraceRecorder::on_clock_reset() {
  // Virtual time re-anchored at zero: previously recorded timestamps no
  // longer share an origin with what follows, so start over.
  ring_.clear();
  head_ = 0;
  dropped_ = 0;
  annotation_stack_.clear();
  pending_tag_ = -1;
}

namespace {

const char* span_category(SpanKind kind) {
  switch (kind) {
    case SpanKind::kCharge:
      return "charge";
    case SpanKind::kWait:
      return "wait";
    case SpanKind::kRendezvous:
      return "rendezvous";
    case SpanKind::kAnnotation:
      return "annotation";
  }
  return "charge";
}

}  // namespace

cfg::Json chrome_trace_events(const TraceRecorder& recorder, int pid) {
  cfg::Json events = cfg::Json::make_array();

  cfg::Json process_meta = cfg::Json::make_object();
  process_meta.set("name", cfg::Json("process_name"));
  process_meta.set("ph", cfg::Json("M"));
  process_meta.set("pid", cfg::Json(pid));
  cfg::Json process_args = cfg::Json::make_object();
  process_args.set("name", cfg::Json("rank " + std::to_string(pid)));
  process_meta.set("args", std::move(process_args));
  events.push_back(std::move(process_meta));

  // Truncated traces are self-describing: once the ring overflows, the
  // retained spans no longer sum to the Timeline's busy totals, and a
  // viewer must be able to see that without consulting the recorder.
  cfg::Json ring_meta = cfg::Json::make_object();
  ring_meta.set("name", cfg::Json("trace_ring"));
  ring_meta.set("ph", cfg::Json("M"));
  ring_meta.set("pid", cfg::Json(pid));
  cfg::Json ring_args = cfg::Json::make_object();
  ring_args.set("capacity",
                cfg::Json(static_cast<std::int64_t>(recorder.capacity())));
  ring_args.set("dropped_spans",
                cfg::Json(static_cast<std::int64_t>(recorder.dropped())));
  ring_args.set("complete", cfg::Json(recorder.dropped() == 0));
  ring_meta.set("args", std::move(ring_args));
  events.push_back(std::move(ring_meta));

  // One Perfetto thread per lane the recorder has seen.
  const std::vector<TraceSpan> spans = recorder.spans();
  std::int32_t max_lane = 0;
  for (const TraceSpan& s : spans) {
    max_lane = s.lane > max_lane ? s.lane : max_lane;
  }
  for (std::int32_t lane = 0; lane <= max_lane; ++lane) {
    cfg::Json thread_meta = cfg::Json::make_object();
    thread_meta.set("name", cfg::Json("thread_name"));
    thread_meta.set("ph", cfg::Json("M"));
    thread_meta.set("pid", cfg::Json(pid));
    thread_meta.set("tid", cfg::Json(lane));
    cfg::Json thread_args = cfg::Json::make_object();
    thread_args.set("name", cfg::Json(recorder.lane_label(lane)));
    thread_meta.set("args", std::move(thread_args));
    events.push_back(std::move(thread_meta));
  }

  for (const TraceSpan& s : spans) {
    cfg::Json e = cfg::Json::make_object();
    e.set("name", cfg::Json(recorder.name(s.name)));
    e.set("cat", cfg::Json(span_category(s.kind)));
    e.set("ph", cfg::Json("X"));
    e.set("pid", cfg::Json(pid));
    e.set("tid", cfg::Json(s.lane));
    // Modeled seconds to trace microseconds.
    e.set("ts", cfg::Json(s.t_begin * 1.0e6));
    e.set("dur", cfg::Json(s.duration() * 1.0e6));
    cfg::Json args = cfg::Json::make_object();
    args.set("step", cfg::Json(s.step));
    if (s.tag >= 0) {
      args.set("tag", cfg::Json(launch_tag_label(s.tag)));
    }
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  return events;
}

cfg::Json chrome_trace_document(std::vector<cfg::Json> per_rank_events) {
  cfg::Json events = cfg::Json::make_array();
  for (cfg::Json& rank_events : per_rank_events) {
    for (cfg::Json& e : rank_events.as_array()) {
      events.push_back(std::move(e));
    }
  }
  cfg::Json doc = cfg::Json::make_object();
  doc.set("traceEvents", std::move(events));
  return doc;
}

}  // namespace ramr::obs
