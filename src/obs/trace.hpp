// Span recorder for the modeled clock: the observability half of the
// async timing model.
//
// A TraceRecorder attaches to a rank's SimClock as its ChargeListener
// and turns the stream of charges, counted launches, lane waits, and
// annotation scopes into timestamped spans on the Timeline's lanes —
// {lane, category, LaunchTag, step, t_begin, t_end} in modeled
// seconds. Spans live in a bounded ring buffer (oldest dropped first)
// and export to Chrome trace-event JSON, loadable in Perfetto with one
// process per rank and one thread per lane, so the host lane's
// interior sweep visibly covering the comm/copy-engine/peer lanes can
// be *seen* rather than inferred from aggregates.
//
// Recording is an exact shadow of the accounting it observes: a charge
// span's [t_begin, t_end] brackets exactly the seconds the Timeline
// added to the active lane's busy total (same doubles, same order), so
// per-lane span sums reproduce Timeline::busy bitwise, and one kernel
// span is recorded per counted launch, so the per-tag span partition
// reproduces Device::launch_count exactly (tests/test_obs.cpp). Both
// guarantees hold over the retained spans only: once the ring
// overflows (dropped() > 0) the trace is truncated, and the export
// flags it via a per-rank trace_ring metadata event.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "vgpu/sim_clock.hpp"

namespace ramr::cfg {
class Json;
}  // namespace ramr::cfg

namespace ramr::obs {

enum class SpanKind : std::uint8_t {
  kCharge = 0,   ///< modeled busy time on a lane
  kWait = 1,     ///< lane cursor jump: fork sync, join, arrival wait
  kRendezvous = 2,  ///< cross-rank barrier (imbalance idle)
  kAnnotation = 3,  ///< named scope (stage / window / message / round)
};

struct TraceSpan {
  std::int32_t lane = 0;     ///< Timeline lane index (0 = host)
  std::int32_t name = 0;     ///< interned string id (TraceRecorder::name)
  std::int32_t tag = -1;     ///< LaunchTag for counted launches, else -1
  std::int64_t step = -1;    ///< step in flight (-1: outside any step)
  double t_begin = 0.0;      ///< modeled seconds
  double t_end = 0.0;        ///< modeled seconds
  /// For kCharge: the EXACT seconds the accounting added (the same
  /// double Lane::busy accumulated), so per-lane span-duration sums
  /// reproduce Timeline::busy bitwise — t_end - t_begin would lose low
  /// bits to the subtraction round trip. For other kinds: t_end-t_begin.
  double duration_s = 0.0;
  SpanKind kind = SpanKind::kCharge;

  double duration() const { return duration_s; }
};

/// Human name of a LaunchTag index (span `tag` field); "none" for -1.
const char* launch_tag_label(int tag);

class TraceRecorder final : public vgpu::ChargeListener {
 public:
  /// Attaches to `clock` as its listener. The clock must not already
  /// have one (one recorder per rank clock).
  TraceRecorder(vgpu::SimClock& clock, std::size_t capacity);
  ~TraceRecorder() override;

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Tags subsequently recorded spans with `step` (call at step entry).
  void begin_step(std::int64_t step) { step_ = step; }
  std::int64_t step() const { return step_; }

  /// Spans currently retained, oldest first (ring order resolved).
  std::vector<TraceSpan> spans() const;
  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Spans overwritten because the ring was full.
  std::uint64_t dropped() const { return dropped_; }

  /// Interned span-name lookup.
  const std::string& name(std::int32_t id) const;

  /// Label of a span's lane: the Timeline lane name ("host" for lane 0,
  /// the only lane of a single-lane timeline).
  std::string lane_label(std::int32_t lane) const;

  vgpu::SimClock& clock() const { return *clock_; }

  // vgpu::ChargeListener
  void on_charge(const std::string& component, double seconds) override;
  void on_kernel_launch(int tag) override;
  void on_lane_wait(int lane, double t_begin, double t_end,
                    bool rendezvous) override;
  void on_annotation_begin(const std::string& name) override;
  void on_annotation_end() override;
  void on_clock_reset() override;

 private:
  std::int32_t intern(const std::string& name);
  void record(const TraceSpan& span);

  vgpu::SimClock* clock_;
  std::size_t capacity_;
  std::vector<TraceSpan> ring_;
  std::size_t head_ = 0;  ///< overwrite position once the ring is full
  std::uint64_t dropped_ = 0;
  std::int64_t step_ = -1;
  std::int32_t pending_tag_ = -1;  ///< LaunchTag for the next charge

  std::vector<std::string> names_;
  std::unordered_map<std::string, std::int32_t> name_ids_;

  struct OpenAnnotation {
    std::int32_t name;
    std::int32_t lane;
    std::int64_t step;
    double t_begin;
  };
  std::vector<OpenAnnotation> annotation_stack_;
};

/// One rank's spans as a Chrome trace-event array: "X" (complete)
/// events with pid=`pid` (the rank), tid=lane, ts/dur in microseconds
/// of modeled time, plus process_name/thread_name metadata events.
cfg::Json chrome_trace_events(const TraceRecorder& recorder, int pid);

/// Assembles per-rank event arrays into one Perfetto-loadable document
/// ({"traceEvents": [...]}).
cfg::Json chrome_trace_document(std::vector<cfg::Json> per_rank_events);

}  // namespace ramr::obs
