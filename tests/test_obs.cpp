// The observability subsystem (docs/observability.md): span recording
// as an exact shadow of the modeled accounting (per-lane charge-span
// sums reproduce Timeline::busy bitwise, per-tag kernel spans reproduce
// Device::launch_count exactly), zero-impact when off (bit-identical
// runs), the metrics registry and its exporters, the strict-validated
// config block, and the rank-aware logger.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "app/simulation.hpp"
#include "cfg/config.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simmpi/communicator.hpp"
#include "svc/metrics.hpp"
#include "svc/server.hpp"
#include "util/fault.hpp"
#include "util/logger.hpp"
#include "vgpu/sim_clock.hpp"
#include "vgpu/timeline.hpp"

namespace ramr {
namespace {

using obs::SpanKind;
using obs::TraceRecorder;
using obs::TraceSpan;
using vgpu::SimClock;
using vgpu::Timeline;

std::shared_ptr<obs::ObservabilityConfig> traced_config(
    int capacity = 1 << 20) {
  auto oc = std::make_shared<obs::ObservabilityConfig>();
  oc->trace = true;
  oc->trace_capacity = capacity;
  return oc;
}

app::SimulationConfig small_sod(bool async_overlap) {
  app::SimulationConfig cfg;
  cfg.problem = "sod";
  cfg.nx = 48;
  cfg.ny = 48;
  cfg.max_levels = 3;
  cfg.regrid_interval = 4;
  cfg.async_overlap = async_overlap;
  return cfg;
}

// ---------------------------------------------------------------------------
// TraceRecorder unit behaviour.

TEST(TraceRecorder, ChargeSpansShadowClockChargesExactly) {
  SimClock clock;
  TraceRecorder rec(clock, 16);
  clock.charge_to("alpha", 1.5);
  clock.charge_to("beta", 0.25);
  const std::vector<TraceSpan> spans = rec.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(rec.name(spans[0].name), "alpha");
  EXPECT_EQ(spans[0].kind, SpanKind::kCharge);
  EXPECT_EQ(spans[0].duration(), 1.5);
  EXPECT_EQ(spans[0].t_end, 1.5);
  EXPECT_EQ(rec.name(spans[1].name), "beta");
  EXPECT_EQ(spans[1].t_end, 1.75);
  EXPECT_EQ(spans[1].duration(), 0.25);
  EXPECT_EQ(rec.dropped(), 0u);
  // No timeline: everything records on lane 0, labelled "host".
  EXPECT_EQ(spans[0].lane, 0);
  EXPECT_EQ(rec.lane_label(0), "host");
}

TEST(TraceRecorder, RingOverwritesOldestAndCountsDropped) {
  SimClock clock;
  TraceRecorder rec(clock, 3);
  for (int i = 0; i < 5; ++i) {
    clock.charge_to("c" + std::to_string(i), 1.0);
  }
  EXPECT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.capacity(), 3u);
  EXPECT_EQ(rec.dropped(), 2u);
  const std::vector<TraceSpan> spans = rec.spans();
  ASSERT_EQ(spans.size(), 3u);
  // Oldest retained first: c2, c3, c4.
  EXPECT_EQ(rec.name(spans[0].name), "c2");
  EXPECT_EQ(rec.name(spans[1].name), "c3");
  EXPECT_EQ(rec.name(spans[2].name), "c4");
}

TEST(TraceRecorder, AnnotationScopesNestAndBracketTheirCharges) {
  SimClock clock;
  TraceRecorder rec(clock, 16);
  rec.begin_step(7);
  {
    vgpu::AnnotationScope outer(&clock, "stage:hydro");
    clock.charge_to("k1", 1.0);
    {
      vgpu::AnnotationScope inner(&clock, "window:state");
      clock.charge_to("k2", 2.0);
    }
  }
  const std::vector<TraceSpan> spans = rec.spans();
  // k1, k2, inner annotation, outer annotation (closed inner-first).
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(rec.name(spans[2].name), "window:state");
  EXPECT_EQ(spans[2].kind, SpanKind::kAnnotation);
  EXPECT_EQ(spans[2].t_begin, 1.0);
  EXPECT_EQ(spans[2].t_end, 3.0);
  EXPECT_EQ(spans[2].step, 7);
  EXPECT_EQ(rec.name(spans[3].name), "stage:hydro");
  EXPECT_EQ(spans[3].t_begin, 0.0);
  EXPECT_EQ(spans[3].t_end, 3.0);
}

TEST(TraceRecorder, NullClockAnnotationScopeIsANoOp) {
  vgpu::AnnotationScope scope(nullptr, "nothing");
  SimClock clock;  // no listener attached
  vgpu::AnnotationScope quiet(&clock, "still nothing");
}

// The scope looks up the clock's listener at exit, never caching it:
// service-mode recovery destroys a traced job's recorder (and attaches
// the retried job's fresh one) inside the server's recovery/round
// scopes, so the listener present at entry may be gone — or replaced —
// by the time the scope closes.
TEST(TraceRecorder, ScopeSurvivesListenerDestructionAndSwapMidScope) {
  SimClock clock;
  {
    // Destroyed mid-scope, nothing re-attached: the end goes nowhere.
    auto rec = std::make_unique<TraceRecorder>(clock, 16);
    vgpu::AnnotationScope scope(&clock, "server:recovery");
    rec.reset();
  }
  std::unique_ptr<TraceRecorder> fresh;
  {
    // Destroyed mid-scope and replaced: the fresh recorder never saw
    // the begin, so it drops the unmatched end instead of asserting.
    auto rec = std::make_unique<TraceRecorder>(clock, 16);
    vgpu::AnnotationScope scope(&clock, "server:round");
    rec.reset();
    fresh = std::make_unique<TraceRecorder>(clock, 16);
  }
  clock.charge_to("after", 1.0);
  const std::vector<TraceSpan> spans = fresh->spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(fresh->name(spans[0].name), "after");
}

TEST(TraceRecorder, ClockResetClearsTheRing) {
  SimClock clock;
  TraceRecorder rec(clock, 2);
  clock.charge_to("a", 1.0);
  clock.charge_to("b", 1.0);
  clock.charge_to("c", 1.0);
  EXPECT_EQ(rec.dropped(), 1u);
  clock.reset();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  clock.charge_to("d", 2.0);
  const std::vector<TraceSpan> spans = rec.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(rec.name(spans[0].name), "d");
  EXPECT_EQ(spans[0].t_begin, 0.0);
  EXPECT_EQ(spans[0].t_end, 2.0);
}

TEST(TraceRecorder, TimelineWaitsAndRendezvousRecordAsIdleSpans) {
  SimClock clock;
  Timeline& tl = clock.timeline();
  tl.enable_named_lanes();
  TraceRecorder rec(clock, 16);
  clock.charge(1.0);
  const int comm = tl.lane("comm");
  tl.advance(comm, 4.0);      // comm lane waits 1 -> 4 (forked at 1? no:
                              // created at current host cursor = 1)
  tl.rendezvous(6.0);         // host barrier 1 -> 6
  std::vector<TraceSpan> waits;
  for (const TraceSpan& s : rec.spans()) {
    if (s.kind != SpanKind::kCharge) {
      waits.push_back(s);
    }
  }
  ASSERT_EQ(waits.size(), 2u);
  EXPECT_EQ(waits[0].kind, SpanKind::kWait);
  EXPECT_EQ(waits[0].lane, comm);
  EXPECT_EQ(waits[0].t_end, 4.0);
  EXPECT_EQ(waits[1].kind, SpanKind::kRendezvous);
  EXPECT_EQ(waits[1].lane, Timeline::kHostLane);
  EXPECT_EQ(waits[1].t_begin, 1.0);
  EXPECT_EQ(waits[1].t_end, 6.0);
  EXPECT_EQ(rec.lane_label(comm), "comm");
}

TEST(TraceRecorder, RefusesASecondListenerOnTheSameClock) {
  SimClock clock;
  TraceRecorder rec(clock, 4);
  EXPECT_THROW(TraceRecorder(clock, 4), util::Error);
}

// ---------------------------------------------------------------------------
// Whole-simulation invariants: the span stream is an exact shadow of
// the launch and lane accounting.

TEST(ObsSimulation, TagPartitionMatchesLaunchCountsPerStepAndTotal) {
  app::SimulationConfig cfg = small_sod(/*async_overlap=*/true);
  cfg.observability = traced_config();
  app::Simulation sim(cfg, nullptr);
  sim.initialize();
  constexpr int kSteps = 6;
  sim.run(kSteps);

  TraceRecorder* rec = sim.trace_recorder();
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->dropped(), 0u);

  // Per-step kernel-span partition by tag; -1 keys spans outside steps.
  std::map<std::pair<std::int64_t, int>, std::uint64_t> by_step_tag;
  std::uint64_t total_by_tag[vgpu::kLaunchTagCount] = {};
  for (const TraceSpan& s : rec->spans()) {
    if (s.kind == SpanKind::kCharge && s.tag >= 0) {
      ++by_step_tag[{s.step, s.tag}];
      ASSERT_LT(s.tag, vgpu::kLaunchTagCount);
      ++total_by_tag[s.tag];
    }
  }
  // Exactly one kernel span per counted launch: the 7-way tag partition
  // of the span stream reproduces Device::launch_count exactly.
  std::uint64_t total = 0;
  for (int t = 0; t < vgpu::kLaunchTagCount; ++t) {
    EXPECT_EQ(total_by_tag[t],
              sim.device().launch_count(static_cast<vgpu::LaunchTag>(t)))
        << "tag " << obs::launch_tag_label(t);
    total += total_by_tag[t];
  }
  EXPECT_EQ(total, sim.device().launch_count());

  // Every step contributed hydro launches, and the per-step partition
  // sums back to the totals.
  std::uint64_t from_steps = 0;
  for (const auto& [key, count] : by_step_tag) {
    from_steps += count;
    if (key.second == static_cast<int>(vgpu::LaunchTag::kHydro)) {
      EXPECT_GT(count, 0u) << "step " << key.first;
    }
  }
  EXPECT_EQ(from_steps, total);
}

TEST(ObsSimulation, ChargeSpanSumsReproduceTimelineBusyBitwise) {
  app::SimulationConfig cfg = small_sod(/*async_overlap=*/true);
  cfg.observability = traced_config();
  app::Simulation sim(cfg, nullptr);
  sim.initialize();
  sim.run(5);

  TraceRecorder* rec = sim.trace_recorder();
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->dropped(), 0u);
  Timeline* tl = sim.timeline();
  ASSERT_TRUE(tl->named_lanes());

  // Accumulate charge-span durations per lane in record order: the same
  // doubles, added in the same order, as Lane::busy.
  std::vector<double> busy(tl->lane_count(), 0.0);
  double busy_total = 0.0;
  for (const TraceSpan& s : rec->spans()) {
    if (s.kind == SpanKind::kCharge) {
      ASSERT_LT(static_cast<std::size_t>(s.lane), busy.size());
      busy[static_cast<std::size_t>(s.lane)] += s.duration();
      busy_total += s.duration();
    }
  }
  for (std::size_t lane = 0; lane < busy.size(); ++lane) {
    EXPECT_EQ(busy[lane], tl->busy(static_cast<int>(lane)))
        << "lane " << tl->lane_name(static_cast<int>(lane));
  }
  EXPECT_EQ(busy_total, tl->busy_total());
}

TEST(ObsSimulation, SynchronousModelSpanSumsReproduceClockTotal) {
  app::SimulationConfig cfg = small_sod(/*async_overlap=*/false);
  cfg.observability = traced_config();
  app::Simulation sim(cfg, nullptr);
  sim.initialize();
  sim.run(4);
  TraceRecorder* rec = sim.trace_recorder();
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->dropped(), 0u);
  double total = 0.0;
  for (const TraceSpan& s : rec->spans()) {
    if (s.kind == SpanKind::kCharge) {
      EXPECT_EQ(s.lane, 0);
      total += s.duration();
    }
  }
  EXPECT_EQ(total, sim.clock().total());
}

// The acceptance configuration: 2 ranks x 2 devices under async
// overlap. Each rank's span stream must reproduce its own timeline and
// launch accounting exactly.
TEST(ObsSimulation, TwoRankTwoDeviceAsyncRunShadowsAllAccounting) {
  app::SimulationConfig cfg;
  cfg.problem = "triple_point";
  cfg.nx = 96;
  cfg.ny = 96;
  cfg.max_levels = 2;
  cfg.regrid_interval = 4;
  cfg.async_overlap = true;
  cfg.topology.device_count = 2;
  cfg.observability = traced_config();

  std::mutex mu;
  int checked = 0;
  simmpi::World world(2, simmpi::NetworkSpec{});
  world.run([&](simmpi::Communicator& comm) {
    app::Simulation sim(cfg, &comm);
    sim.initialize();
    sim.run(4);
    TraceRecorder* rec = sim.trace_recorder();
    ASSERT_NE(rec, nullptr);
    ASSERT_EQ(rec->dropped(), 0u);
    Timeline* tl = sim.timeline();
    ASSERT_TRUE(tl->named_lanes());

    std::vector<double> busy(tl->lane_count(), 0.0);
    std::uint64_t by_tag[vgpu::kLaunchTagCount] = {};
    for (const TraceSpan& s : rec->spans()) {
      if (s.kind != SpanKind::kCharge) {
        continue;
      }
      ASSERT_LT(static_cast<std::size_t>(s.lane), busy.size());
      busy[static_cast<std::size_t>(s.lane)] += s.duration();
      if (s.tag >= 0) {
        ++by_tag[s.tag];
      }
    }
    for (std::size_t lane = 0; lane < busy.size(); ++lane) {
      EXPECT_EQ(busy[lane], tl->busy(static_cast<int>(lane)))
          << "rank " << comm.rank() << " lane "
          << tl->lane_name(static_cast<int>(lane));
    }
    // Kernel spans partition over the rank's BOTH devices: they share
    // one clock, so the span stream carries the union.
    vgpu::Topology* topo = sim.topology();
    ASSERT_NE(topo, nullptr);
    ASSERT_EQ(topo->device_count(), 2);
    for (int t = 0; t < vgpu::kLaunchTagCount; ++t) {
      std::uint64_t want = 0;
      for (int d = 0; d < topo->device_count(); ++d) {
        want += topo->device(d).launch_count(static_cast<vgpu::LaunchTag>(t));
      }
      EXPECT_EQ(by_tag[t], want)
          << "rank " << comm.rank() << " tag " << obs::launch_tag_label(t);
    }
    // The annotation layer saw the per-stage and per-message scopes.
    bool saw_window = false, saw_pack = false;
    for (const TraceSpan& s : rec->spans()) {
      if (s.kind == SpanKind::kAnnotation) {
        const std::string& n = rec->name(s.name);
        saw_window |= n.rfind("window:", 0) == 0;
        saw_pack |= n == "xfer:pack";
      }
    }
    EXPECT_TRUE(saw_window);
    EXPECT_TRUE(saw_pack);
    std::lock_guard<std::mutex> lock(mu);
    ++checked;
  });
  EXPECT_EQ(checked, 2);
}

// ---------------------------------------------------------------------------
// Zero-impact guarantee: tracing off (or the block absent) changes
// nothing, tracing on changes no modeled number.

TEST(ObsSimulation, TracingIsBitIdenticalToNoObservabilityBlock) {
  const app::SimulationConfig plain = small_sod(/*async_overlap=*/true);
  app::SimulationConfig traced = plain;
  traced.observability = traced_config();
  app::SimulationConfig present_but_off = plain;
  present_but_off.observability = std::make_shared<obs::ObservabilityConfig>();

  constexpr int kSteps = 5;
  app::Simulation a(plain, nullptr);
  a.initialize();
  app::Simulation b(traced, nullptr);
  b.initialize();
  app::Simulation c(present_but_off, nullptr);
  c.initialize();
  for (int s = 0; s < kSteps; ++s) {
    const double dta = a.step();
    EXPECT_EQ(b.step(), dta) << "step " << s;
    EXPECT_EQ(c.step(), dta) << "step " << s;
  }
  EXPECT_EQ(b.modeled_seconds(), a.modeled_seconds());
  EXPECT_EQ(c.modeled_seconds(), a.modeled_seconds());
  EXPECT_EQ(b.clock().total(), a.clock().total());
  EXPECT_EQ(b.device().launch_count(), a.device().launch_count());
  EXPECT_EQ(c.device().launch_count(), a.device().launch_count());
  const hydro::FieldSummary sa = a.composite_summary();
  const hydro::FieldSummary sb = b.composite_summary();
  EXPECT_EQ(sb.mass, sa.mass);
  EXPECT_EQ(sb.internal_energy, sa.internal_energy);
  EXPECT_EQ(sb.kinetic_energy, sa.kinetic_energy);
  EXPECT_EQ(a.trace_recorder(), nullptr);
  EXPECT_NE(b.trace_recorder(), nullptr);
  EXPECT_EQ(c.trace_recorder(), nullptr);
}

// ---------------------------------------------------------------------------
// Exporters.

TEST(TraceExport, ChromeTraceDocumentIsParseableAndLabelled) {
  SimClock clock;
  Timeline& tl = clock.timeline();
  tl.enable_named_lanes();
  TraceRecorder rec(clock, 16);
  rec.begin_step(0);
  clock.charge_to("kernel", 1.0);
  {
    vgpu::LaneScope scope(tl, tl.lane("net"));
    clock.charge_to("wire", 0.5);
  }
  std::vector<cfg::Json> ranks;
  ranks.push_back(obs::chrome_trace_events(rec, 0));
  const cfg::Json doc = obs::chrome_trace_document(std::move(ranks));
  // Round-trips through the parser (what Perfetto will read).
  const cfg::Json parsed = cfg::Json::parse(doc.dump());
  const cfg::Json* events = parsed.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool saw_process_meta = false, saw_net_thread = false, saw_kernel = false;
  bool saw_ring_meta = false;
  for (const cfg::Json& e : events->as_array()) {
    const std::string& name = e.find("name")->as_string();
    const std::string& ph = e.find("ph")->as_string();
    if (ph == "M" && name == "process_name") {
      saw_process_meta = true;
      EXPECT_EQ(e.find("args")->find("name")->as_string(), "rank 0");
    }
    if (ph == "M" && name == "trace_ring") {
      // Truncation is self-describing: capacity, dropped count, and a
      // completeness flag ride along in every export.
      saw_ring_meta = true;
      EXPECT_EQ(e.find("args")->find("capacity")->as_integer(), 16);
      EXPECT_EQ(e.find("args")->find("dropped_spans")->as_integer(), 0);
      EXPECT_TRUE(e.find("args")->find("complete")->as_bool());
    }
    if (ph == "M" && name == "thread_name" &&
        e.find("args")->find("name")->as_string() == "net") {
      saw_net_thread = true;
    }
    if (ph == "X" && name == "kernel") {
      saw_kernel = true;
      EXPECT_EQ(e.find("cat")->as_string(), "charge");
      EXPECT_EQ(e.find("dur")->as_number(), 1.0e6);
      EXPECT_EQ(e.find("args")->find("step")->as_integer(), 0);
    }
  }
  EXPECT_TRUE(saw_process_meta);
  EXPECT_TRUE(saw_net_thread);
  EXPECT_TRUE(saw_kernel);
  EXPECT_TRUE(saw_ring_meta);
}

// ---------------------------------------------------------------------------
// MetricsRegistry.

TEST(Metrics, SetObserveSampleAndLatest) {
  obs::MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  m.set("ramr_steps_total", std::int64_t{3});
  m.set("ramr_sim_time", 0.125);
  m.observe("ramr_step_seconds", 0.5);
  m.observe("ramr_step_seconds", 2.0);
  EXPECT_FALSE(m.empty());
  EXPECT_EQ(m.value("ramr_steps_total"), 3.0);
  EXPECT_THROW(m.value("nope"), util::Error);

  m.sample(3);
  m.set("ramr_steps_total", std::int64_t{4});
  m.sample(4);
  const std::vector<std::string>& lines = m.jsonl();
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    // One JSON object per line, no embedded newlines.
    EXPECT_EQ(line.find('\n'), std::string::npos);
    const cfg::Json j = cfg::Json::parse(line);
    ASSERT_NE(j.find("step"), nullptr);
    ASSERT_NE(j.find("metrics"), nullptr);
  }
  const cfg::Json last = cfg::Json::parse(lines[1]);
  EXPECT_EQ(last.find("step")->as_integer(), 4);
  EXPECT_EQ(last.find("metrics")->find("ramr_steps_total")->as_integer(), 4);

  const cfg::Json latest = m.latest();
  EXPECT_EQ(latest.find("ramr_sim_time")->as_number(), 0.125);
  const cfg::Json* hist = latest.find("ramr_step_seconds");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("count")->as_integer(), 2);
  EXPECT_EQ(hist->find("sum")->as_number(), 2.5);
}

TEST(Metrics, PrometheusTextExposition) {
  obs::MetricsRegistry m;
  m.set("ramr_launches_total{tag=\"hydro\"}", std::uint64_t{12});
  m.set("ramr_launches_total{tag=\"regrid\"}", std::uint64_t{2});
  m.set("ramr_sim_time", 0.5);
  m.observe("ramr_step_seconds", 0.05);
  const std::string text = m.prometheus_text();
  EXPECT_NE(text.find("# TYPE ramr_launches_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("ramr_launches_total{tag=\"hydro\"} 12"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ramr_sim_time gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ramr_step_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("ramr_step_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("ramr_step_seconds_count 1"), std::string::npos);
  // The TYPE header appears once per family, not per labelled series.
  const std::string header = "# TYPE ramr_launches_total";
  EXPECT_EQ(text.find(header), text.rfind(header));
}

TEST(Metrics, PrometheusTextGroupsInterleavedFamilies) {
  // Registration interleaves two labelled families (the per-window
  // pattern); exposition must still emit one TYPE line per family with
  // its series contiguous under it.
  obs::MetricsRegistry m;
  m.set("ramr_window_fills_total{window=\"a\"}", std::uint64_t{1});
  m.set("ramr_window_hidden_fraction{window=\"a\"}", 0.5);
  m.set("ramr_window_fills_total{window=\"b\"}", std::uint64_t{2});
  m.set("ramr_window_hidden_fraction{window=\"b\"}", 0.25);
  const std::string text = m.prometheus_text();
  const std::string fills_header = "# TYPE ramr_window_fills_total";
  const std::string frac_header = "# TYPE ramr_window_hidden_fraction";
  EXPECT_EQ(text.find(fills_header), text.rfind(fills_header));
  EXPECT_EQ(text.find(frac_header), text.rfind(frac_header));
  // Both fills series precede the fraction family's header.
  EXPECT_LT(text.find("ramr_window_fills_total{window=\"b\"} 2"),
            text.find(frac_header));
  EXPECT_LT(text.find(frac_header),
            text.find("ramr_window_hidden_fraction{window=\"a\"} 0.5"));
}

TEST(MetricsSimulation, PerStepSamplingFeedsJsonlAndRunReport) {
  app::SimulationConfig cfg = small_sod(/*async_overlap=*/true);
  auto oc = std::make_shared<obs::ObservabilityConfig>();
  oc->metrics = true;
  cfg.observability = oc;
  app::Simulation sim(cfg, nullptr);
  sim.initialize();
  constexpr int kSteps = 5;
  sim.run(kSteps);

  obs::MetricsRegistry* m = sim.metrics_registry();
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->jsonl().size(), static_cast<std::size_t>(kSteps));
  EXPECT_EQ(m->value("ramr_steps_total"), static_cast<double>(kSteps));
  EXPECT_GT(m->value("ramr_modeled_seconds"), 0.0);
  EXPECT_EQ(m->value("ramr_launches_total"),
            static_cast<double>(sim.device().launch_count()));
  EXPECT_GT(m->value("ramr_launches_total{tag=\"hydro\"}"), 0.0);
  EXPECT_GT(m->value("ramr_overlap_seconds_saved"), 0.0);
  // Folded into the run report under "metrics".
  const cfg::Json report = svc::run_metrics_json(sim);
  const cfg::Json* folded = report.find("metrics");
  ASSERT_NE(folded, nullptr);
  EXPECT_EQ(folded->find("ramr_steps_total")->as_integer(), kSteps);

  // Stride > 1 samples every Nth step only.
  app::SimulationConfig strided = small_sod(/*async_overlap=*/true);
  auto oc2 = std::make_shared<obs::ObservabilityConfig>();
  oc2->metrics = true;
  oc2->metrics_stride = 2;
  strided.observability = oc2;
  app::Simulation sim2(strided, nullptr);
  sim2.initialize();
  sim2.run(kSteps);
  EXPECT_EQ(sim2.metrics_registry()->jsonl().size(), 2u);  // steps 2, 4
}

TEST(MetricsSimulation, RunReportIncludesDirectedPeerLinkBusyAndIdle) {
  app::SimulationConfig cfg;
  cfg.problem = "triple_point";
  cfg.nx = 96;
  cfg.ny = 96;
  cfg.max_levels = 2;
  cfg.regrid_interval = 4;
  cfg.async_overlap = true;
  cfg.topology.device_count = 2;
  app::Simulation sim(cfg, nullptr);
  sim.initialize();
  sim.run(4);

  Timeline* tl = sim.timeline();
  ASSERT_TRUE(tl->named_lanes());
  // The report's trailing composite summary launches a reduction (real
  // modeled cost), so the makespan its peer_links used is the one BEFORE
  // the call.
  const double makespan = tl->makespan();
  const cfg::Json report = svc::run_metrics_json(sim);
  const cfg::Json* devices = report.find("devices");
  ASSERT_NE(devices, nullptr);
  ASSERT_EQ(devices->as_array().size(), 2u);
  for (int d = 0; d < 2; ++d) {
    const cfg::Json& e = devices->as_array()[static_cast<std::size_t>(d)];
    const cfg::Json* links = e.find("peer_links");
    ASSERT_NE(links, nullptr) << "device " << d;
    const std::string lane = vgpu::Topology::peer_lane_name(d, 1 - d);
    const cfg::Json* link = links->find(lane);
    ASSERT_NE(link, nullptr) << lane;
    const double busy = link->find("busy_seconds")->as_number();
    EXPECT_GT(busy, 0.0) << lane;
    EXPECT_EQ(link->find("idle_seconds")->as_number(), makespan - busy);
  }
}

// ---------------------------------------------------------------------------
// Config block: strict validation and round-trip.

TEST(ObsConfig, ParsesValidatesAndRoundTrips) {
  const cfg::RunConfig config = cfg::parse_run_config_text(R"({
    "observability": {
      "trace": true,
      "trace_capacity": 4096,
      "trace_path": "trace.json",
      "metrics": true,
      "metrics_stride": 2,
      "metrics_path": "metrics.jsonl",
      "log_level": "info"
    }
  })");
  ASSERT_NE(config.sim.observability, nullptr);
  const obs::ObservabilityConfig& oc = *config.sim.observability;
  EXPECT_TRUE(oc.trace);
  EXPECT_EQ(oc.trace_capacity, 4096);
  EXPECT_EQ(oc.trace_path, "trace.json");
  EXPECT_TRUE(oc.metrics);
  EXPECT_EQ(oc.metrics_stride, 2);
  EXPECT_EQ(oc.metrics_path, "metrics.jsonl");
  EXPECT_EQ(oc.log_level, "info");

  // to_json(parse(x)) is a fixed point.
  const cfg::Json once = cfg::to_json(config);
  const cfg::Json twice = cfg::to_json(cfg::parse_run_config(once));
  EXPECT_EQ(once, twice);

  // Absent block: null pointer, and no block in the emitted config.
  const cfg::RunConfig bare = cfg::parse_run_config_text("{}");
  EXPECT_EQ(bare.sim.observability, nullptr);
  EXPECT_EQ(cfg::to_json(bare).find("observability"), nullptr);
}

TEST(ObsConfig, RejectsUnknownKeysBadCapacityAndBadLogLevel) {
  EXPECT_THROW(
      cfg::parse_run_config_text(R"({"observability": {"trance": true}})"),
      util::Error);
  EXPECT_THROW(cfg::parse_run_config_text(
                   R"({"observability": {"trace_capacity": 0}})"),
               util::Error);
  EXPECT_THROW(cfg::parse_run_config_text(
                   R"({"observability": {"metrics_stride": 0}})"),
               util::Error);
  EXPECT_THROW(cfg::parse_run_config_text(
                   R"({"observability": {"log_level": "loud"}})"),
               util::Error);
}

// ---------------------------------------------------------------------------
// Logger: rank-aware prefixing and level parsing.

TEST(ObsLogger, RankPrefixAndLevelFiltering) {
  util::Logger& log = util::Logger::instance();
  const util::LogLevel old_level = log.level();
  std::ostringstream sink;
  log.set_stream(&sink);
  log.set_level(util::LogLevel::kInfo);
  util::Logger::set_thread_rank(3);
  RAMR_LOG_INFO("hello " << 42);
  RAMR_LOG_DEBUG("filtered out");
  util::Logger::set_thread_rank(-1);
  RAMR_LOG_WARN("no rank");
  log.set_stream(nullptr);
  log.set_level(old_level);

  const std::string out = sink.str();
  EXPECT_NE(out.find("[info ] [rank 3] hello 42"), std::string::npos) << out;
  EXPECT_EQ(out.find("filtered"), std::string::npos);
  EXPECT_NE(out.find("[warn ] no rank"), std::string::npos) << out;
}

TEST(ObsLogger, ParseLogLevelNamesAndRejectsUnknown) {
  EXPECT_EQ(util::parse_log_level("debug"), util::LogLevel::kDebug);
  EXPECT_EQ(util::parse_log_level("info"), util::LogLevel::kInfo);
  EXPECT_EQ(util::parse_log_level("warn"), util::LogLevel::kWarn);
  EXPECT_EQ(util::parse_log_level("error"), util::LogLevel::kError);
  EXPECT_THROW(util::parse_log_level("verbose"), util::Error);
}

// ---------------------------------------------------------------------------
// Server: the Prometheus dump refreshed alongside the manifest.

TEST(ObsServer, WritesPrometheusMetricsDump) {
  const std::string path = "/tmp/ramr_test_server_metrics.prom";
  std::remove(path.c_str());
  svc::ServerConfig sc;
  sc.output_dir = "/tmp";
  sc.metrics_out = path;
  svc::SimulationServer server(sc);
  cfg::RunConfig job;
  job.sim.problem = "sod";
  job.sim.nx = 48;
  job.sim.ny = 48;
  job.sim.max_levels = 2;
  job.run.max_steps = 3;
  server.submit({"sod", job});
  server.run();

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  EXPECT_NE(text.find("# TYPE ramr_server_jobs_completed_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("ramr_server_jobs_completed_total 1"),
            std::string::npos);
  EXPECT_NE(text.find("ramr_server_launches_total{tag=\"hydro\"}"),
            std::string::npos);
  EXPECT_NE(text.find("ramr_server_clock_seconds"), std::string::npos);
  std::remove(path.c_str());
}

// The review path that used to be a use-after-free: a traced service
// job fails mid-round, handle_failure's recovery scope (and step_all's
// round scope) are open on the shared server clock when job.sim.reset()
// destroys the job's recorder and the retried job attaches a fresh one.
// The job must recover and finish; the scopes must not touch the freed
// recorder or trip the fresh one.
TEST(ObsServer, TracedJobSurvivesFaultInjectionRecovery) {
  cfg::RunConfig job;
  job.sim.problem = "sod";
  job.sim.nx = 48;
  job.sim.ny = 48;
  job.sim.max_levels = 2;
  job.sim.regrid_interval = 4;
  job.run.max_steps = 6;
  job.sim.observability = traced_config(1 << 12);
  auto faults = std::make_shared<util::FaultConfig>();
  faults->site(util::FaultSite::kStep).at_steps = {3};
  job.sim.faults = faults;

  svc::SimulationServer server(svc::ServerConfig{});
  server.submit({"traced_retry", job});
  server.run();
  const svc::JobStatus st = server.status(0);
  ASSERT_EQ(st.state, svc::JobState::kDone) << st.error;
  EXPECT_EQ(st.steps, 6);
  EXPECT_EQ(st.retry_count, 1);
  EXPECT_EQ(st.recoveries, 1);
  EXPECT_GE(st.faults_injected, 1);
}

// In service mode the shared clock has one listener slot: the first
// traced job wins it, later ones run untraced instead of crashing.
TEST(ObsServer, SecondTracedSimulationOnSharedClockRunsUntraced) {
  vgpu::SimClock clock;
  auto device = std::make_unique<vgpu::Device>(vgpu::tesla_k20x(), &clock);
  app::SimulationConfig cfg = small_sod(/*async_overlap=*/false);
  cfg.observability = traced_config(1 << 12);
  app::Simulation first(cfg, nullptr, device.get());
  EXPECT_NE(first.trace_recorder(), nullptr);
  app::Simulation second(cfg, nullptr, device.get());
  EXPECT_EQ(second.trace_recorder(), nullptr);
}

}  // namespace
}  // namespace ramr
