// Simulation service tests: the job queue, the multi-job event loop on
// one shared modeled device, cross-job launch fusion (bit-identical
// physics, cheaper modeled time), failure isolation, clean shutdown,
// and the per-job metrics report (docs/scenarios.md).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "app/simulation.hpp"
#include "svc/server.hpp"

namespace ramr {
namespace {

cfg::RunConfig small_sod(int steps) {
  cfg::RunConfig config;
  config.sim.problem = "sod";
  config.sim.nx = 48;
  config.sim.ny = 48;
  config.sim.max_levels = 3;
  config.sim.regrid_interval = 4;
  config.run.max_steps = steps;
  return config;
}

double metric(const cfg::Json& metrics, const char* group, const char* key) {
  const cfg::Json* g = metrics.find(group);
  EXPECT_NE(g, nullptr) << group;
  const cfg::Json* v = g->find(key);
  EXPECT_NE(v, nullptr) << group << "." << key;
  return v != nullptr ? v->as_number() : -1.0;
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

TEST(JobQueue, FifoClaimAndStatus) {
  svc::JobQueue q;
  EXPECT_EQ(q.submit({"a", small_sod(1)}), 0);
  EXPECT_EQ(q.submit({"b", small_sod(1)}), 1);
  EXPECT_EQ(q.size(), 2);
  EXPECT_EQ(q.pending(), 2);
  EXPECT_EQ(q.status(0).state, svc::JobState::kQueued);
  ASSERT_EQ(q.claim().value(), 0);
  EXPECT_EQ(q.status(0).state, svc::JobState::kRunning);
  EXPECT_EQ(q.pending(), 1);
  ASSERT_EQ(q.claim().value(), 1);
  EXPECT_FALSE(q.claim().has_value());
  EXPECT_EQ(q.spec(1).name, "b");
  EXPECT_THROW(q.status(7), util::Error);
}

TEST(Service, RunsConcurrentJobsBitIdenticalToStandalone) {
  constexpr int kSteps = 6;
  const cfg::RunConfig job = small_sod(kSteps);

  // The reference: today's standalone run of the same config.
  app::Simulation alone(job.sim, nullptr);
  alone.initialize();
  alone.run(kSteps);
  const hydro::FieldSummary expect = alone.composite_summary();

  svc::ServerConfig sc;
  sc.max_concurrent_jobs = 3;
  sc.fuse_across_jobs = true;
  svc::SimulationServer server(sc);
  for (int j = 0; j < 3; ++j) {
    server.submit({"sod_" + std::to_string(j), job});
  }
  server.run();
  EXPECT_EQ(server.jobs_completed(), 3);

  for (int id = 0; id < 3; ++id) {
    const svc::JobStatus st = server.status(id);
    ASSERT_EQ(st.state, svc::JobState::kDone) << "job " << id;
    EXPECT_EQ(st.steps, kSteps);
    EXPECT_GT(st.serial_kernel_seconds, 0.0);
    ASSERT_FALSE(st.metrics.is_null());
    // Cross-job fusion must not perturb the physics: every job's
    // conservation totals equal the standalone run's bit for bit.
    EXPECT_DOUBLE_EQ(metric(st.metrics, "summary", "mass"), expect.mass);
    EXPECT_DOUBLE_EQ(metric(st.metrics, "summary", "internal_energy"),
                     expect.internal_energy);
    EXPECT_DOUBLE_EQ(metric(st.metrics, "summary", "kinetic_energy"),
                     expect.kinetic_energy);
  }

  // The fusion scope actually grouped launches across the three jobs.
  const vgpu::FusionStats& fs = server.device().fusion_stats();
  EXPECT_GT(fs.enqueued, 0u);
  EXPECT_GT(fs.groups_flushed, 0u);
  EXPECT_LT(fs.groups_flushed, fs.enqueued);
  EXPECT_LT(fs.fused_seconds, fs.serial_seconds);
}

TEST(Service, SingleLaneCursorIsTheClockTotalBitwise) {
  // The shared device's clock keeps a single-lane timeline: launch
  // fusion reorders charges, and the one cursor adds up exactly what the
  // clock total adds, in the same order — so the service's modeled
  // numbers are the clock totals, bit for bit.
  svc::ServerConfig sc;
  sc.max_concurrent_jobs = 2;
  sc.fuse_across_jobs = true;
  svc::SimulationServer server(sc);
  for (int j = 0; j < 3; ++j) {
    server.submit({"sod_" + std::to_string(j), small_sod(5)});
  }
  server.run();
  EXPECT_EQ(server.jobs_completed(), 3);
  const vgpu::Timeline& tl = server.clock().timeline();
  EXPECT_FALSE(tl.named_lanes());
  EXPECT_GT(server.clock().total(), 0.0);
  EXPECT_EQ(tl.makespan(), server.clock().total());
  EXPECT_EQ(tl.comparable_seconds(), server.clock().total());
  EXPECT_EQ(tl.busy_total(), server.clock().total());
}

TEST(Service, PerJobMetricsSurfaceTransferAndGriddingCounters) {
  svc::SimulationServer server(svc::ServerConfig{});
  server.submit({"sod", small_sod(6)});
  server.run();
  const svc::JobStatus st = server.status(0);
  ASSERT_EQ(st.state, svc::JobState::kDone);

  const cfg::Json& m = st.metrics;
  EXPECT_EQ(m.find("steps")->as_integer(), 6);
  EXPECT_GT(m.find("modeled_seconds")->as_number(), 0.0);
  EXPECT_GT(metric(m, "hierarchy", "levels"), 1.0);
  EXPECT_GT(metric(m, "transfer", "halo_fills"), 0.0);
  EXPECT_GE(metric(m, "gridding", "regrids"), 1.0);
  EXPECT_GT(metric(m, "gridding", "cells_tagged"), 0.0);

  // The per-window breakdown (satellite: hidden-comm fractions per job).
  const cfg::Json* windows = m.find("transfer")->find("windows");
  ASSERT_NE(windows, nullptr);
  for (const char* name : {"state", "pressure", "viscosity", "preadvec",
                           "postcell"}) {
    const cfg::Json* w = windows->find(name);
    ASSERT_NE(w, nullptr) << name;
    EXPECT_NE(w->find("fills"), nullptr);
    EXPECT_NE(w->find("hidden_fraction"), nullptr);
    // Single-rank synchronous jobs hide nothing; the counter exists and
    // is exactly zero.
    EXPECT_DOUBLE_EQ(w->find("hidden_fraction")->as_number(), 0.0);
  }
  EXPECT_GT(metric(*windows, "state", "fills"), 0.0);

  // Single-lane jobs overlap nothing, so no overlap block.
  EXPECT_EQ(m.find("overlap"), nullptr);
}

TEST(Service, BatchRunsWithoutPlanFallbacks) {
  // Every exchange of a served batch takes the compiled transfer path or,
  // when no transaction touches the rank (a one-patch level's same-level
  // fill), is a no-op — never the per-transaction fallback.
  svc::ServerConfig sc;
  sc.max_concurrent_jobs = 2;
  sc.fuse_across_jobs = true;
  svc::SimulationServer server(sc);
  server.submit({"sod", small_sod(6)});
  cfg::RunConfig tp = small_sod(6);
  tp.sim.problem = "triple_point";
  server.submit({"triple_point", tp});
  server.run();
  for (int id = 0; id < 2; ++id) {
    const svc::JobStatus st = server.status(id);
    ASSERT_EQ(st.state, svc::JobState::kDone) << "job " << id;
    EXPECT_GT(metric(st.metrics, "transfer", "halo_fills"), 0.0);
    EXPECT_EQ(metric(st.metrics, "transfer", "plan_fallbacks"), 0.0)
        << "job " << id;
  }
}

TEST(Service, SubmitRejectsUnservableConfigs) {
  svc::SimulationServer server(svc::ServerConfig{});
  cfg::RunConfig multirank = small_sod(2);
  multirank.run.ranks = 2;
  EXPECT_THROW(server.submit({"mr", multirank}), util::Error);
  cfg::RunConfig async = small_sod(2);
  async.sim.async_overlap = true;
  EXPECT_THROW(server.submit({"async", async}), util::Error);
  EXPECT_THROW(svc::SimulationServer(svc::ServerConfig{
                   vgpu::tesla_k20x(), /*max_concurrent_jobs=*/0}),
               util::Error);
}

TEST(Service, FailedJobDoesNotPoisonTheOthers) {
  svc::ServerConfig sc;
  sc.max_concurrent_jobs = 3;
  svc::SimulationServer server(sc);
  cfg::RunConfig bad = small_sod(3);
  bad.sim.problem = "no_such_problem";  // passes submit, fails at admit
  server.submit({"good0", small_sod(3)});
  server.submit({"bad", bad});
  server.submit({"good1", small_sod(3)});
  server.run();

  EXPECT_EQ(server.status(0).state, svc::JobState::kDone);
  EXPECT_EQ(server.status(2).state, svc::JobState::kDone);
  const svc::JobStatus failed = server.status(1);
  EXPECT_EQ(failed.state, svc::JobState::kFailed);
  EXPECT_NE(failed.error.find("no_such_problem"), std::string::npos)
      << failed.error;
  EXPECT_EQ(server.jobs_completed(), 2);
}

TEST(Service, StopCheckpointsResidentJobsAndKeepsTheQueue) {
  svc::ServerConfig sc;
  sc.max_concurrent_jobs = 2;
  sc.output_dir = "/tmp";
  svc::SimulationServer server(sc);
  cfg::RunConfig job = small_sod(4);
  job.output.basename =
      "ramr_svc_stop_" + std::to_string(::getpid());
  job.output.checkpoint_interval = 1;
  for (int j = 0; j < 3; ++j) {
    server.submit({"job" + std::to_string(j), job});
  }

  // The stop lands before the first round: both resident jobs shut down
  // cleanly (final checkpoint + metrics), the third never starts.
  server.request_stop();
  server.run();
  for (int id : {0, 1}) {
    const svc::JobStatus st = server.status(id);
    EXPECT_EQ(st.state, svc::JobState::kStopped) << "job " << id;
    ASSERT_FALSE(st.files.empty());
    EXPECT_TRUE(file_exists(st.files.front() + ".rank0")) << st.files.front();
    EXPECT_FALSE(st.metrics.is_null());
  }
  EXPECT_EQ(server.status(2).state, svc::JobState::kQueued);
  EXPECT_EQ(server.queue().pending(), 1);

  // The request was consumed: a later run() drains the queue.
  server.run();
  EXPECT_EQ(server.status(2).state, svc::JobState::kDone);
  EXPECT_EQ(server.status(0).state, svc::JobState::kStopped);
  EXPECT_EQ(server.jobs_completed(), 1);

  for (int id = 0; id < 3; ++id) {
    for (const std::string& f : server.status(id).files) {
      std::remove((f + ".rank0").c_str());
      std::remove(f.c_str());
    }
  }
}

TEST(Service, StatusJsonReportsDeviceFusionAndJobs) {
  svc::ServerConfig sc;
  sc.max_concurrent_jobs = 2;
  svc::SimulationServer server(sc);
  server.submit({"a", small_sod(2)});
  server.submit({"b", small_sod(2)});
  server.run();

  const cfg::Json status = server.status_json();
  EXPECT_EQ(status.find("device")->as_string(), vgpu::tesla_k20x().name);
  EXPECT_EQ(status.find("max_concurrent_jobs")->as_integer(), 2);
  EXPECT_GT(status.find("clock_seconds")->as_number(), 0.0);
  EXPECT_EQ(status.find("jobs_completed")->as_integer(), 2);
  EXPECT_GT(status.find("fusion")->find("enqueued")->as_integer(), 0);
  const auto& jobs = status.find("jobs")->as_array();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].find("name")->as_string(), "a");
  EXPECT_EQ(jobs[0].find("state")->as_string(), "done");
  EXPECT_NE(jobs[0].find("metrics"), nullptr);
  // The report is valid JSON end to end.
  EXPECT_EQ(cfg::Json::parse(status.dump()), status);
}

}  // namespace
}  // namespace ramr
