#include "svc/server.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "app/vtk_writer.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/logger.hpp"

namespace ramr::svc {

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kStopped: return "stopped";
    case JobState::kQuarantined: return "quarantined";
  }
  return "unknown";
}

namespace {

/// cfg::Json prints non-finite numbers as bare "nan"/"inf" tokens, which
/// no JSON parser accepts — and a quarantined job's sim_time can be NaN.
/// Status output must stay machine-parseable no matter how sick a job is.
double safe_number(double v) { return std::isfinite(v) ? v : 0.0; }

}  // namespace

// ---------------------------------------------------------------- queue

int JobQueue::submit(JobSpec spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int id = static_cast<int>(records_.size());
  records_.push_back(Record{std::move(spec), JobStatus{}});
  queued_.push_back(id);
  return id;
}

std::optional<int> JobQueue::claim() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (queued_.empty()) {
    return std::nullopt;
  }
  const int id = queued_.front();
  queued_.pop_front();
  records_[static_cast<std::size_t>(id)].status.state = JobState::kRunning;
  return id;
}

int JobQueue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(records_.size());
}

int JobQueue::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(queued_.size());
}

JobSpec JobQueue::spec(int id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  RAMR_REQUIRE(id >= 0 && id < static_cast<int>(records_.size()),
               "unknown job id " << id);
  return records_[static_cast<std::size_t>(id)].spec;
}

JobStatus JobQueue::status(int id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  RAMR_REQUIRE(id >= 0 && id < static_cast<int>(records_.size()),
               "unknown job id " << id);
  return records_[static_cast<std::size_t>(id)].status;
}

void JobQueue::update(int id, const JobStatus& status) {
  std::lock_guard<std::mutex> lock(mutex_);
  RAMR_REQUIRE(id >= 0 && id < static_cast<int>(records_.size()),
               "unknown job id " << id);
  records_[static_cast<std::size_t>(id)].status = status;
}

// --------------------------------------------------------------- server

SimulationServer::SimulationServer(const ServerConfig& config)
    : config_(config),
      device_(std::make_unique<vgpu::Device>(config.device, &clock_)) {
  RAMR_REQUIRE(config_.max_concurrent_jobs >= 1,
               "max_concurrent_jobs must be >= 1, got "
                   << config_.max_concurrent_jobs);
}

int SimulationServer::submit(JobSpec spec) {
  RAMR_REQUIRE(spec.config.run.ranks == 1,
               "service job \"" << spec.name
                                << "\": multi-rank jobs are not supported "
                                   "(run.ranks must be 1)");
  RAMR_REQUIRE(!spec.config.sim.async_overlap,
               "service job \"" << spec.name
                                << "\": async_overlap needs named "
                                   "timeline lanes, which the shared "
                                   "device's launch fusion cannot carry");
  const int id = queue_.submit(std::move(spec));
  RAMR_LOG_INFO("job " << id << " (" << queue_.spec(id).name << ") submitted");
  return id;
}

std::string SimulationServer::output_prefix(const ActiveJob& job) const {
  return config_.output_dir + "/" + job.spec.config.output.basename;
}

bool SimulationServer::start_job(ActiveJob& job, std::string* error) {
  while (true) {
    try {
      // The job rides the server's device and clock; its own device spec
      // is ignored (one shared modeled accelerator, arena included). The
      // fault plan stays owned by the ActiveJob so its schedule survives
      // this restart.
      job.sim = std::make_unique<app::Simulation>(job.spec.config.sim,
                                                  /*comm=*/nullptr,
                                                  device_.get(),
                                                  job.fault_plan.get());
    } catch (const util::Error& e) {
      *error = e.what();
      return false;
    }
    if (job.checkpoints.empty()) {
      try {
        job.sim->initialize();
        return true;
      } catch (const util::Error& e) {
        *error = e.what();
        job.sim.reset();
        return false;
      }
    }
    const std::string newest = job.checkpoints.back();
    try {
      job.sim->restore_checkpoint(newest);
      return true;
    } catch (const util::Error& e) {
      // Corrupt or unreadable: drop it and fall back to the previous
      // interval (then, eventually, to a scratch re-init).
      RAMR_LOG_DEBUG("job " << job.id << ": checkpoint " << newest
                     << " rejected (" << e.what() << "), falling back");
      job.checkpoints.pop_back();
      ++job.checkpoint_fallbacks;
      job.sim.reset();
    }
  }
}

bool SimulationServer::admit_one() {
  const std::optional<int> id = queue_.claim();
  if (!id.has_value()) {
    return false;
  }
  ActiveJob job;
  job.id = *id;
  job.spec = queue_.spec(*id);
  job.checkpoints = job.spec.resume_checkpoints;
  const auto& faults = job.spec.config.sim.faults;
  if (faults != nullptr && faults->enabled()) {
    job.fault_plan = std::make_unique<util::FaultPlan>(*faults);
  }
  std::string error;
  if (!start_job(job, &error)) {
    JobStatus st = queue_.status(*id);
    st.state = JobState::kFailed;
    st.error = error;
    st.checkpoint_fallbacks = job.checkpoint_fallbacks;
    queue_.update(*id, st);
    RAMR_LOG_INFO("job " << *id << " failed to start: " << error);
    return true;  // the claim was consumed; try the next one
  }
  if (config_.health_interval > 0) {
    // Conservation baseline for the drift check. Costs a summary
    // reduction per admission — only taken when health checks are on.
    job.baseline = job.sim->composite_summary();
    job.baseline_valid = std::isfinite(job.baseline.mass);
  }
  if (job.sim->step_count() > 0) {
    job.last_checkpoint_step = job.sim->step_count();
    RAMR_LOG_INFO("job " << *id << " resumed from step "
                  << job.sim->step_count());
  }
  RAMR_LOG_INFO("job " << *id << " (" << job.spec.name << ") admitted");
  active_.push_back(std::move(job));
  return true;
}

bool SimulationServer::handle_failure(ActiveJob& job,
                                      const std::string& error) {
  vgpu::AnnotationScope recovery_annotation(&clock_, "server:recovery");
  job.sim.reset();  // release the attempt's slice of the shared arena
  if (job.retry_count >= config_.max_retries) {
    retire(job, JobState::kFailed, error);
    return false;
  }
  ++job.retry_count;
  // Capped exponential backoff, booked as modeled recovery time: a real
  // service sleeps before retrying, and goodput must pay for it.
  const double backoff =
      std::min(config_.backoff_base_s * std::ldexp(1.0, job.retry_count - 1),
               config_.backoff_cap_s);
  clock_.charge_to("recovery", backoff);
  job.backoff_seconds += backoff;
  std::string restart_error;
  if (!start_job(job, &restart_error)) {
    retire(job, JobState::kFailed,
           error + " (restart also failed: " + restart_error + ")");
    return false;
  }
  ++job.recoveries;
  job.just_revived = true;
  RAMR_LOG_INFO("job " << job.id << " recovered from \"" << error
                << "\" at step " << job.sim->step_count() << " (retry "
                << job.retry_count << ")");
  return true;
}

std::string SimulationServer::health_violation(ActiveJob& job) {
  const double dt = job.sim->last_dt();
  if (!std::isfinite(dt) || dt <= 0.0) {
    std::ostringstream ss;
    ss << "diverged: non-finite or non-positive dt (" << dt << ") at step "
       << job.sim->step_count();
    return ss.str();
  }
  if (config_.dt_floor > 0.0 && dt < config_.dt_floor) {
    std::ostringstream ss;
    ss << "diverged: dt " << dt << " collapsed below floor "
       << config_.dt_floor << " at step " << job.sim->step_count();
    return ss.str();
  }
  if (config_.watchdog_step_seconds > 0.0 &&
      job.last_step_seconds > config_.watchdog_step_seconds) {
    std::ostringstream ss;
    ss << "watchdog: step " << job.sim->step_count() << " took "
       << job.last_step_seconds << " attributed kernel-seconds (deadline "
       << config_.watchdog_step_seconds << ")";
    return ss.str();
  }
  if (config_.health_interval > 0 && job.baseline_valid &&
      job.sim->step_count() % config_.health_interval == 0) {
    const hydro::FieldSummary now = job.sim->composite_summary();
    if (!std::isfinite(now.mass) || !std::isfinite(now.internal_energy) ||
        !std::isfinite(now.kinetic_energy)) {
      std::ostringstream ss;
      ss << "diverged: non-finite field summary at step "
         << job.sim->step_count();
      return ss.str();
    }
    const double drift = std::abs(now.mass - job.baseline.mass) /
                         std::max(std::abs(job.baseline.mass), 1.0e-300);
    if (drift > config_.drift_tolerance) {
      std::ostringstream ss;
      ss << "diverged: mass drifted " << drift * 100.0 << "% from baseline "
         << job.baseline.mass << " at step " << job.sim->step_count();
      return ss.str();
    }
  }
  return {};
}

void SimulationServer::step_all() {
  vgpu::AnnotationScope round_annotation(&clock_, "server:round");
  std::vector<std::pair<int, std::string>> failed;
  {
    // One interleaved round: every resident job advances one step with
    // charges deferred, so the same stage kernel of different jobs
    // flushes as one fused launch. Outputs and admissions stay outside
    // the scope — only level advances fuse.
    vgpu::LaunchFusionScope fuse(config_.fuse_across_jobs ? device_.get()
                                                          : nullptr);
    for (ActiveJob& job : active_) {
      const double serial_before = device_->fusion_stats().serial_seconds;
      const double kernel_before = device_->kernel_seconds();
      try {
        job.sim->step();
      } catch (const util::Error& e) {
        failed.emplace_back(job.id, e.what());
        continue;
      }
      // Attributed demand: what this job's kernels would cost unfused.
      // Inside a fusion scope that is the serial_seconds delta; unfused
      // the charges land directly in kernel_seconds.
      job.last_step_seconds =
          config_.fuse_across_jobs
              ? device_->fusion_stats().serial_seconds - serial_before
              : device_->kernel_seconds() - kernel_before;
      job.serial_kernel_seconds += job.last_step_seconds;
    }
  }
  // Recovery happens OUTSIDE the fusion scope: restoring a checkpoint
  // moves real data and a retired/revived job must not fuse with the
  // round that killed it.
  for (const auto& [id, error] : failed) {
    auto it = std::find_if(active_.begin(), active_.end(),
                           [id = id](const ActiveJob& j) { return j.id == id; });
    if (!handle_failure(*it, error)) {
      active_.erase(it);
    }
  }
}

void SimulationServer::write_outputs(ActiveJob& job, bool final_output) {
  const cfg::OutputPolicy& out = job.spec.config.output;
  if (out.basename.empty()) {
    return;
  }
  const int step = job.sim->step_count();
  const std::string prefix =
      output_prefix(job) + "_step" + std::to_string(step);
  const bool ckpt_due =
      out.checkpoint_interval > 0 &&
      (final_output || step % out.checkpoint_interval == 0);
  const bool vtk_due = out.vtk_interval > 0 &&
                       (final_output || step % out.vtk_interval == 0);
  if (ckpt_due) {
    job.sim->save_checkpoint(prefix + ".ckpt");
    job.files.push_back(prefix + ".ckpt");
    // Recorded as believed-good: restore verifies the checksum and falls
    // back down this list if the write was silently corrupted.
    job.checkpoints.push_back(prefix + ".ckpt");
    job.last_checkpoint_step = step;
  }
  if (vtk_due) {
    app::write_vtk(*job.sim, prefix,
                   {{"density", job.sim->fields().density0},
                    {"energy", job.sim->fields().energy0}});
    job.files.push_back(prefix + ".visit");
  }
}

void SimulationServer::retire(ActiveJob& job, JobState state,
                              const std::string& error) {
  JobStatus st = queue_.status(job.id);
  st.state = state;
  st.error = error;
  st.serial_kernel_seconds = job.serial_kernel_seconds;
  st.retry_count = job.retry_count;
  st.recoveries = job.recoveries;
  st.checkpoint_fallbacks = job.checkpoint_fallbacks;
  st.backoff_seconds = job.backoff_seconds;
  if (job.sim != nullptr) {
    st.steps = job.sim->step_count();
    st.sim_time = job.sim->time();
    if (state != JobState::kFailed && state != JobState::kQuarantined) {
      // A quarantined job's fields may be NaN: skip final outputs and the
      // metrics reductions, like a failed job.
      write_outputs(job, /*final_output=*/true);
      st.metrics = run_metrics_json(*job.sim);
    }
  }
  // After the final outputs: the closing checkpoint (and any fault
  // injected into its write) must show in the retired record.
  st.last_checkpoint_step = job.last_checkpoint_step;
  if (job.fault_plan != nullptr) {
    st.faults_injected =
        static_cast<std::int64_t>(job.fault_plan->injected_total());
  }
  st.files = job.files;
  st.checkpoints = job.checkpoints;
  queue_.update(job.id, st);
  if (state == JobState::kDone) {
    ++jobs_completed_;
  }
  RAMR_LOG_INFO("job " << job.id << " retired: " << job_state_name(state)
                << (error.empty() ? "" : " (" + error + ")"));
  job.sim.reset();  // release the job's slice of the shared arena
}

void SimulationServer::refresh_status(const ActiveJob& job) {
  JobStatus st = queue_.status(job.id);
  st.steps = job.sim->step_count();
  st.sim_time = job.sim->time();
  st.serial_kernel_seconds = job.serial_kernel_seconds;
  st.retry_count = job.retry_count;
  st.recoveries = job.recoveries;
  st.checkpoint_fallbacks = job.checkpoint_fallbacks;
  st.backoff_seconds = job.backoff_seconds;
  st.last_checkpoint_step = job.last_checkpoint_step;
  if (job.fault_plan != nullptr) {
    st.faults_injected =
        static_cast<std::int64_t>(job.fault_plan->injected_total());
  }
  st.checkpoints = job.checkpoints;
  queue_.update(job.id, st);
}

void SimulationServer::run() {
  while (true) {
    while (static_cast<int>(active_.size()) < config_.max_concurrent_jobs &&
           queue_.pending() > 0) {
      admit_one();
    }
    if (stop_requested_.exchange(false)) {
      // Clean shutdown: every resident job checkpoints (as configured)
      // and reports final metrics; queued jobs stay queued for a later
      // run() — or a later server, via the manifest.
      for (ActiveJob& job : active_) {
        retire(job, JobState::kStopped, "");
      }
      active_.clear();
      write_manifest();
      publish_metrics();
      return;
    }
    if (active_.empty()) {
      write_manifest();
      publish_metrics();
      return;  // queue drained
    }
    step_all();
    // Health checks, interval outputs and completions, outside the
    // fusion scope.
    std::vector<ActiveJob> still_active;
    still_active.reserve(active_.size());
    for (ActiveJob& job : active_) {
      if (job.sim == nullptr) {
        continue;  // already retired by step_all
      }
      if (job.just_revived) {
        // Freshly restored: last_dt and the fields reflect the
        // checkpoint, not a completed step. Health checks resume next
        // round.
        job.just_revived = false;
        refresh_status(job);
        still_active.push_back(std::move(job));
        continue;
      }
      const std::string violation = health_violation(job);
      if (!violation.empty()) {
        retire(job, JobState::kQuarantined, violation);
        continue;
      }
      const cfg::RunBudget& budget = job.spec.config.run;
      const bool done = job.sim->step_count() >= budget.max_steps ||
                        job.sim->time() >= budget.end_time;
      if (done) {
        retire(job, JobState::kDone, "");
      } else {
        write_outputs(job, /*final_output=*/false);
        // Keep the externally visible progress fresh for pollers.
        refresh_status(job);
        still_active.push_back(std::move(job));
      }
    }
    active_ = std::move(still_active);
    write_manifest();
    publish_metrics();
  }
}

cfg::Json SimulationServer::status_json() const {
  cfg::Json j = cfg::Json::make_object();
  j.set("device", cfg::Json(config_.device.name));
  j.set("max_concurrent_jobs", cfg::Json(config_.max_concurrent_jobs));
  j.set("fuse_across_jobs", cfg::Json(config_.fuse_across_jobs));
  j.set("clock_seconds", cfg::Json(clock_.total()));
  j.set("jobs_completed", cfg::Json(jobs_completed_));

  const vgpu::FusionStats& fs = device_->fusion_stats();
  cfg::Json fusion = cfg::Json::make_object();
  fusion.set("enqueued", cfg::Json(static_cast<std::int64_t>(fs.enqueued)));
  fusion.set("groups_flushed",
             cfg::Json(static_cast<std::int64_t>(fs.groups_flushed)));
  fusion.set("serial_seconds", cfg::Json(fs.serial_seconds));
  fusion.set("fused_seconds", cfg::Json(fs.fused_seconds));
  fusion.set("seconds_saved",
             cfg::Json(fs.serial_seconds - fs.fused_seconds));
  j.set("fusion", std::move(fusion));

  const vgpu::FaultStats& dfs = device_->fault_stats();
  cfg::Json faults = cfg::Json::make_object();
  faults.set("launch_faults",
             cfg::Json(static_cast<std::int64_t>(dfs.launch_faults)));
  faults.set("launch_retries",
             cfg::Json(static_cast<std::int64_t>(dfs.launch_retries)));
  faults.set("launch_aborts",
             cfg::Json(static_cast<std::int64_t>(dfs.launch_aborts)));
  faults.set("alloc_faults",
             cfg::Json(static_cast<std::int64_t>(dfs.alloc_faults)));
  j.set("faults", std::move(faults));

  cfg::Json jobs = cfg::Json::make_array();
  for (int id = 0; id < queue_.size(); ++id) {
    const JobStatus st = queue_.status(id);
    cfg::Json job = cfg::Json::make_object();
    job.set("id", cfg::Json(id));
    job.set("name", cfg::Json(queue_.spec(id).name));
    job.set("state", cfg::Json(job_state_name(st.state)));
    job.set("steps", cfg::Json(st.steps));
    job.set("sim_time", cfg::Json(safe_number(st.sim_time)));
    job.set("serial_kernel_seconds",
            cfg::Json(safe_number(st.serial_kernel_seconds)));
    job.set("retry_count", cfg::Json(st.retry_count));
    job.set("recoveries", cfg::Json(st.recoveries));
    job.set("checkpoint_fallbacks", cfg::Json(st.checkpoint_fallbacks));
    job.set("last_checkpoint_step", cfg::Json(st.last_checkpoint_step));
    job.set("backoff_seconds", cfg::Json(safe_number(st.backoff_seconds)));
    job.set("faults_injected", cfg::Json(st.faults_injected));
    if (!st.error.empty()) {
      job.set("error", cfg::Json(st.error));
    }
    cfg::Json files = cfg::Json::make_array();
    for (const std::string& f : st.files) {
      files.push_back(cfg::Json(f));
    }
    job.set("files", std::move(files));
    cfg::Json checkpoints = cfg::Json::make_array();
    for (const std::string& c : st.checkpoints) {
      checkpoints.push_back(cfg::Json(c));
    }
    job.set("checkpoints", std::move(checkpoints));
    if (!st.metrics.is_null()) {
      job.set("metrics", st.metrics);
    }
    jobs.push_back(std::move(job));
  }
  j.set("jobs", std::move(jobs));
  return j;
}

void SimulationServer::write_manifest() const {
  if (config_.manifest_path.empty()) {
    return;
  }
  cfg::Json j = cfg::Json::make_object();
  cfg::Json jobs = cfg::Json::make_array();
  for (int id = 0; id < queue_.size(); ++id) {
    const JobStatus st = queue_.status(id);
    const JobSpec spec = queue_.spec(id);
    cfg::Json job = cfg::Json::make_object();
    job.set("name", cfg::Json(spec.name));
    job.set("state", cfg::Json(job_state_name(st.state)));
    job.set("steps", cfg::Json(st.steps));
    job.set("config", cfg::to_json(spec.config));
    cfg::Json checkpoints = cfg::Json::make_array();
    for (const std::string& c : st.checkpoints) {
      checkpoints.push_back(cfg::Json(c));
    }
    job.set("checkpoints", std::move(checkpoints));
    jobs.push_back(std::move(job));
  }
  j.set("jobs", std::move(jobs));
  // Atomic like the checkpoints: tmp + rename, so a server killed
  // mid-write can never leave a torn manifest behind.
  const std::string tmp = config_.manifest_path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    RAMR_REQUIRE(os.good(), "cannot open " << tmp << " for writing");
    os << j.dump() << "\n";
    os.flush();
    RAMR_REQUIRE(os.good(), "write to " << tmp << " failed");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, config_.manifest_path, ec);
  RAMR_REQUIRE(!ec, "cannot rename " << tmp << " to "
               << config_.manifest_path << ": " << ec.message());
}

void SimulationServer::publish_metrics() {
  obs::MetricsRegistry& m = metrics_;
  m.set("ramr_server_jobs_total", static_cast<std::uint64_t>(queue_.size()));
  m.set("ramr_server_jobs_completed_total",
        static_cast<std::uint64_t>(jobs_completed_));
  m.set("ramr_server_jobs_active",
        static_cast<std::uint64_t>(active_.size()));
  m.set("ramr_server_jobs_pending",
        static_cast<std::uint64_t>(queue_.pending()));
  m.set("ramr_server_clock_seconds", clock_.total());
  m.set("ramr_server_recovery_seconds", clock_.component("recovery"));
  m.set("ramr_server_launches_total", device_->launch_count());
  for (int t = 0; t < vgpu::kLaunchTagCount; ++t) {
    m.set(std::string("ramr_server_launches_total{tag=\"") +
              obs::launch_tag_label(t) + "\"}",
          device_->launch_count(static_cast<vgpu::LaunchTag>(t)));
  }
  m.set("ramr_server_arena_peak_bytes", device_->peak_bytes_allocated());
  const vgpu::FusionStats& fs = device_->fusion_stats();
  m.set("ramr_server_fusion_enqueued_total", fs.enqueued);
  m.set("ramr_server_fusion_groups_total", fs.groups_flushed);
  m.set("ramr_server_fusion_serial_seconds", fs.serial_seconds);
  m.set("ramr_server_fusion_fused_seconds", fs.fused_seconds);
  m.set("ramr_server_fusion_seconds_saved",
        fs.serial_seconds - fs.fused_seconds);
  const vgpu::FaultStats& dfs = device_->fault_stats();
  m.set("ramr_server_faults_total{site=\"launch\"}", dfs.launch_faults);
  m.set("ramr_server_faults_total{site=\"alloc\"}", dfs.alloc_faults);
  m.set("ramr_server_launch_retries_total", dfs.launch_retries);
  m.set("ramr_server_launch_aborts_total", dfs.launch_aborts);
  if (config_.metrics_out.empty()) {
    return;
  }
  // Same atomicity discipline as the manifest: a scraper never reads a
  // torn dump.
  const std::string tmp = config_.metrics_out + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    RAMR_REQUIRE(os.good(), "cannot open " << tmp << " for writing");
    os << metrics_.prometheus_text();
    os.flush();
    RAMR_REQUIRE(os.good(), "write to " << tmp << " failed");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, config_.metrics_out, ec);
  RAMR_REQUIRE(!ec, "cannot rename " << tmp << " to "
               << config_.metrics_out << ": " << ec.message());
}

int SimulationServer::resume_from_manifest() {
  if (config_.manifest_path.empty()) {
    return 0;
  }
  std::ifstream in(config_.manifest_path);
  if (!in) {
    return 0;  // first boot: nothing to resume
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const cfg::Json j = cfg::Json::parse(ss.str());
  RAMR_REQUIRE(j.is_object() && j.find("jobs") != nullptr &&
                   j.find("jobs")->is_array(),
               "manifest " << config_.manifest_path
               << " is not a server manifest (no jobs array)");
  int resumed = 0;
  for (const cfg::Json& job : j.find("jobs")->as_array()) {
    RAMR_REQUIRE(job.is_object(), "manifest " << config_.manifest_path
                 << ": jobs entries must be objects");
    const cfg::Json* state = job.find("state");
    const cfg::Json* name = job.find("name");
    const cfg::Json* config = job.find("config");
    RAMR_REQUIRE(state != nullptr && state->is_string() && name != nullptr &&
                     name->is_string() && config != nullptr,
                 "manifest " << config_.manifest_path
                 << ": jobs entries need name/state/config");
    const std::string& s = state->as_string();
    // Finished jobs (done/failed/quarantined) stay finished; everything
    // still in flight returns with its checkpoint chain.
    if (s != "queued" && s != "running" && s != "stopped") {
      continue;
    }
    JobSpec spec;
    spec.name = name->as_string();
    spec.config = cfg::parse_run_config(*config);
    if (const cfg::Json* ckpts = job.find("checkpoints")) {
      RAMR_REQUIRE(ckpts->is_array(), "manifest " << config_.manifest_path
                   << ": checkpoints must be an array");
      for (const cfg::Json& c : ckpts->as_array()) {
        RAMR_REQUIRE(c.is_string(), "manifest " << config_.manifest_path
                     << ": checkpoints must be strings");
        spec.resume_checkpoints.push_back(c.as_string());
      }
    }
    submit(std::move(spec));
    ++resumed;
  }
  RAMR_LOG_INFO("resumed " << resumed << " jobs from "
                << config_.manifest_path);
  return resumed;
}

}  // namespace ramr::svc
