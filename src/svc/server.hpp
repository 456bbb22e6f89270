// Multi-job simulation service: a queue of configured runs executed by
// one event loop over ONE shared virtual device.
//
// The throughput lever is cross-job launch fusion: the server interleaves
// the level advances of up to K resident jobs inside a launch-fusion
// scope, so the same stage kernel of different jobs is charged as one
// launch (amortized launch overhead, occupancy computed from the summed
// grids) — the multi-job generalisation of the paper's per-level kernel
// batching. Execution stays eager and per-job, so every job's fields are
// bit-identical to a standalone run of the same config; only the modeled
// time accounting changes. Checkpoints and VTK dumps stream per job on
// their configured intervals, outside the fusion scope.
//
// The server RECOVERS failed jobs (docs/fault_tolerance.md): a step that
// throws triggers a retry with capped exponential backoff (booked in
// modeled time) restarting from the newest good streamed checkpoint,
// falling back interval by interval when a checkpoint fails its checksum
// and to a scratch re-init when none survive. A per-step watchdog
// deadline and NaN/conservation-drift health checks QUARANTINE hung or
// diverging jobs instead of burning retries on them. When a manifest
// path is configured, the queue state persists across server restarts:
// a new server resumes queued/running/stopped jobs from their recorded
// checkpoints.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cfg/config.hpp"
#include "obs/metrics.hpp"
#include "svc/metrics.hpp"
#include "util/fault.hpp"
#include "vgpu/device.hpp"

namespace ramr::svc {

/// One unit of work: a named, fully validated run configuration.
struct JobSpec {
  std::string name;
  cfg::RunConfig config;
  /// Checkpoint paths (oldest first) a re-submitted job may restore
  /// from, newest first preference — filled by resume_from_manifest so a
  /// restarted server picks jobs up where they left off. Empty = start
  /// from scratch.
  std::vector<std::string> resume_checkpoints;
};

enum class JobState {
  kQueued,
  kRunning,
  kDone,
  kFailed,
  kStopped,
  /// Pulled from execution by a health check (hung on the watchdog
  /// deadline, non-finite dt/fields, or conservation drift). Not
  /// retried: the failure is systematic, not transient.
  kQuarantined,
};

const char* job_state_name(JobState state);

/// Externally visible progress of one job.
struct JobStatus {
  JobState state = JobState::kQueued;
  int steps = 0;
  double sim_time = 0.0;
  /// Modeled seconds the job's kernels would have cost unfused — the
  /// job's attributed share of device demand (fusion savings are a
  /// server-level property and reported there).
  double serial_kernel_seconds = 0.0;
  std::string error;                     ///< non-empty iff kFailed/kQuarantined
  std::vector<std::string> files;        ///< checkpoints + VTK indexes written
  cfg::Json metrics;                     ///< run_metrics_json (final for done jobs)

  // Recovery activity (docs/fault_tolerance.md).
  int retry_count = 0;            ///< failed attempts so far
  int recoveries = 0;             ///< successful restarts after a failure
  int checkpoint_fallbacks = 0;   ///< corrupt checkpoints skipped on restore
  int last_checkpoint_step = -1;  ///< step of the newest streamed checkpoint
  double backoff_seconds = 0.0;   ///< modeled seconds spent backing off
  std::int64_t faults_injected = 0;  ///< fault-plan injections attributed
  /// Streamed checkpoint paths believed good, oldest first (the restore
  /// fallback chain; also what the manifest records for resume).
  std::vector<std::string> checkpoints;
};

/// FIFO of submitted jobs plus their status records. Thread-safe so a
/// controller thread may submit and poll while the server loop runs.
class JobQueue {
 public:
  /// Enqueues a job; returns its id (dense, starting at 0).
  int submit(JobSpec spec);

  /// Claims the oldest queued job (marking it kRunning); nullopt when
  /// none are queued.
  std::optional<int> claim();

  int size() const;
  int pending() const;

  JobSpec spec(int id) const;
  JobStatus status(int id) const;
  void update(int id, const JobStatus& status);

 private:
  struct Record {
    JobSpec spec;
    JobStatus status;
  };

  mutable std::mutex mutex_;
  std::vector<Record> records_;
  std::deque<int> queued_;
};

/// Server construction knobs.
struct ServerConfig {
  vgpu::DeviceSpec device = vgpu::tesla_k20x();
  /// Jobs resident (advancing) at once. 1 = plain serial back-to-back.
  int max_concurrent_jobs = 4;
  /// Directory prefixed to every job output path ("." = CWD).
  std::string output_dir = ".";
  /// Cross-job launch fusion (ablation lever; on in production).
  bool fuse_across_jobs = true;

  // --- recovery (docs/fault_tolerance.md) ---
  /// Failed step attempts tolerated per job before kFailed. Each retry
  /// restarts from the newest good checkpoint (or scratch).
  int max_retries = 3;
  /// Exponential backoff before retry r: min(base * 2^(r-1), cap),
  /// charged to the server clock's "recovery" component — recovery cost
  /// is modeled time, visible in jobs/hour goodput.
  double backoff_base_s = 1.0e-3;
  double backoff_cap_s = 1.0e-1;
  /// Quarantine a job whose single step exceeds this many attributed
  /// kernel-seconds (0 = watchdog off).
  double watchdog_step_seconds = 0.0;
  /// Quarantine when dt collapses below this floor (0 = only the always-on
  /// non-finite/non-positive dt check).
  double dt_floor = 0.0;
  /// Steps between conservation health checks (0 = off). Each check
  /// launches a composite-summary reduction — real modeled cost, so it
  /// is opt-in.
  int health_interval = 0;
  /// Relative mass drift against the job's admission baseline that
  /// triggers quarantine.
  double drift_tolerance = 0.25;
  /// When non-empty, the queue/job state persists here (atomically, as
  /// JSON) after every round, and resume_from_manifest() re-submits
  /// unfinished jobs from it — server-restart resume.
  std::string manifest_path;
  /// When non-empty, a Prometheus-text dump of the server's metrics
  /// (jobs, device counters, fusion, faults, recovery seconds) refreshes
  /// here each round alongside the manifest (atomic tmp+rename;
  /// `ramr_run --serve K --metrics-out <path>`, docs/observability.md).
  std::string metrics_out;
};

/// The event loop. Single-threaded: construct, submit jobs (directly or
/// through queue()), then run() to completion — or call request_stop()
/// from a controller thread for a clean early shutdown (in-flight jobs
/// checkpoint and stop at the next step boundary).
class SimulationServer {
 public:
  explicit SimulationServer(const ServerConfig& config);

  /// Validates and enqueues; returns the job id. Service jobs must be
  /// single-rank and single-lane (async_overlap needs named timeline
  /// lanes, which the shared device's launch fusion cannot carry).
  int submit(JobSpec spec);

  JobQueue& queue() { return queue_; }

  /// Runs until the queue drains (or request_stop()). Safe to call again
  /// after submitting more jobs.
  void run();

  /// Asks the loop to stop at the next step boundary: active jobs write
  /// a final checkpoint (when their config checkpoints at all) and are
  /// marked kStopped; queued jobs stay queued. One-shot: the request is
  /// consumed by the stop, so a later run() resumes draining the queue.
  void request_stop() { stop_requested_ = true; }

  JobStatus status(int id) const { return queue_.status(id); }

  /// Full service report: device + fusion counters and every job's
  /// status and metrics.
  cfg::Json status_json() const;

  /// Reads the manifest at config.manifest_path (written by a previous
  /// server's run loop) and re-submits every job that had not finished —
  /// queued and stopped/running jobs return with their recorded
  /// checkpoints, so admission restores them where they left off.
  /// Returns the number of jobs resumed (0 when the manifest is absent
  /// or no path is configured).
  int resume_from_manifest();

  /// Persists the queue/job state as JSON (atomic tmp+rename). Called
  /// automatically after every round when manifest_path is set.
  void write_manifest() const;

  vgpu::Device& device() { return *device_; }
  vgpu::SimClock& clock() { return clock_; }
  int jobs_completed() const { return jobs_completed_; }

 private:
  struct ActiveJob {
    int id = -1;
    JobSpec spec;
    std::unique_ptr<app::Simulation> sim;
    double serial_kernel_seconds = 0.0;
    std::vector<std::string> files;

    /// The job's fault schedule. Owned HERE, not by the Simulation, so
    /// it survives restarts: a retry continues the schedule instead of
    /// deterministically replaying the fault that killed the attempt.
    std::unique_ptr<util::FaultPlan> fault_plan;
    /// Believed-good streamed checkpoints, oldest first (restore tries
    /// newest first and pops the ones that fail verification).
    std::vector<std::string> checkpoints;
    int last_checkpoint_step = -1;
    int retry_count = 0;
    int recoveries = 0;
    int checkpoint_fallbacks = 0;
    double backoff_seconds = 0.0;
    /// Attributed kernel-seconds of the latest step (watchdog input).
    double last_step_seconds = 0.0;
    /// Set when the job was revived this round: it has not completed a
    /// step since the restore, so the post-round health checks (which
    /// read last_dt and the live fields) do not apply yet.
    bool just_revived = false;
    /// Conservation baseline captured at admission (health checks).
    hydro::FieldSummary baseline{};
    bool baseline_valid = false;
  };

  bool admit_one();
  void step_all();
  /// (Re)creates job.sim restoring from the newest good checkpoint
  /// (fallback chain) or initializing from scratch. False + error when
  /// even that fails.
  bool start_job(ActiveJob& job, std::string* error);
  /// Retry-with-backoff path for a thrown step: true if the job was
  /// revived (stays active), false if it was retired kFailed.
  bool handle_failure(ActiveJob& job, const std::string& error);
  /// Post-step health checks; returns a non-empty quarantine reason when
  /// the job must be pulled.
  std::string health_violation(ActiveJob& job);
  void write_outputs(ActiveJob& job, bool final_output);
  void retire(ActiveJob& job, JobState state, const std::string& error);
  void refresh_status(const ActiveJob& job);
  std::string output_prefix(const ActiveJob& job) const;
  /// Re-samples the server metrics and (when config.metrics_out is set)
  /// rewrites the Prometheus-text dump. Called alongside write_manifest.
  void publish_metrics();

  ServerConfig config_;
  vgpu::SimClock clock_;
  std::unique_ptr<vgpu::Device> device_;
  JobQueue queue_;
  std::vector<ActiveJob> active_;
  std::atomic<bool> stop_requested_{false};
  int jobs_completed_ = 0;
  obs::MetricsRegistry metrics_;
};

}  // namespace ramr::svc
