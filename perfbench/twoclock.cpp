// Two-clock benchmark of the ramr library: host CPU seconds, host wall
// seconds and modeled seconds, end to end and per layer, on three
// workloads that each load a different layer (perfbench/GLOSSARY.md).
//
//   twoclock --workload amr_regrid|halo_overlap|service_batch --seed N
//            --seconds S --trace 0|1 --workdir DIR --references FILE
//            [--git-sha SHA] [--record]
//
// Everything goes through the public API: JSON config text is generated
// here, parsed by cfg::parse_run_config_text and run through
// app::Simulation, simmpi::World or svc::SimulationServer. An untraced
// run gives the end-to-end metrics; a traced run (a benchmark-owned
// vgpu::ChargeListener timing the program's AnnotationScopes with
// steady_clock) and timed public calls between steps give the per-layer
// metrics. Outputs are checked against recorded references (field
// digests, final time, step count, job states); any mismatch exits 1.
// The last stdout line is one JSON object: correct / attempted / failed
// / metrics. --record prints the references of a workload instead.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <barrier>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "amr/berger_rigoutsos.hpp"
#include "amr/gridding_algorithm.hpp"
#include "app/simulation.hpp"
#include "cfg/config.hpp"
#include "pdat/cuda/cuda_data.hpp"
#include "simmpi/communicator.hpp"
#include "svc/server.hpp"
#include "util/error.hpp"
#include "util/logger.hpp"
#include "util/thread_pool.hpp"
#include "vgpu/device.hpp"

namespace {

using ramr::app::Simulation;
using ramr::cfg::Json;
using ramr::simmpi::Communicator;
namespace fs = std::filesystem;
namespace vgpu = ramr::vgpu;

// ---------------------------------------------------------------------------
// Clocks and statistics

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (p in (0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::string hex_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Workloads: generated config text. Single-simulation workloads draw only
// the episode length from the seed (the problem never changes); the
// service workload draws its job mix, order and fault plans.

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool record = false;
  std::string workdir;
  std::string references;
  std::string git_sha = "unknown";
};

constexpr int kStepVariants = 2;
/// Set-ups timed per run (episodes plus set-up-only repetitions).
constexpr std::size_t kSetupSamples = 9;

struct SteppingWorkload {
  int ranks = 1;
  int base_steps = 0;
  std::string (*config_text)(int steps) = nullptr;
  const char* shape = "";
};

std::string amr_regrid_config(int steps) {
  return R"({"problem": "triple_point", "grid": {"nx": 448, "ny": 192},
  "amr": {"max_levels": 3, "ratio": 2, "regrid_interval": 4,
          "max_patch_cells": 4096},
  "run": {"max_steps": )" +
         std::to_string(steps) + R"(, "ranks": 1}})";
}

std::string halo_overlap_config(int steps) {
  return R"({"problem": "sod", "grid": {"nx": 384, "ny": 384},
  "amr": {"max_levels": 2, "ratio": 2, "regrid_interval": 1000000,
          "max_patch_cells": 1024},
  "execution": {"async_overlap": true, "wide_overlap": true},
  "network": {"preset": "fdr_infiniband"},
  "run": {"max_steps": )" +
         std::to_string(steps) + R"(, "ranks": 2}})";
}

const SteppingWorkload* stepping_workload(const std::string& name) {
  static const SteppingWorkload kAmr{
      1, 32, amr_regrid_config,
      "triple_point 448x192, 1 rank, 3 levels r=2, 64^2 patches, regrid "
      "every 4 steps"};
  static const SteppingWorkload kHalo{
      2, 24, halo_overlap_config,
      "sod 384^2, 2 ranks, 2 levels r=2, 32^2 patches, async_overlap + "
      "wide_overlap, FDR network, no regrid after setup"};
  if (name == "amr_regrid") return &kAmr;
  if (name == "halo_overlap") return &kHalo;
  return nullptr;
}

int episode_steps(const SteppingWorkload& w, std::uint64_t seed) {
  return w.base_steps + static_cast<int>(seed % kStepVariants);
}

struct ServiceJob {
  std::string name;
  std::string problem;
  std::string text;
};

/// Every stock problem twice: a steady mix whose order the seed draws.
constexpr int kServiceCopies = 2;
constexpr int kServiceFaultyJobs = 3;
constexpr int kServiceSteps = 20;
/// One job of every problem resident at a time: the arena peak then
/// barely depends on the seeded order.
constexpr int kServiceConcurrency = 5;
constexpr const char* kServiceShape =
    "closed batch of 10 jobs (5 stock problems x 2) submitted at start, "
    "K=5 resident, 20 steps each at about 64^2, checkpoint every 5 steps, "
    "3 jobs lose one step and replay 2";

struct ProblemGrid {
  const char* problem;
  int nx;
  int ny;
};

constexpr std::array<ProblemGrid, 5> kServiceProblems = {{
    {"sod", 64, 64},
    {"triple_point", 98, 42},
    {"sedov", 64, 64},
    {"kelvin_helmholtz", 64, 64},
    {"rayleigh_taylor", 36, 108},
}};
constexpr int kServiceJobs =
    kServiceCopies * static_cast<int>(kServiceProblems.size());

std::string service_job_text(const ProblemGrid& p, const std::string& basename,
                             int fault_step, std::uint64_t fault_seed) {
  std::ostringstream os;
  os << R"({"problem": ")" << p.problem << R"(", "grid": {"nx": )" << p.nx
     << R"(, "ny": )" << p.ny
     << R"(}, "amr": {"max_levels": 3, "regrid_interval": 5},)"
     << R"( "run": {"max_steps": )" << kServiceSteps << "}";
  if (!basename.empty()) {
    os << R"(, "output": {"basename": ")" << basename
       << R"(", "checkpoint_interval": 5})";
  }
  if (fault_step > 0) {
    os << R"(, "faults": {"seed": )" << fault_seed
       << R"(, "step": {"at_steps": [)" << fault_step
       << R"(], "max_injections": 1}})";
  }
  os << "}";
  return os.str();
}

/// Fisher-Yates with an explicit draw, so a seed means the same order on
/// every standard library.
template <typename T>
void seeded_shuffle(std::vector<T>& v, std::mt19937_64& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng() % i]);
  }
}

/// The seeded batch: the order of the jobs, which kServiceFaultyJobs of
/// them lose a step after their first checkpoint, at which step, and each
/// fault plan's seed. The batch holds every stock problem kServiceCopies
/// times, one shuffled block of all five after another, so the jobs
/// resident together (and the device arena peak) stay comparable across
/// seeds.
std::vector<ServiceJob> service_jobs(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 11);
  std::vector<const ProblemGrid*> order;
  for (int c = 0; c < kServiceCopies; ++c) {
    std::vector<const ProblemGrid*> block;
    for (const ProblemGrid& p : kServiceProblems) block.push_back(&p);
    seeded_shuffle(block, rng);
    order.insert(order.end(), block.begin(), block.end());
  }
  std::vector<int> faulty(order.size(), 0);
  std::fill_n(faulty.begin(), kServiceFaultyJobs, 1);
  seeded_shuffle(faulty, rng);
  std::vector<ServiceJob> jobs;
  for (std::size_t j = 0; j < order.size(); ++j) {
    const ProblemGrid& p = *order[j];
    // Two steps past a checkpoint (7, 12 or 17): every restore replays
    // the same amount of work.
    const int fault_step = faulty[j] != 0 ? 7 + 5 * static_cast<int>(rng() % 3) : 0;
    const std::uint64_t fault_seed = rng() % 1000000007ull;
    const std::string name = "job" + std::to_string(j) + "_" + p.problem;
    jobs.push_back({name, p.problem,
                    service_job_text(p, name, fault_step, fault_seed)});
  }
  return jobs;
}

// ---------------------------------------------------------------------------
// Host spans at the program's annotation boundaries.

/// Benchmark-owned ChargeListener. With per_scope it books steady_clock
/// self and inclusive time for every AnnotationScope name; without, it
/// only times `server:round` scopes (host CPU and wall) and counts the
/// job steps inside each round (one `stage:timestep` scope per step), the
/// least observation that yields per-step samples from inside
/// SimulationServer::run(). Charges are never altered.
class ScopeTimer final : public vgpu::ChargeListener {
 public:
  struct Totals {
    double self = 0.0;
    double inclusive = 0.0;
    std::int64_t count = 0;
  };
  struct Round {
    double cpu = 0.0;
    double wall = 0.0;
    int steps = 0;
  };

  ScopeTimer(vgpu::SimClock& clock, bool per_scope)
      : clock_(clock), per_scope_(per_scope) {
    RAMR_REQUIRE(clock_.listener() == nullptr,
                 "clock already has a listener");
    clock_.set_listener(this);
  }
  ~ScopeTimer() override { clock_.set_listener(nullptr); }
  ScopeTimer(const ScopeTimer&) = delete;
  ScopeTimer& operator=(const ScopeTimer&) = delete;

  void on_charge(const std::string&, double) override {}

  void on_annotation_begin(const std::string& name) override {
    Frame f;
    f.round = name == "server:round";
    if (name == "stage:timestep") {
      ++round_steps_;
    }
    if (per_scope_) {
      f.totals = &scopes_[name];
    }
    if (f.round) {
      round_steps_ = 0;
      f.cpu_begin = cpu_now();
    }
    if (per_scope_ || f.round) {
      f.wall_begin = wall_now();
    }
    stack_.push_back(f);
  }

  void on_annotation_end() override {
    if (stack_.empty()) {
      return;  // began before this listener attached
    }
    const Frame f = stack_.back();
    stack_.pop_back();
    const double dur = (per_scope_ || f.round) ? wall_now() - f.wall_begin : 0.0;
    if (f.round) {
      rounds_.push_back({cpu_now() - f.cpu_begin, dur, round_steps_});
    }
    if (!per_scope_) {
      return;
    }
    f.totals->self += dur - f.child;
    f.totals->inclusive += dur;
    ++f.totals->count;
    if (stack_.empty()) {
      top_level_ += dur;
    } else {
      stack_.back().child += dur;
    }
  }

  const std::map<std::string, Totals>& scopes() const { return scopes_; }
  const std::vector<Round>& rounds() const { return rounds_; }
  double top_level_seconds() const { return top_level_; }

 private:
  struct Frame {
    Totals* totals = nullptr;
    bool round = false;
    double wall_begin = 0.0;
    double cpu_begin = 0.0;
    double child = 0.0;
  };

  vgpu::SimClock& clock_;
  bool per_scope_;
  std::vector<Frame> stack_;
  std::map<std::string, Totals> scopes_;
  std::vector<Round> rounds_;
  double top_level_ = 0.0;
  int round_steps_ = 0;
};

/// Per-scope host seconds summed over traced steps (and ranks).
struct HostSpans {
  std::map<std::string, ScopeTimer::Totals> scopes;
  double step_seconds = 0.0;  ///< summed traced step (or server run) time
  double top_level = 0.0;
  std::int64_t steps = 0;
  std::vector<double> round_wall;

  HostSpans() = default;
  HostSpans(const ScopeTimer& t, double step_seconds_in, std::int64_t steps_in)
      : scopes(t.scopes()),
        step_seconds(step_seconds_in),
        top_level(t.top_level_seconds()),
        steps(steps_in) {
    for (const ScopeTimer::Round& r : t.rounds()) {
      round_wall.push_back(r.wall);
    }
  }

  /// Adds another sample, its seconds scaled by `scale` (1/ranks gives the
  /// mean over ranks).
  void merge(const HostSpans& o, double scale = 1.0) {
    for (const auto& [name, tot] : o.scopes) {
      ScopeTimer::Totals& dst = scopes[name];
      dst.self += scale * tot.self;
      dst.inclusive += scale * tot.inclusive;
      dst.count += tot.count;
    }
    step_seconds += scale * o.step_seconds;
    top_level += scale * o.top_level;
    steps += o.steps;
    round_wall.insert(round_wall.end(), o.round_wall.begin(), o.round_wall.end());
  }
  double self(const std::string& name) const {
    const auto it = scopes.find(name);
    return it != scopes.end() ? it->second.self : 0.0;
  }
  double inclusive(const std::string& name) const {
    const auto it = scopes.find(name);
    return it != scopes.end() ? it->second.inclusive : 0.0;
  }
  double self_prefix(const std::string& prefix) const {
    double s = 0.0;
    for (const auto& [name, tot] : scopes) {
      if (name.rfind(prefix, 0) == 0) s += tot.self;
    }
    return s;
  }
  double self_sum() const { return self_prefix(""); }
};

// ---------------------------------------------------------------------------
// Modeled counters: snapshots of one (device, clock) pair and, for a
// standalone simulation, its transfer / comm / gridding state.

struct ModeledCounters {
  std::array<double, vgpu::kLaunchTagCount> launches{};
  double kernel_seconds = 0.0;
  double pcie_bytes = 0.0;
  double modeled = 0.0;
  std::map<std::string, double> components;
  // Transfer layer.
  double halo_fills = 0.0;
  double messages_sent = 0.0;
  double bytes_sent = 0.0;
  double plan_fallbacks = 0.0;
  std::array<double, ramr::app::TransferCounters::kWindowCount> window_comm{};
  std::array<double, ramr::app::TransferCounters::kWindowCount> window_saved{};
  // simmpi.
  double p2p_messages = 0.0;
  double p2p_bytes = 0.0;
  double imbalance_idle = 0.0;
  // amr.
  double regrids = 0.0;
  double cells_tagged = 0.0;
  double load_imbalance = 1.0;

  double component(const std::string& name) const {
    const auto it = components.find(name);
    return it != components.end() ? it->second : 0.0;
  }
  double total_launches() const {
    double s = 0.0;
    for (double v : launches) s += v;
    return s;
  }

  /// The bit pattern of every field, for bitwise comparison.
  std::vector<std::uint64_t> bit_pattern() const {
    std::vector<double> v(launches.begin(), launches.end());
    for (double x : {kernel_seconds, pcie_bytes, modeled, halo_fills,
                     messages_sent, bytes_sent, plan_fallbacks, p2p_messages,
                     p2p_bytes, imbalance_idle, regrids, cells_tagged,
                     load_imbalance}) {
      v.push_back(x);
    }
    v.insert(v.end(), window_comm.begin(), window_comm.end());
    v.insert(v.end(), window_saved.begin(), window_saved.end());
    for (const auto& [name, s] : components) v.push_back(s);
    std::vector<std::uint64_t> out;
    for (double x : v) out.push_back(bits(x));
    return out;
  }
};

void snapshot_device(vgpu::Device& dev, vgpu::SimClock& clock,
                     ModeledCounters* c) {
  for (int t = 0; t < vgpu::kLaunchTagCount; ++t) {
    c->launches[static_cast<std::size_t>(t)] =
        static_cast<double>(dev.launch_count(static_cast<vgpu::LaunchTag>(t)));
  }
  c->kernel_seconds = dev.kernel_seconds();
  c->pcie_bytes = static_cast<double>(dev.transfers().total_bytes());
  c->components = clock.components();
}

ModeledCounters snapshot_sim(Simulation& sim, const Communicator* comm) {
  ModeledCounters c;
  snapshot_device(sim.device(), sim.clock(), &c);
  c.modeled = sim.modeled_seconds();
  const ramr::app::TransferCounters& tc = sim.integrator().transfer_counters();
  c.halo_fills = static_cast<double>(tc.halo_fills);
  c.messages_sent = static_cast<double>(tc.messages_sent);
  c.bytes_sent = static_cast<double>(tc.bytes_sent);
  c.plan_fallbacks = static_cast<double>(tc.plan_fallbacks);
  for (std::size_t w = 0; w < tc.window.size(); ++w) {
    c.window_comm[w] = tc.window[w].comm_seconds;
    c.window_saved[w] = tc.window[w].overlap_seconds_saved;
  }
  if (comm != nullptr) {
    c.p2p_messages = static_cast<double>(comm->stats().messages_sent);
    c.p2p_bytes = static_cast<double>(comm->stats().bytes_sent);
  }
  if (sim.timeline() != nullptr) {
    c.imbalance_idle = sim.timeline()->imbalance_idle();
  }
  const ramr::amr::GriddingStats& gs = sim.gridding_stats();
  c.regrids = gs.regrids;
  c.cells_tagged = static_cast<double>(gs.cells_tagged);
  c.load_imbalance =
      gs.imbalance_history.empty() ? 1.0 : gs.imbalance_history.back();
  return c;
}

/// after - before, field by field (load_imbalance keeps the final value).
ModeledCounters delta(const ModeledCounters& after,
                      const ModeledCounters& before) {
  ModeledCounters d = after;
  for (std::size_t t = 0; t < d.launches.size(); ++t) {
    d.launches[t] -= before.launches[t];
  }
  d.kernel_seconds -= before.kernel_seconds;
  d.pcie_bytes -= before.pcie_bytes;
  d.modeled -= before.modeled;
  for (auto& [name, s] : d.components) s -= before.component(name);
  d.halo_fills -= before.halo_fills;
  d.messages_sent -= before.messages_sent;
  d.bytes_sent -= before.bytes_sent;
  d.plan_fallbacks -= before.plan_fallbacks;
  for (std::size_t w = 0; w < d.window_comm.size(); ++w) {
    d.window_comm[w] -= before.window_comm[w];
    d.window_saved[w] -= before.window_saved[w];
  }
  d.p2p_messages -= before.p2p_messages;
  d.p2p_bytes -= before.p2p_bytes;
  d.imbalance_idle -= before.imbalance_idle;
  d.regrids -= before.regrids;
  d.cells_tagged -= before.cells_tagged;
  return d;
}

/// Counts summed over ranks; seconds taken from the slowest rank.
ModeledCounters combine_ranks(const std::vector<ModeledCounters>& ranks) {
  std::size_t slowest = 0;
  for (std::size_t r = 1; r < ranks.size(); ++r) {
    if (ranks[r].modeled > ranks[slowest].modeled) slowest = r;
  }
  ModeledCounters c = ranks[slowest];
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    if (r == slowest) continue;
    const ModeledCounters& o = ranks[r];
    for (std::size_t t = 0; t < c.launches.size(); ++t) {
      c.launches[t] += o.launches[t];
    }
    c.pcie_bytes += o.pcie_bytes;
    c.halo_fills += o.halo_fills;
    c.messages_sent += o.messages_sent;
    c.bytes_sent += o.bytes_sent;
    c.plan_fallbacks += o.plan_fallbacks;
    c.p2p_messages += o.p2p_messages;
    c.p2p_bytes += o.p2p_bytes;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Output check: field digests and conservation totals.

constexpr std::array<const char*, 4> kDigestFields = {"density0", "energy0",
                                                      "xvel0", "yvel0"};

int field_id(const Simulation& sim, int k) {
  const ramr::app::Fields& f = sim.fields();
  const std::array<int, 4> ids = {f.density0, f.energy0, f.xvel0, f.yvel0};
  return ids[static_cast<std::size_t>(k)];
}

/// FNV-1a over the bit patterns of this rank's local patches (ghost
/// layers included), walked in global_id order, one per (level, field).
/// Downloads cross the modeled PCIe bus: call after the modeled numbers
/// have been read.
std::vector<std::uint64_t> rank_digests(Simulation& sim) {
  std::vector<std::uint64_t> out;
  ramr::hier::PatchHierarchy& h = sim.hierarchy();
  for (int l = 0; l < h.num_levels(); ++l) {
    std::vector<std::shared_ptr<ramr::hier::Patch>> patches =
        h.level(l).local_patches();
    std::sort(patches.begin(), patches.end(),
              [](const auto& a, const auto& b) {
                return a->global_id() < b->global_id();
              });
    for (std::size_t k = 0; k < kDigestFields.size(); ++k) {
      std::uint64_t d = kFnvOffset;
      for (const auto& p : patches) {
        auto& data = p->typed_data<ramr::pdat::cuda::CudaData>(
            field_id(sim, static_cast<int>(k)));
        for (int c = 0; c < data.components(); ++c) {
          const auto& arr = data.component(c);
          for (int plane = 0; plane < arr.depth(); ++plane) {
            const std::vector<double> v = arr.download_plane(plane);
            d = fnv1a(d, v.data(), v.size() * sizeof(double));
          }
        }
      }
      out.push_back(d);
    }
  }
  return out;
}

struct FinalState {
  double time = 0.0;
  int steps = 0;
  std::vector<std::string> digest_keys;
  std::vector<std::uint64_t> digests;  ///< folded over ranks in rank order
  ramr::hydro::FieldSummary totals;
};

FinalState fold_final_state(const std::vector<std::vector<std::uint64_t>>& per_rank,
                            int levels, double time, int steps,
                            const ramr::hydro::FieldSummary& totals) {
  FinalState s;
  s.time = time;
  s.steps = steps;
  s.totals = totals;
  for (int l = 0; l < levels; ++l) {
    for (std::size_t k = 0; k < kDigestFields.size(); ++k) {
      const std::size_t i = static_cast<std::size_t>(l) * kDigestFields.size() + k;
      std::uint64_t d = kFnvOffset;
      for (const auto& rank : per_rank) {
        const std::uint64_t v = rank.at(i);
        d = fnv1a(d, &v, sizeof v);
      }
      s.digest_keys.push_back("L" + std::to_string(l) + "." + kDigestFields[k]);
      s.digests.push_back(d);
    }
  }
  return s;
}

Json totals_json(const ramr::hydro::FieldSummary& t) {
  Json j = Json::make_object();
  j.set("mass", Json(hex_double(t.mass)));
  j.set("internal_energy", Json(hex_double(t.internal_energy)));
  j.set("kinetic_energy", Json(hex_double(t.kinetic_energy)));
  return j;
}

Json final_state_json(const FinalState& s) {
  Json j = Json::make_object();
  j.set("steps", Json(s.steps));
  j.set("time", Json(hex_double(s.time)));
  Json d = Json::make_object();
  for (std::size_t i = 0; i < s.digests.size(); ++i) {
    d.set(s.digest_keys[i], Json(hex_u64(s.digests[i])));
  }
  j.set("digests", std::move(d));
  j.set("totals", totals_json(s.totals));
  return j;
}

/// Collects check outcomes; prints each failure and remembers it.
class Checker {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) {
      std::printf("CHECK FAILED: %s\n", what.c_str());
      ok_ = false;
    }
  }
  bool ok() const { return ok_; }

  /// Totals within a relative tolerance; reports whether they also
  /// repeated bitwise (their last bits depend on reduction order).
  void totals(const ramr::hydro::FieldSummary& got, const Json* ref,
              const std::string& where, bool* bitwise) {
    if (ref == nullptr) {
      expect(false, where + ": no reference totals");
      return;
    }
    const std::array<std::pair<const char*, double>, 3> vals = {{
        {"mass", got.mass},
        {"internal_energy", got.internal_energy},
        {"kinetic_energy", got.kinetic_energy},
    }};
    for (const auto& [key, v] : vals) {
      const Json* r = ref->find(key);
      const double want = r != nullptr ? std::strtod(r->as_string().c_str(), nullptr)
                                       : std::nan("");
      const double rel = std::fabs(v - want) /
                         std::max({std::fabs(v), std::fabs(want), 1e-300});
      expect(rel <= 1e-10, where + ": total " + key + " " + hex_double(v) +
                               " vs reference " + hex_double(want));
      if (bits(v) != bits(want)) *bitwise = false;
    }
  }

  void final_state(const FinalState& s, const Json* ref, const std::string& where,
                   bool* bitwise) {
    if (ref == nullptr) {
      expect(false, where + ": no reference recorded");
      return;
    }
    expect(ref->find("steps")->as_integer() == s.steps,
           where + ": step count " + std::to_string(s.steps));
    expect(ref->find("time")->as_string() == hex_double(s.time),
           where + ": final time " + hex_double(s.time) + " vs reference " +
               ref->find("time")->as_string());
    const Json* digests = ref->find("digests");
    expect(digests->as_object().size() == s.digests.size(),
           where + ": level/field count differs from the reference");
    for (std::size_t i = 0; i < s.digests.size(); ++i) {
      const Json* d = digests->find(s.digest_keys[i]);
      expect(d != nullptr && d->as_string() == hex_u64(s.digests[i]),
             where + ": digest " + s.digest_keys[i] + " " +
                 hex_u64(s.digests[i]) + " vs reference " +
                 (d != nullptr ? d->as_string() : std::string("(none)")));
    }
    totals(s.totals, ref->find("totals"), where, bitwise);
  }

 private:
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Ranks: one World per multi-rank episode; serial runs stay on this thread.

void run_ranks(int ranks, const ramr::simmpi::NetworkSpec& network,
               const std::function<void(int, Communicator*)>& body) {
  if (ranks == 1) {
    body(0, nullptr);
    return;
  }
  ramr::simmpi::World world(ranks, network);
  world.run([&](Communicator& comm) { body(comm.rank(), &comm); });
}

// ---------------------------------------------------------------------------
// Timed public calls (per-layer host time the scopes cannot isolate).

struct TimedCalls {
  double cluster_s = 0.0;          ///< berger_rigoutsos over all tag levels
  double cluster_efficiency = 0.0;
  double schedule_build_s = 0.0;   ///< rebuild_schedules
  double allreduce_s = 0.0;        ///< one allreduce (multi-rank only)
  double checkpoint_write_s = 0.0;
  double checkpoint_restore_s = 0.0;
};

constexpr int kTimedReps = 5;

/// Runs on every rank (the tag gather, allreduce and checkpoint are
/// collective); rank 0's timings are the result. Charges the modeled
/// clock of `sim`, so it runs only after its modeled numbers were read.
TimedCalls timed_calls(Simulation& sim, Communicator* comm,
                       const ramr::cfg::RunConfig& config,
                       const std::string& checkpoint_path) {
  TimedCalls t;
  ramr::hier::PatchHierarchy& h = sim.hierarchy();
  const ramr::app::SimulationConfig& sc = config.sim;

  // amr: cluster the run's own tags, exactly as a regrid would see them.
  ramr::amr::GriddingParams gp;
  gp.cluster.efficiency = sc.cluster_efficiency;
  gp.cluster.min_size = sc.min_patch_size;
  gp.cluster.max_box_cells = sc.max_patch_cells * 16;
  gp.tag_buffer = sc.tag_buffer;
  ramr::amr::GriddingAlgorithm gridding(gp, sim.problem(),
                                        ramr::xfer::RefineAlgorithm{}, nullptr,
                                        sim.context());
  std::vector<ramr::amr::TagBitmap> tags;
  const int top = std::min(h.num_levels() - 1, h.max_levels() - 2);
  for (int l = 0; l <= top; ++l) {
    tags.push_back(gridding.collect_tags(h, l, sim.time()));
    tags.back().buffer(gp.tag_buffer);
  }
  std::vector<double> cluster;
  std::int64_t tagged = 0;
  std::int64_t boxed = 0;
  for (int rep = 0; rep < kTimedReps; ++rep) {
    const double w0 = wall_now();
    std::int64_t box_cells = 0;
    for (std::size_t l = 0; l < tags.size(); ++l) {
      const std::vector<ramr::mesh::Box> boxes = ramr::amr::berger_rigoutsos(
          tags[l], h.level(static_cast<int>(l)).domain_box(), gp.cluster);
      for (const ramr::mesh::Box& b : boxes) box_cells += b.size();
    }
    cluster.push_back(wall_now() - w0);
    boxed = box_cells;
  }
  for (const ramr::amr::TagBitmap& tb : tags) tagged += tb.count_tags();
  t.cluster_s = median(cluster);
  t.cluster_efficiency = ratio(static_cast<double>(tagged),
                               static_cast<double>(boxed));

  // xfer: rebuild every communication schedule of the current hierarchy.
  std::vector<double> build;
  for (int rep = 0; rep < kTimedReps; ++rep) {
    const double w0 = wall_now();
    sim.integrator().rebuild_schedules();
    build.push_back(wall_now() - w0);
  }
  t.schedule_build_s = median(build);

  // simmpi: one scalar allreduce.
  if (comm != nullptr) {
    constexpr int kCalls = 50;
    std::vector<double> per_call;
    double sink = 0.0;
    for (int rep = 0; rep < kTimedReps; ++rep) {
      const double w0 = wall_now();
      for (int i = 0; i < kCalls; ++i) {
        sink += comm->allreduce(1.0, ramr::simmpi::ReduceOp::kSum);
      }
      per_call.push_back((wall_now() - w0) / kCalls);
    }
    t.allreduce_s = median(per_call);
    RAMR_REQUIRE(sink == static_cast<double>(kTimedReps * kCalls * comm->size()),
                 "allreduce returned a wrong sum");
  }

  // pdat: checkpoint write and restore (into a fresh instance).
  if (!checkpoint_path.empty()) {
    std::vector<double> write;
    std::vector<double> restore;
    for (int rep = 0; rep < kTimedReps; ++rep) {
      const double w0 = wall_now();
      sim.save_checkpoint(checkpoint_path);
      write.push_back(wall_now() - w0);
      Simulation fresh(sc, comm);
      const double r0 = wall_now();
      fresh.restore_checkpoint(checkpoint_path);
      restore.push_back(wall_now() - r0);
      RAMR_REQUIRE(bits(fresh.time()) == bits(sim.time()) &&
                       fresh.step_count() == sim.step_count(),
                   "restored checkpoint does not reproduce time and step");
    }
    t.checkpoint_write_s = median(write);
    t.checkpoint_restore_s = median(restore);
  }
  return t;
}

// ---------------------------------------------------------------------------
// Metric report.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
  bool end_to_end = false;
};

class Report {
 public:
  void e2e(std::string name, double v, std::string unit, std::string note = "") {
    metrics_.push_back({std::move(name), v, std::move(unit), std::move(note), true});
  }
  void layer(std::string name, double v, std::string unit, std::string note = "") {
    metrics_.push_back({std::move(name), v, std::move(unit), std::move(note), false});
  }

  void print_table() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-36s %-14.6g %-8s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
  }

  /// The result line: end-to-end metrics untraced, per-layer traced.
  std::string result_json(bool correct, std::int64_t attempted,
                          std::int64_t failed, bool per_layer) const {
    std::string s = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : metrics_) {
      if (m.end_to_end == per_layer) continue;
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
      s += std::string(first ? "" : ", ") + "\"" + m.name +
           "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
    return s + "}}";
  }

 private:
  std::vector<Metric> metrics_;
};

std::string n_of(std::size_t n) { return "(n=" + std::to_string(n) + ")"; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

constexpr double kMB = 1024.0 * 1024.0;

/// Per-layer metrics every workload shares: hydro, xfer, simmpi, app,
/// amr and vgpu from the modeled counters of the stepping phase and the
/// traced host spans. `steps` is the number of (job) steps covered.
void report_common_layers(Report& rep, const ModeledCounters& m, double steps,
                          const HostSpans& spans, const TimedCalls& calls,
                          double step_cpu_untraced, double step_cpu_traced) {
  using Tag = vgpu::LaunchTag;
  const auto launches = [&](Tag t) {
    return m.launches[static_cast<std::size_t>(t)];
  };
  const double tsteps = static_cast<double>(spans.steps);
  const double total_launches = m.total_launches();

  rep.layer("amr.host_regrid_s", ratio(spans.inclusive("regrid"), tsteps), "s",
            "host wall per step inside `regrid` scopes");
  rep.layer("amr.host_cluster_s", calls.cluster_s, "s",
            "berger_rigoutsos over the run's own tags, all tag levels");
  rep.layer("amr.modeled_regrid_s_per_step", ratio(m.component("regrid"), steps),
            "s");
  rep.layer("amr.regrids", m.regrids, "count");
  rep.layer("amr.cells_tagged", m.cells_tagged, "count");
  rep.layer("amr.cluster_efficiency", calls.cluster_efficiency, "ratio",
            "tagged cells / cells in returned boxes");
  rep.layer("amr.load_imbalance", m.load_imbalance, "ratio", "max/mean cells");

  // Hydro host time: stage and window self time, plus the step time no
  // scope covers (the unannotated advection sweeps of advance()).
  const double outside = std::max(0.0, spans.step_seconds - spans.top_level);
  rep.layer("hydro.host_s_per_step",
            ratio(spans.self_prefix("stage:") + spans.self_prefix("window:") +
                      outside,
                  tsteps),
            "s");
  rep.layer("hydro.modeled_s_per_step", ratio(m.component("hydro"), steps), "s");
  rep.layer("hydro.modeled_timestep_s_per_step",
            ratio(m.component("timestep"), steps), "s");
  rep.layer("hydro.launches_per_step",
            ratio(launches(Tag::kHydro) + launches(Tag::kRind), steps), "count");

  rep.layer("xfer.host_pack_s", ratio(spans.self("xfer:pack"), tsteps), "s");
  rep.layer("xfer.host_unpack_s", ratio(spans.self("xfer:unpack"), tsteps), "s");
  rep.layer("xfer.host_wire_s", ratio(spans.self("xfer:wire"), tsteps), "s");
  rep.layer("xfer.host_local_s", ratio(spans.self("xfer:local"), tsteps), "s");
  rep.layer("xfer.host_schedule_build_s", calls.schedule_build_s, "s");
  rep.layer("xfer.modeled_boundary_s_per_step",
            ratio(m.component("boundary"), steps), "s");
  rep.layer("xfer.messages_per_fill", ratio(m.messages_sent, m.halo_fills),
            "count");
  rep.layer("xfer.bytes_per_step", ratio(m.bytes_sent, steps), "B");
  rep.layer("xfer.plan_fallbacks", m.plan_fallbacks, "count", "expected 0");
  double comm = 0.0;
  double saved = 0.0;
  for (std::size_t w = 0; w < m.window_comm.size(); ++w) {
    comm += m.window_comm[w];
    saved += m.window_saved[w];
  }
  rep.layer("xfer.hidden_frac", ratio(saved, comm), "ratio");
  for (std::size_t w = 0; w < m.window_comm.size(); ++w) {
    rep.layer(std::string("xfer.hidden_frac.") +
                  ramr::app::TransferCounters::window_name(static_cast<int>(w)),
              ratio(m.window_saved[w], m.window_comm[w]), "ratio");
  }

  rep.layer("simmpi.messages_per_step", ratio(m.p2p_messages, steps), "count");
  rep.layer("simmpi.bytes_per_step", ratio(m.p2p_bytes, steps), "B");
  rep.layer("simmpi.imbalance_idle_s_per_step", ratio(m.imbalance_idle, steps),
            "s");
  rep.layer("simmpi.host_allreduce_s", calls.allreduce_s, "s");

  rep.layer("app.host_sync_s_per_step", ratio(spans.inclusive("sync"), tsteps),
            "s");
  rep.layer("app.modeled_sync_s_per_step", ratio(m.component("sync"), steps),
            "s");

  rep.layer("vgpu.launches_per_step", ratio(total_launches, steps), "count");
  static constexpr std::array<const char*, vgpu::kLaunchTagCount> kTagNames = {
      "other", "hydro", "transfer_pack", "transfer_unpack", "local_copy",
      "regrid", "rind"};
  for (int t = 0; t < vgpu::kLaunchTagCount; ++t) {
    rep.layer(std::string("vgpu.launch_share.") + kTagNames[static_cast<std::size_t>(t)],
              ratio(m.launches[static_cast<std::size_t>(t)], total_launches),
              "ratio");
  }
  rep.layer("vgpu.kernel_busy_frac", ratio(m.kernel_seconds, m.modeled), "ratio",
            "kernel seconds / modeled seconds");
  rep.layer("vgpu.pcie_bytes_per_step", ratio(m.pcie_bytes, steps), "B");

  rep.layer("obs.trace_overhead_frac",
            ratio(step_cpu_traced, step_cpu_untraced) - 1.0, "ratio",
            "traced / untraced host CPU per step - 1");
}

void report_no_service(Report& rep) {
  static constexpr std::array<std::pair<const char*, const char*>, 10> kUnused = {{
      {"svc.host_round_s_p50", "s"},
      {"svc.launches", "count"},
      {"svc.fusion_seconds_saved", "s"},
      {"svc.retries", "count"},
      {"svc.recoveries", "count"},
      {"svc.checkpoint_fallbacks", "count"},
      {"svc.backoff_modeled_s", "s"},
      {"pdat.checkpoint_bytes", "B"},
      {"pdat.host_checkpoint_write_s", "s"},
      {"pdat.host_checkpoint_restore_s", "s"},
  }};
  for (const auto& [name, unit] : kUnused) {
    rep.layer(name, 0.0, unit, "not exercised by this workload");
  }
}

/// Wall-clock medians: printed and recorded, never gated (on a shared
/// host they move with other tenants' load; CPU seconds do not).
void report_wall(Report& rep, const std::vector<double>& step_wall,
                 const std::vector<double>& setup_wall) {
  rep.layer("host_wall_s_per_step_p50", median(step_wall), "s",
            n_of(step_wall.size()) + ", ungated");
  rep.layer("setup_wall_s", median(setup_wall), "s",
            n_of(setup_wall.size()) + ", ungated");
}

/// The share of `regrid` steps, for the p90 placement note.
std::string regrid_note(std::size_t regrid_steps, std::size_t steps) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "(n=%zu, %zu regrid steps = %.0f%%)", steps,
                regrid_steps, 100.0 * ratio(static_cast<double>(regrid_steps),
                                            static_cast<double>(steps)));
  return buf;
}

/// Repeats `run(traced)` while --seconds last. Under --trace 1 untraced
/// and traced repetitions alternate and at least one of each runs;
/// otherwise at least two untraced ones run.
template <typename R, typename Fn>
void repeat_for(const Args& args, std::vector<R>& untraced,
                std::vector<R>& traced, Fn&& run) {
  const double start = wall_now();
  double longest = 0.0;
  const std::size_t min_untraced = args.trace ? 1 : 2;
  for (int e = 0;; ++e) {
    const bool trace_this = args.trace && (e % 2 == 1);
    const double e0 = wall_now();
    R r = run(trace_this);
    longest = std::max(longest, wall_now() - e0);
    (trace_this ? traced : untraced).push_back(std::move(r));
    const bool enough =
        untraced.size() >= min_untraced && (!args.trace || !traced.empty());
    if (enough && wall_now() - start + longest > args.seconds) break;
  }
}

// ---------------------------------------------------------------------------
// Stepping workloads (amr_regrid, halo_overlap).

/// What an episode runs: set-up only, the untraced steps, the traced
/// steps, or the traced steps followed by the timed public calls.
enum class Mode { kSetupOnly, kUntraced, kTraced, kProbe };

struct Episode {
  double setup_wall = 0.0;
  double setup_cpu = 0.0;
  double job_cpu = 0.0;  ///< setup + all steps, process CPU
  std::vector<double> step_cpu;
  std::vector<double> step_wall;
  std::size_t regrid_steps = 0;
  double cell_steps = 0.0;
  int steps = 0;
  double modeled_job = 0.0;    ///< slowest rank, initialize included
  ModeledCounters modeled;     ///< stepping phase, combined over ranks
  double device_peak = 0.0;    ///< max over ranks
  FinalState final_state;
  HostSpans spans;             ///< traced episodes only
  TimedCalls calls;            ///< traced episodes with timed calls only
  bool self_time_ok = true;
};

Episode run_episode(const SteppingWorkload& w, int steps, Mode mode) {
  const bool traced = mode == Mode::kTraced || mode == Mode::kProbe;
  Episode ep;
  const int ranks = w.ranks;
  std::barrier<> sync(ranks);
  std::vector<ModeledCounters> rank_delta(static_cast<std::size_t>(ranks));
  std::vector<double> rank_job_modeled(static_cast<std::size_t>(ranks));
  std::vector<double> rank_peak(static_cast<std::size_t>(ranks));
  std::vector<std::vector<std::uint64_t>> rank_digest(static_cast<std::size_t>(ranks));
  std::vector<HostSpans> rank_spans(static_cast<std::size_t>(ranks));
  std::vector<TimedCalls> rank_calls(static_cast<std::size_t>(ranks));
  ramr::hydro::FieldSummary totals;
  int levels = 0;
  double final_time = 0.0;
  double cpu_end = 0.0;

  const double cpu0 = cpu_now();
  const double wall0 = wall_now();
  const ramr::cfg::RunConfig config =
      ramr::cfg::parse_run_config_text(w.config_text(steps));
  run_ranks(ranks, config.network, [&](int rank, Communicator* comm) {
    const auto r = static_cast<std::size_t>(rank);
    Simulation sim(config.sim, comm);
    sim.initialize();
    sync.arrive_and_wait();
    if (rank == 0) {
      ep.setup_wall = wall_now() - wall0;
      ep.setup_cpu = cpu_now() - cpu0;
    }
    if (mode == Mode::kSetupOnly) {
      return;
    }
    const ModeledCounters before = snapshot_sim(sim, comm);
    double own_step_wall = 0.0;
    {
      std::unique_ptr<ScopeTimer> timer;
      if (traced) {
        timer = std::make_unique<ScopeTimer>(sim.clock(), /*per_scope=*/true);
      }
      for (int s = 0; s < config.run.max_steps; ++s) {
        sync.arrive_and_wait();
        const double c0 = cpu_now();
        const double w0 = wall_now();
        const double cells = static_cast<double>(sim.hierarchy().total_cells());
        sim.step();
        own_step_wall += wall_now() - w0;
        sync.arrive_and_wait();
        if (rank == 0) {
          ep.step_cpu.push_back(cpu_now() - c0);
          ep.step_wall.push_back(wall_now() - w0);
          ep.cell_steps += cells;
          if (sim.step_count() % config.sim.regrid_interval == 0) {
            ++ep.regrid_steps;
          }
        }
      }
      if (rank == 0) {
        cpu_end = cpu_now();
      }
      if (timer != nullptr) {
        rank_spans[r] = HostSpans(*timer, own_step_wall, config.run.max_steps);
        // Disjoint top-level scopes inside the steps: their self times
        // can never add up to more than the steps themselves.
        if (rank_spans[r].self_sum() > own_step_wall * (1.0 + 1e-9)) {
          ep.self_time_ok = false;
        }
      }
    }
    // Modeled numbers are read before anything below charges the clock.
    rank_delta[r] = delta(snapshot_sim(sim, comm), before);
    rank_job_modeled[r] = sim.modeled_seconds();
    rank_peak[r] = static_cast<double>(sim.device().peak_bytes_allocated());
    rank_digest[r] = rank_digests(sim);
    const ramr::hydro::FieldSummary t = sim.composite_summary();
    if (rank == 0) {
      totals = t;
      levels = sim.hierarchy().num_levels();
      final_time = sim.time();
      ep.steps = sim.step_count();
    }
    sync.arrive_and_wait();
    if (mode == Mode::kProbe) {
      rank_calls[r] = timed_calls(sim, comm, config, "");
    }
  });

  if (mode == Mode::kSetupOnly) {
    return ep;
  }
  ep.job_cpu = cpu_end - cpu0;
  ep.modeled = combine_ranks(rank_delta);
  ep.modeled_job = *std::max_element(rank_job_modeled.begin(), rank_job_modeled.end());
  ep.device_peak = *std::max_element(rank_peak.begin(), rank_peak.end());
  ep.final_state = fold_final_state(rank_digest, levels, final_time, ep.steps, totals);
  ep.calls = rank_calls[0];
  for (const HostSpans& s : rank_spans) {
    ep.spans.merge(s, 1.0 / ranks);
  }
  ep.spans.steps = traced ? steps : 0;
  return ep;
}

int run_stepping(const Args& args, const SteppingWorkload& w, const Json& refs) {
  const int steps = episode_steps(w, args.seed);
  std::printf("workload %s: %s; %d steps per episode (seed %llu draws the "
              "episode length only: %d + seed %% %d)\n",
              args.workload.c_str(), w.shape, steps,
              static_cast<unsigned long long>(args.seed), w.base_steps,
              kStepVariants);

  if (args.record) {
    Json out = Json::make_object();
    for (int v = 0; v < kStepVariants; ++v) {
      const Episode ep = run_episode(w, w.base_steps + v, Mode::kUntraced);
      out.set(std::to_string(w.base_steps + v), final_state_json(ep.final_state));
    }
    Json doc = Json::make_object();
    doc.set(args.workload, std::move(out));
    std::printf("%s\n", doc.dump().c_str());
    return 0;
  }

  Checker check;
  const Json* wref = refs.find(args.workload);
  const Json* ref = wref != nullptr ? wref->find(std::to_string(steps)) : nullptr;
  bool totals_bitwise = true;

  std::vector<Episode> untraced;
  std::vector<Episode> traced;
  repeat_for(args, untraced, traced, [&](bool trace_this) {
    Episode ep = run_episode(w, steps, trace_this ? Mode::kTraced : Mode::kUntraced);
    check.final_state(ep.final_state, ref,
                      std::string(trace_this ? "traced" : "untraced") + " episode",
                      &totals_bitwise);
    return ep;
  });

  // Modeled numbers repeat bitwise across episodes, traced or not.
  const Episode& first = untraced.front();
  for (const std::vector<Episode>* set : {&untraced, &traced}) {
    for (const Episode& ep : *set) {
      check.expect(ep.modeled.bit_pattern() == first.modeled.bit_pattern() &&
                       bits(ep.modeled_job) == bits(first.modeled_job) &&
                       ep.device_peak == first.device_peak,
                   "modeled metrics differ between episodes (traced or not)");
      check.expect(ep.self_time_ok,
                   "per-scope self times exceed the traced step time");
    }
  }

  // Pool every untraced step into one sample.
  std::vector<double> step_cpu;
  std::vector<double> step_wall;
  std::vector<double> setup_cpu;
  std::vector<double> setup_wall;
  std::size_t regrid_steps = 0;
  double cell_steps = 0.0;
  double job_cpu = 0.0;
  for (const Episode& ep : untraced) {
    step_cpu.insert(step_cpu.end(), ep.step_cpu.begin(), ep.step_cpu.end());
    step_wall.insert(step_wall.end(), ep.step_wall.begin(), ep.step_wall.end());
    setup_cpu.push_back(ep.setup_cpu);
    setup_wall.push_back(ep.setup_wall);
    regrid_steps += ep.regrid_steps;
    cell_steps += ep.cell_steps;
    job_cpu += ep.job_cpu;
  }
  while (setup_cpu.size() < kSetupSamples) {
    const Episode ep = run_episode(w, steps, Mode::kSetupOnly);
    setup_cpu.push_back(ep.setup_cpu);
    setup_wall.push_back(ep.setup_wall);
  }
  double step_cpu_sum = 0.0;
  for (double c : step_cpu) step_cpu_sum += c;

  Report rep;
  rep.e2e("setup_s", median(setup_cpu), "s",
          "process CPU, median of " + std::to_string(setup_cpu.size()) + " set-ups");
  rep.e2e("host_cpu_s_per_step_p50", median(step_cpu), "s", n_of(step_cpu.size()));
  rep.e2e("host_cpu_s_per_step_p90", percentile(step_cpu, 0.9), "s",
          w.ranks == 1 ? regrid_note(regrid_steps, step_cpu.size())
                       : n_of(step_cpu.size()));
  rep.e2e("host_cpu_cell_steps_per_s", ratio(cell_steps, step_cpu_sum), "1/s",
          "all-level cell updates / CPU s");
  rep.e2e("modeled_s_per_step", ratio(first.modeled_job, steps), "s",
          "slowest rank, set-up included");
  rep.e2e("modeled_grind_s", ratio(first.modeled_job, first.cell_steps), "s",
          "modeled s per cell per step, set-up included");
  rep.e2e("device_peak_mb", first.device_peak / kMB, "MB", "max over ranks");
  rep.e2e("host_peak_rss_mb", peak_rss_mb(), "MB");
  rep.e2e("jobs_per_cpu_hour",
          ratio(3600.0 * static_cast<double>(untraced.size()), job_cpu), "1/h",
          "job = one episode, set-up included");
  rep.e2e("jobs_per_modeled_hour", ratio(3600.0, first.modeled_job), "1/h");
  report_wall(rep, step_wall, setup_wall);

  if (args.trace) {
    // Timed public calls on one more traced episode, after its modeled
    // numbers were read.
    traced.push_back(run_episode(w, steps, Mode::kProbe));
    check.final_state(traced.back().final_state, ref, "probe episode",
                      &totals_bitwise);
    check.expect(traced.back().modeled.bit_pattern() == first.modeled.bit_pattern(),
                 "modeled metrics of the probe episode differ");
    HostSpans spans;
    std::vector<double> traced_cpu;
    for (const Episode& ep : traced) {
      spans.merge(ep.spans);
      traced_cpu.insert(traced_cpu.end(), ep.step_cpu.begin(), ep.step_cpu.end());
    }
    report_common_layers(rep, first.modeled, steps, spans, traced.back().calls,
                         median(step_cpu), median(traced_cpu));
    report_no_service(rep);
    std::printf("traced host self time per step, by scope (mean over ranks, "
                "%lld traced steps):\n",
                static_cast<long long>(spans.steps));
    for (const auto& [name, tot] : spans.scopes) {
      std::printf("  %-20s self %.6f s  inclusive %.6f s  (%lld scopes)\n",
                  name.c_str(), ratio(tot.self, static_cast<double>(spans.steps)),
                  ratio(tot.inclusive, static_cast<double>(spans.steps)),
                  static_cast<long long>(tot.count));
    }
    std::printf("  %-20s %.6f s (traced step time %.6f s)\n", "sum of self",
                ratio(spans.self_sum(), static_cast<double>(spans.steps)),
                ratio(spans.step_seconds, static_cast<double>(spans.steps)));
  }

  const std::int64_t attempted =
      static_cast<std::int64_t>(untraced.size() + traced.size()) * steps;
  std::printf("episodes: %zu untraced, %zu traced; ops_failed_frac 0 (0 of "
              "%lld steps attempted)\n",
              untraced.size(), traced.size(), static_cast<long long>(attempted));
  std::printf("conservation totals %s the reference bitwise (checked to 1e-10 "
              "relative; their last bits depend on reduction order)\n",
              totals_bitwise ? "repeated" : "did NOT repeat");
  rep.print_table();
  std::printf("%s\n", rep.result_json(check.ok(), attempted, 0, args.trace).c_str());
  return check.ok() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// service_batch

struct Batch {
  double setup_wall = 0.0;
  double setup_cpu = 0.0;
  double cpu = 0.0;       ///< setup + run, process CPU
  double run_wall = 0.0;
  std::vector<double> step_cpu;   ///< per job step, from server rounds
  std::vector<double> step_wall;
  std::int64_t job_steps = 0;
  double cell_steps = 0.0;
  int jobs_failed = 0;
  double modeled = 0.0;
  double device_peak = 0.0;
  ModeledCounters counters;  ///< server device + summed job reports
  double fusion_saved = 0.0;
  double launches = 0.0;
  double retries = 0.0;
  double recoveries = 0.0;
  double fallbacks = 0.0;
  double backoff = 0.0;
  double checkpoint_bytes = 0.0;
  HostSpans spans;
};

double json_number(const Json& j, std::initializer_list<const char*> path) {
  const Json* v = &j;
  for (const char* key : path) {
    v = v->find(key);
    if (v == nullptr) return 0.0;
  }
  return v->as_number();
}

/// Set-up of one batch: construct the server, parse and submit every job.
std::unique_ptr<ramr::svc::SimulationServer> set_up_server(
    const std::vector<ServiceJob>& jobs, const fs::path& dir) {
  ramr::svc::ServerConfig sc;
  sc.max_concurrent_jobs = kServiceConcurrency;
  sc.output_dir = dir.string();
  auto server = std::make_unique<ramr::svc::SimulationServer>(sc);
  for (const ServiceJob& j : jobs) {
    server->submit({j.name, ramr::cfg::parse_run_config_text(j.text), {}});
  }
  return server;
}

Batch run_batch(const std::vector<ServiceJob>& jobs, const fs::path& dir,
                bool traced, Checker& check, const Json* refs, bool* totals_bitwise,
                Json* record) {
  Batch b;
  fs::remove_all(dir);
  fs::create_directories(dir);
  const double cpu0 = cpu_now();
  const double wall0 = wall_now();
  const std::unique_ptr<ramr::svc::SimulationServer> owned = set_up_server(jobs, dir);
  ramr::svc::SimulationServer& server = *owned;
  b.setup_wall = wall_now() - wall0;
  b.setup_cpu = cpu_now() - cpu0;
  {
    ScopeTimer timer(server.clock(), traced);
    const double r0 = wall_now();
    server.run();
    b.run_wall = wall_now() - r0;
    for (const ScopeTimer::Round& r : timer.rounds()) {
      if (r.steps == 0) continue;
      for (int s = 0; s < r.steps; ++s) {
        b.step_cpu.push_back(r.cpu / r.steps);
        b.step_wall.push_back(r.wall / r.steps);
      }
    }
    if (traced) {
      b.spans = HostSpans(timer, b.run_wall, 0);
    }
  }
  b.cpu = cpu_now() - cpu0;

  b.modeled = server.clock().total();
  b.device_peak = static_cast<double>(server.device().peak_bytes_allocated());
  snapshot_device(server.device(), server.clock(), &b.counters);
  b.counters.modeled = b.modeled;
  const vgpu::FusionStats& fstats = server.device().fusion_stats();
  b.fusion_saved = fstats.serial_seconds - fstats.fused_seconds;
  b.launches = static_cast<double>(server.device().launch_count());

  for (int id = 0; id < server.queue().size(); ++id) {
    const ramr::svc::JobStatus st = server.status(id);
    const ServiceJob& job = jobs[static_cast<std::size_t>(id)];
    if (st.state == ramr::svc::JobState::kFailed ||
        st.state == ramr::svc::JobState::kQuarantined) {
      ++b.jobs_failed;
    }
    b.job_steps += st.steps;
    b.cell_steps += json_number(st.metrics, {"hierarchy", "cells"}) * st.steps;
    b.retries += st.retry_count;
    b.recoveries += st.recoveries;
    b.fallbacks += st.checkpoint_fallbacks;
    b.backoff += st.backoff_seconds;
    ModeledCounters& c = b.counters;
    c.halo_fills += json_number(st.metrics, {"transfer", "halo_fills"});
    c.messages_sent += json_number(st.metrics, {"transfer", "messages_sent"});
    c.bytes_sent += json_number(st.metrics, {"transfer", "bytes_sent"});
    c.plan_fallbacks += json_number(st.metrics, {"transfer", "plan_fallbacks"});
    c.regrids += json_number(st.metrics, {"gridding", "regrids"});
    c.cells_tagged += json_number(st.metrics, {"gridding", "cells_tagged"});

    const ramr::hydro::FieldSummary totals{
        json_number(st.metrics, {"summary", "mass"}),
        json_number(st.metrics, {"summary", "internal_energy"}),
        json_number(st.metrics, {"summary", "kinetic_energy"})};
    if (record != nullptr) {
      Json r = Json::make_object();
      r.set("steps", Json(st.steps));
      r.set("sim_time", Json(hex_double(st.sim_time)));
      r.set("totals", totals_json(totals));
      record->set(job.problem, std::move(r));
      continue;
    }
    const std::string where = "job " + job.name;
    check.expect(st.state == ramr::svc::JobState::kDone,
                 where + " ended " + ramr::svc::job_state_name(st.state) + " " +
                     st.error);
    const Json* ref = refs != nullptr ? refs->find(job.problem) : nullptr;
    if (ref == nullptr) {
      check.expect(false, where + ": no reference recorded");
      continue;
    }
    check.expect(st.steps == ref->find("steps")->as_integer(),
                 where + ": step count " + std::to_string(st.steps));
    check.expect(hex_double(st.sim_time) == ref->find("sim_time")->as_string(),
                 where + ": sim_time " + hex_double(st.sim_time) +
                     " vs reference " + ref->find("sim_time")->as_string());
    check.totals(totals, ref->find("totals"), where, totals_bitwise);
  }
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      b.checkpoint_bytes += static_cast<double>(entry.file_size());
    }
  }
  fs::remove_all(dir);
  return b;
}

int run_service(const Args& args, const Json& refs) {
  const fs::path dir = fs::path(args.workdir) / "service";
  std::printf("workload service_batch: %s; seed %llu draws the job mix, order "
              "and fault plans\n",
              kServiceShape, static_cast<unsigned long long>(args.seed));

  Checker check;
  bool totals_bitwise = true;
  if (args.record) {
    std::vector<ServiceJob> jobs;
    for (const ProblemGrid& p : kServiceProblems) {
      jobs.push_back({p.problem, p.problem, service_job_text(p, "", 0, 0)});
    }
    Json rec = Json::make_object();
    run_batch(jobs, dir, false, check, nullptr, &totals_bitwise, &rec);
    Json doc = Json::make_object();
    doc.set("service_batch", std::move(rec));
    std::printf("%s\n", doc.dump().c_str());
    return 0;
  }

  const std::vector<ServiceJob> jobs = service_jobs(args.seed);
  for (const ServiceJob& j : jobs) {
    std::printf("  job %s\n", j.text.c_str());
  }
  const Json* ref = refs.find("service_batch");

  std::vector<Batch> untraced;
  std::vector<Batch> traced;
  repeat_for(args, untraced, traced, [&](bool trace_this) {
    return run_batch(jobs, dir, trace_this, check, ref, &totals_bitwise, nullptr);
  });

  const Batch& first = untraced.front();
  for (const std::vector<Batch>* set : {&untraced, &traced}) {
    for (const Batch& b : *set) {
      check.expect(b.counters.bit_pattern() == first.counters.bit_pattern() &&
                       bits(b.modeled) == bits(first.modeled) &&
                       b.device_peak == first.device_peak &&
                       bits(b.fusion_saved) == bits(first.fusion_saved) &&
                       b.recoveries == first.recoveries,
                   "modeled service metrics differ between batches");
    }
  }
  check.expect(first.recoveries > 0, "no job recovered from a checkpoint");
  check.expect(first.fusion_saved > 0, "cross-job fusion saved no time");

  std::vector<double> step_cpu;
  std::vector<double> step_wall;
  std::vector<double> setup_cpu;
  std::vector<double> setup_wall;
  double cpu = 0.0;
  double run_cpu = 0.0;
  int jobs_failed = 0;
  for (const Batch& b : untraced) {
    step_cpu.insert(step_cpu.end(), b.step_cpu.begin(), b.step_cpu.end());
    step_wall.insert(step_wall.end(), b.step_wall.begin(), b.step_wall.end());
    setup_cpu.push_back(b.setup_cpu);
    setup_wall.push_back(b.setup_wall);
    cpu += b.cpu;
    for (double c : b.step_cpu) run_cpu += c;
    jobs_failed += b.jobs_failed;
  }
  for (const Batch& b : traced) jobs_failed += b.jobs_failed;
  const double n_batches = static_cast<double>(untraced.size());
  const double job_steps = static_cast<double>(first.job_steps);

  Report rep;
  // Set-up is sub-millisecond: time it often enough for a steady median.
  while (setup_cpu.size() < 3 * kSetupSamples) {
    const double c0 = cpu_now();
    const double w0 = wall_now();
    const auto server = set_up_server(jobs, dir);
    setup_wall.push_back(wall_now() - w0);
    setup_cpu.push_back(cpu_now() - c0);
  }
  rep.e2e("setup_s", median(setup_cpu), "s",
          "process CPU: server construct + parse/submit every job, median of " +
              std::to_string(setup_cpu.size()));
  rep.e2e("host_cpu_s_per_step_p50", median(step_cpu), "s",
          n_of(step_cpu.size()) + " job steps, server round / its steps");
  rep.e2e("host_cpu_s_per_step_p90", percentile(step_cpu, 0.9), "s",
          n_of(step_cpu.size()));
  rep.e2e("host_cpu_cell_steps_per_s",
          ratio(first.cell_steps * n_batches, run_cpu), "1/s",
          "job-end cells x steps / CPU s in rounds");
  rep.e2e("modeled_s_per_step", ratio(first.modeled, job_steps), "s",
          "shared device clock / job steps");
  rep.e2e("modeled_grind_s", ratio(first.modeled, first.cell_steps), "s");
  rep.e2e("device_peak_mb", first.device_peak / kMB, "MB");
  rep.e2e("host_peak_rss_mb", peak_rss_mb(), "MB");
  rep.e2e("jobs_per_cpu_hour", ratio(3600.0 * kServiceJobs * n_batches, cpu), "1/h",
          "set-up included");
  rep.e2e("jobs_per_modeled_hour", ratio(3600.0 * kServiceJobs, first.modeled),
          "1/h");
  report_wall(rep, step_wall, setup_wall);

  const auto submitted = static_cast<std::int64_t>(
      kServiceJobs * (untraced.size() + traced.size()));
  if (args.trace) {
    // Timed public calls on a standalone run of the first job's problem.
    const ProblemGrid* grid = nullptr;
    for (const ProblemGrid& p : kServiceProblems) {
      if (jobs.front().problem == p.problem) grid = &p;
    }
    const ramr::cfg::RunConfig probe_cfg =
        ramr::cfg::parse_run_config_text(service_job_text(*grid, "", 0, 0));
    Simulation probe(probe_cfg.sim, nullptr);
    probe.initialize();
    probe.run(probe_cfg.run.max_steps);
    fs::create_directories(dir);
    const TimedCalls calls =
        timed_calls(probe, nullptr, probe_cfg, (dir / "probe.ckpt").string());
    fs::remove_all(dir);

    HostSpans spans;
    std::vector<double> traced_cpu;
    for (const Batch& b : traced) {
      spans.merge(b.spans);
      spans.steps += b.job_steps;
      traced_cpu.insert(traced_cpu.end(), b.step_cpu.begin(), b.step_cpu.end());
      check.expect(b.spans.self_sum() <= b.run_wall * (1.0 + 1e-9),
                   "per-scope self times exceed the traced server run time");
    }
    // Server time outside any round is admission bookkeeping, not hydro.
    spans.step_seconds = spans.top_level;
    report_common_layers(rep, first.counters, job_steps, spans, calls,
                         median(step_cpu), median(traced_cpu));
    rep.layer("svc.host_round_s_p50", median(spans.round_wall), "s",
              n_of(spans.round_wall.size()) + " rounds");
    rep.layer("svc.launches", first.launches, "count", "per batch");
    rep.layer("svc.fusion_seconds_saved", first.fusion_saved, "s", "per batch");
    rep.layer("svc.retries", first.retries, "count", "per batch");
    rep.layer("svc.recoveries", first.recoveries, "count", "per batch");
    rep.layer("svc.checkpoint_fallbacks", first.fallbacks, "count", "per batch");
    rep.layer("svc.backoff_modeled_s", first.backoff, "s", "per batch");
    rep.layer("pdat.checkpoint_bytes", first.checkpoint_bytes, "B",
              "written per batch");
    rep.layer("pdat.host_checkpoint_write_s", calls.checkpoint_write_s, "s",
              "one job checkpoint");
    rep.layer("pdat.host_checkpoint_restore_s", calls.checkpoint_restore_s, "s",
              "one job checkpoint");
    std::printf("traced host self time per job step, by scope (%lld job "
                "steps):\n",
                static_cast<long long>(spans.steps));
    for (const auto& [name, tot] : spans.scopes) {
      std::printf("  %-20s self %.6f s  inclusive %.6f s  (%lld scopes)\n",
                  name.c_str(), ratio(tot.self, static_cast<double>(spans.steps)),
                  ratio(tot.inclusive, static_cast<double>(spans.steps)),
                  static_cast<long long>(tot.count));
    }
  }

  std::printf("batches: %zu untraced, %zu traced; ops_failed_frac %g (%d of "
              "%lld jobs submitted)\n",
              untraced.size(), traced.size(),
              ratio(jobs_failed, static_cast<double>(submitted)), jobs_failed,
              static_cast<long long>(submitted));
  std::printf("conservation totals %s the reference bitwise (checked to 1e-10 "
              "relative; their last bits depend on reduction order)\n",
              totals_bitwise ? "repeated" : "did NOT repeat");
  rep.print_table();
  std::printf("%s\n",
              rep.result_json(check.ok(), submitted, jobs_failed, args.trace).c_str());
  return check.ok() ? 0 : 1;
}

// ---------------------------------------------------------------------------

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      RAMR_REQUIRE(i + 1 < argc, arg << " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = next();
    } else if (arg == "--seed") {
      a.seed = std::stoull(next());
    } else if (arg == "--seconds") {
      a.seconds = std::stod(next());
    } else if (arg == "--trace") {
      a.trace = next() == "1";
    } else if (arg == "--workdir") {
      a.workdir = next();
    } else if (arg == "--references") {
      a.references = next();
    } else if (arg == "--git-sha") {
      a.git_sha = next();
    } else if (arg == "--record") {
      a.record = true;
    } else {
      RAMR_FAIL("unknown argument " << arg);
    }
  }
  RAMR_REQUIRE(!a.workdir.empty(), "--workdir is required");
  RAMR_REQUIRE(a.record || !a.references.empty(), "--references is required");
  return a;
}

Json load_references(const std::string& path) {
  if (path.empty()) return Json::make_object();
  std::ifstream in(path);
  RAMR_REQUIRE(in.good(), "cannot open references " << path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return Json::parse(ss.str());
}

double load_average_1m() {
  double load = -1.0;
  if (FILE* f = std::fopen("/proc/loadavg", "r")) {
    if (std::fscanf(f, "%lf", &load) != 1) load = -1.0;
    std::fclose(f);
  }
  return load;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    ramr::util::Logger::instance().set_level(ramr::util::LogLevel::kWarn);
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    sched_getaffinity(0, sizeof allowed, &allowed);
    std::printf("# provenance {\"build_type\": \"%s\", \"git_sha\": \"%s\", "
                "\"nproc\": %d, \"hardware_concurrency\": %u, "
                "\"pool_workers\": %u, \"loadavg_1m\": %.2f, "
                "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                "\"trace\": %d}\n",
                RAMR_BENCH_BUILD_TYPE, args.git_sha.c_str(), CPU_COUNT(&allowed),
                std::thread::hardware_concurrency(),
                ramr::util::ThreadPool::global().worker_count(),
                load_average_1m(), args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    const Json refs = load_references(args.references);
    fs::create_directories(args.workdir);
    int rc = 2;
    if (const SteppingWorkload* w = stepping_workload(args.workload)) {
      rc = run_stepping(args, *w, refs);
    } else if (args.workload == "service_batch") {
      rc = run_service(args, refs);
    } else {
      std::fprintf(stderr, "unknown workload \"%s\"\n", args.workload.c_str());
    }
    fs::remove_all(args.workdir);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "twoclock: %s\n", e.what());
    return 1;
  }
}
