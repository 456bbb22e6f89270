// Figure 11: weak-scaling performance on Titan — triple-point shock
// interaction, 1 to 4,096 nodes (one K20x each), per-node work held
// constant, grind time (seconds per cell per step) split into the
// paper's components: Total, Hydrodynamics (kernels + boundary
// exchange), Synchronisation, Regridding; plus the timestep (global
// reduction) fraction quoted in the text.
//
// Method: node counts up to a cap (default 16, RAMR_WEAK_CAP to change)
// run for real as threaded ranks with the Gemini wire model; larger node
// counts extend the measured per-rank components analytically — hydro /
// boundary / sync stay constant per node (nearest-neighbour halos), the
// dt allreduce and the regrid tag gather grow with the log2(P) tree
// terms. Extrapolated rows are marked "(model)".
//
// Paper text anchors: at 1 node ~59% of runtime advances the simulation,
// <1% computes dt, ~1% synchronises; at 4,096 nodes 44% advances, 6%
// computes dt, 3% synchronises.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <vector>

#include "app/simulation.hpp"
#include "perf/machine.hpp"
#include "perf/report.hpp"

namespace {

struct Components {
  double hydro = 0.0;     // kernels
  double boundary = 0.0;  // halo exchange
  double timestep = 0.0;  // dt kernels + allreduce
  double sync = 0.0;
  double regrid = 0.0;
  /// Cross-rank load imbalance (max/mean local cells) of the last level
  /// build — a partition quality, not a time, so it stays out of total().
  double imbalance = 1.0;
  double total() const { return hydro + boundary + timestep + sync + regrid; }
};

constexpr int kTile = 160;  // per-node coarse tile edge
constexpr int kSteps = 10;   // measured steps per run

/// Per-node coarse tile arrangement: a x b tiles with a*b = nodes.
void tiles(int nodes, int& a, int& b) {
  a = 1;
  b = nodes;
  for (int c = 1; c * c <= nodes; ++c) {
    if (nodes % c == 0) {
      a = c;
      b = nodes / c;
    }
  }
  if (a < b) {
    std::swap(a, b);  // wider than tall, like the 7:3 triple point
  }
}

/// Slowest rank's sync-vs-overlap step times of one real configuration.
struct StepTimes {
  double sync_s = 0.0;   ///< synchronous modeled seconds / step
  double async_s = 0.0;  ///< async-overlap comparable seconds / step
  double saved_s = 0.0;  ///< slowest async rank's overlap saving / step
};

/// Real distributed run; returns the slowest rank's per-step components
/// and the cells advanced per step. With `async` the run executes under
/// the timeline model (split-phase state exchange, network-lane wire
/// legs) and `step_out`/`saved_out` record the slowest rank's
/// comparable step time and overlap saving.
Components run_real(int nodes, const ramr::perf::Machine& m,
                    std::int64_t& cells_out, bool async = false,
                    double* step_out = nullptr, double* saved_out = nullptr) {
  int a = 1;
  int b = 1;
  tiles(nodes, a, b);
  ramr::app::SimulationConfig cfg;
  cfg.problem = "triple_point";
  cfg.nx = kTile * a;
  cfg.ny = kTile * b;
  cfg.max_levels = 3;
  cfg.ratio = 2;
  cfg.regrid_interval = 10;
  cfg.max_patch_cells = 96 * 96;
  cfg.min_patch_size = 8;
  cfg.device = m.gpu_spec;
  cfg.device.mem_bytes = 64ull << 30;
  cfg.async_overlap = async;

  std::mutex mu;
  Components worst;
  double worst_step = 0.0;
  double worst_saved = 0.0;
  std::int64_t cells = 0;
  ramr::simmpi::World world(nodes, m.network);
  world.run([&](ramr::simmpi::Communicator& comm) {
    ramr::app::Simulation sim(cfg, &comm);
    sim.initialize();
    sim.clock().reset();
    sim.run(kSteps);
    Components c;
    c.hydro = sim.clock().component("hydro") / kSteps;
    c.boundary = sim.clock().component("boundary") / kSteps;
    c.timestep = sim.clock().component("timestep") / kSteps;
    c.sync = sim.clock().component("sync") / kSteps;
    c.regrid = sim.clock().component("regrid") / kSteps;
    const auto& imbal = sim.gridding_stats().imbalance_history;
    c.imbalance = imbal.empty() ? 1.0 : imbal.back();
    const double step = sim.modeled_seconds() / kSteps;
    const ramr::vgpu::Timeline& tl = *sim.timeline();
    const double saved =
        tl.named_lanes() ? tl.overlap_seconds_saved() / kSteps : 0.0;
    const std::int64_t total_cells = sim.hierarchy().total_cells();
    std::lock_guard<std::mutex> lock(mu);
    if (c.total() > worst.total()) {
      worst = c;
    }
    if (step > worst_step) {
      worst_step = step;
      worst_saved = saved;
    }
    cells = total_cells;
  });
  cells_out = cells;
  if (step_out != nullptr) {
    *step_out = worst_step;
  }
  if (saved_out != nullptr) {
    *saved_out = worst_saved;
  }
  return worst;
}

/// Extends measured per-rank components from `base_nodes` to `nodes`:
/// per-node terms stay constant; tree collectives deepen with log2.
Components extrapolate(const Components& base, int base_nodes, int nodes,
                       const ramr::perf::Machine& m,
                       std::int64_t tag_bytes_per_rank) {
  Components c = base;
  const double depth_base = std::ceil(std::log2(static_cast<double>(base_nodes)));
  const double depth = std::ceil(std::log2(static_cast<double>(nodes)));
  const double extra_depth = depth - depth_base;
  // dt allreduce: one per step, 2*log2(P) message latencies.
  c.timestep += 2.0 * extra_depth * m.network.message_time(sizeof(double));
  // Regrid, amortised per step over the regrid interval:
  //  (a) the tag gather-broadcast tree over the compressed payload;
  //  (b) a fitted 0.35 per tree level on the rest of the measured regrid
  //      cost. Its terms grow differently: the box-tree schedule queries
  //      deepen with log2 of the global patch count, the trees' builds
  //      grow as N log N over the replicated metadata, and clustering
  //      charges passes over the whole domain's gathered tag bitmap,
  //      which grows with the node count itself.
  c.regrid += 2.0 * extra_depth * m.network.message_time(
                  static_cast<std::uint64_t>(tag_bytes_per_rank)) / 10.0;
  c.regrid *= 1.0 + 0.35 * extra_depth;
  return c;
}

}  // namespace

int main() {
  const ramr::perf::Machine m = ramr::perf::titan();
  int cap = 16;
  if (const char* env = std::getenv("RAMR_WEAK_CAP")) {
    cap = std::atoi(env);
  }
  std::printf(
      "Figure 11: weak scaling on Titan, triple point, 3 levels, r=2\n"
      "grind time (s/cell/step) per component; per-node coarse tile "
      "%dx%d\n"
      "node counts above %d are analytic extensions of the largest real "
      "run\n\n",
      kTile, kTile, cap);

  ramr::perf::Table t({8, 12, 12, 12, 12, 12, 12, 8});
  t.header({"nodes", "total", "hydro", "boundary", "timestep", "sync",
            "regrid", "imbal"});

  Components largest_real;
  StepTimes largest_times;
  int largest_real_nodes = 1;
  std::int64_t largest_cells = 1;
  Components first;
  Components last;
  std::int64_t first_cells = 1;
  std::int64_t last_cells = 1;
  int last_nodes = 1;

  struct JsonRow {
    int nodes = 0;
    bool modeled = false;
    std::int64_t cells_per_node = 0;
    Components c;
    StepTimes times;  ///< real rows only (zeros on modeled rows)
  };
  std::vector<JsonRow> rows;

  for (int nodes : {1, 4, 16, 64, 256, 1024, 4096}) {
    Components c;
    StepTimes times;
    std::int64_t cells = 0;
    bool modeled = false;
    if (nodes <= cap) {
      c = run_real(nodes, m, cells, /*async=*/false, &times.sync_s);
      std::int64_t async_cells = 0;
      run_real(nodes, m, async_cells, /*async=*/true, &times.async_s,
               &times.saved_s);
      largest_real = c;
      largest_times = times;
      largest_real_nodes = nodes;
      largest_cells = cells;
    } else {
      // Compressed tags of one rank's tile: 1 bit/cell on levels 0..1.
      const std::int64_t tag_bytes = kTile * kTile * 5 / 8 / 4;
      c = extrapolate(largest_real, largest_real_nodes, nodes, m, tag_bytes);
      cells = largest_cells / largest_real_nodes * nodes;
      // Project the sync/overlap step times from the analytic model too,
      // so the JSON trajectory is usable at every node count: both steps
      // grow by the extrapolated terms over the largest real run's. The
      // hidden time stays the largest real run's — halo volume per node
      // is constant under weak scaling and the deepening collectives do
      // not overlap — so a projected row never beats a measured one.
      // (`saved` is gross hidden time, larger than the net sync - async
      // gain, so sync - saved would undercut the measured async step.)
      const double growth = c.total() - largest_real.total();
      times.sync_s = largest_times.sync_s + growth;
      times.async_s = largest_times.async_s + growth;
      times.saved_s = largest_times.saved_s;
      modeled = true;
    }
    // Weak-scaling grind time: per-step component seconds of the slowest
    // rank over the cells that rank advances (cells per node), which the
    // paper holds constant across node counts.
    const double denom = static_cast<double>(cells) / nodes;
    rows.push_back(JsonRow{nodes, modeled,
                           static_cast<std::int64_t>(denom), c, times});
    t.row({ramr::perf::Table::count(nodes) + (modeled ? "*" : ""),
           ramr::perf::Table::sci(c.total() / denom),
           ramr::perf::Table::sci(c.hydro / denom),
           ramr::perf::Table::sci(c.boundary / denom),
           ramr::perf::Table::sci(c.timestep / denom),
           ramr::perf::Table::sci(c.sync / denom),
           ramr::perf::Table::sci(c.regrid / denom),
           ramr::perf::Table::ratio(c.imbalance)});
    if (nodes == 1) {
      first = c;
      first_cells = cells;
    }
    last = c;
    last_cells = cells;
    last_nodes = nodes;
  }
  (void)first_cells;
  (void)last_cells;
  (void)last_nodes;

  std::printf("\n(* = analytic extension of the largest real run)\n\n");
  std::printf("Runtime fractions (paper text, Section V-B):\n");
  ramr::perf::Table f({22, 16, 16, 16, 16});
  f.header({"", "advance", "timestep", "sync", "paper"});
  f.row({"1 node",
         ramr::perf::Table::percent((first.hydro + first.boundary) / first.total()),
         ramr::perf::Table::percent(first.timestep / first.total()),
         ramr::perf::Table::percent(first.sync / first.total()),
         "59% / <1% / 1%"});
  f.row({"4096 nodes",
         ramr::perf::Table::percent((last.hydro + last.boundary) / last.total()),
         ramr::perf::Table::percent(last.timestep / last.total()),
         ramr::perf::Table::percent(last.sync / last.total()),
         "44% / 6% / 3%"});

  // Sync vs async-overlap step times of the real runs: the split-phase
  // state exchange + network-lane wire legs shave the hidden
  // communication off the slowest rank's step (docs/async_overlap.md).
  std::printf(
      "\nSync vs overlapped step times (slowest rank; * = projected from\n"
      "the analytic grind model):\n");
  ramr::perf::Table o({8, 14, 14, 14});
  o.header({"nodes", "sync s/step", "async s/step", "saved s/step"});
  double prev_async = 0.0;
  for (const JsonRow& r : rows) {
    o.row({ramr::perf::Table::count(r.nodes) + (r.modeled ? "*" : ""),
           ramr::perf::Table::sci(r.times.sync_s),
           ramr::perf::Table::sci(r.times.async_s),
           ramr::perf::Table::sci(r.times.saved_s)});
    // Hard check on every row: under weak scaling the overlapped step
    // never gets cheaper with more nodes.
    if (r.times.async_s < prev_async) {
      std::printf("FAIL: async step drops to %.3e at %d nodes (%.3e "
                  "before)\n",
                  r.times.async_s, r.nodes, prev_async);
      return 1;
    }
    prev_async = r.times.async_s;
    if (r.modeled) {
      continue;
    }
    // Hard acceptance check on distributed rows: overlap must save
    // modeled time and beat the synchronous step.
    if (r.nodes > 1 &&
        (r.times.saved_s <= 0.0 || r.times.async_s >= r.times.sync_s)) {
      std::printf("FAIL: no overlap saving at %d nodes (sync %.3e, async "
                  "%.3e, saved %.3e)\n",
                  r.nodes, r.times.sync_s, r.times.async_s, r.times.saved_s);
      return 1;
    }
  }

  // Machine-readable record for CI perf tracking (alongside
  // BENCH_fig09.json / BENCH_fig10.json). Extrapolated rows carry the
  // analytic grind components AND the projected sync/async/saved step
  // times (no more hard zeros above the real-run cap).
  if (FILE* json = std::fopen("BENCH_fig11.json", "w")) {
    std::fprintf(json, "{\n  \"tile\": %d,\n  \"configs\": [\n", kTile);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const JsonRow& r = rows[i];
      const double denom = static_cast<double>(r.cells_per_node);
      std::fprintf(
          json,
          "    {\"nodes\": %d, \"modeled\": %s, \"grind_total\": %.6e, "
          "\"grind_hydro\": %.6e, \"grind_boundary\": %.6e, "
          "\"grind_timestep\": %.6e, \"grind_sync\": %.6e, "
          "\"grind_regrid\": %.6e, \"load_imbalance\": %.4f, "
          "\"sync_s_per_step\": %.6e, "
          "\"async_s_per_step\": %.6e, \"overlap_saved_per_step\": %.6e}%s\n",
          r.nodes, r.modeled ? "true" : "false", r.c.total() / denom,
          r.c.hydro / denom, r.c.boundary / denom, r.c.timestep / denom,
          r.c.sync / denom, r.c.regrid / denom, r.c.imbalance, r.times.sync_s,
          r.times.async_s, r.times.saved_s,
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_fig11.json\n");
  }
  return 0;
}
