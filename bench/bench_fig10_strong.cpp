// Figure 10: strong-scaling parallel performance on IPA. The 6.4M-zone
// Sod problem, 1000 timesteps, on 1-8 nodes: the GPU code runs 2 MPI
// ranks per node (one per K20x), the CPU code one rank per node (16
// cores). Paper result: GPUs 4.87x faster on one node, dropping to
// 1.92x on eight — boundary exchange and regridding become the serial
// fraction (Amdahl) as per-GPU work shrinks.
//
// Method: real distributed runs (threaded ranks, modeled network wire
// time) at a reduced number of steps, scaled to 1000. Set
// RAMR_BENCH_FAST=1 for a smaller problem.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "app/simulation.hpp"
#include "perf/machine.hpp"
#include "perf/report.hpp"

namespace {

struct Run {
  double seconds_1000 = 0.0;
  double overlap_saved_1000 = 0.0;  ///< slowest rank's overlap_seconds_saved
  /// Slowest rank's per-window overlap attribution (wide runs): which
  /// fill windows actually hide time (TransferCounters::window).
  double window_saved_1000[ramr::app::TransferCounters::kWindowCount] = {};
  double hydro_fraction = 0.0;
  double messages_per_fill = 0.0;   ///< aggregated messages sent / schedule fill
  double pcie_per_step = 0.0;       ///< modeled PCIe crossings / timestep
  double launches_per_step = 0.0;   ///< fused kernel launches / timestep
  double kernel_s_per_step = 0.0;   ///< modeled kernel seconds / timestep
  double pack_per_step = 0.0;       ///< fused pack launches / timestep
  double unpack_per_step = 0.0;     ///< fused unpack launches / timestep
  double local_copy_per_step = 0.0; ///< fused local-copy launches / timestep
  double messages_per_step = 0.0;   ///< wire messages sent / timestep
  double received_per_step = 0.0;   ///< wire messages received / timestep
};

Run run_config(int n, int ranks, const ramr::vgpu::DeviceSpec& spec,
               const ramr::simmpi::NetworkSpec& net, bool async_overlap = false,
               bool wide_overlap = true, bool traced = false) {
  ramr::app::SimulationConfig cfg;
  cfg.problem = "sod";
  cfg.nx = n;
  cfg.ny = n;
  cfg.max_levels = 3;
  cfg.ratio = 2;
  cfg.regrid_interval = 10;
  cfg.max_patch_cells = 512 * 512;
  cfg.min_patch_size = 16;
  cfg.device = spec;
  cfg.device.mem_bytes = 64ull << 30;
  cfg.async_overlap = async_overlap;
  cfg.wide_overlap = wide_overlap;
  if (traced) {
    // Observability-overhead check: span tracing only observes the clock,
    // so the traced run must reproduce the modeled time bit-identically.
    auto oc = std::make_shared<ramr::obs::ObservabilityConfig>();
    oc->trace = true;
    oc->trace_capacity = 1 << 15;
    cfg.observability = std::move(oc);
  }

  const int steps = 10;
  std::mutex m;
  double worst_total = 0.0;
  double worst_saved = 0.0;
  double worst_hydro = 0.0;
  double worst_msgs_per_fill = 0.0;
  double worst_pcie_per_step = 0.0;
  double worst_launches_per_step = 0.0;
  double worst_kernel_s_per_step = 0.0;
  double worst_pack_per_step = 0.0;
  double worst_unpack_per_step = 0.0;
  double worst_local_copy_per_step = 0.0;
  double worst_messages_per_step = 0.0;
  double worst_received_per_step = 0.0;
  ramr::app::TransferCounters worst_counters;
  ramr::simmpi::World world(ranks, net);
  world.run([&](ramr::simmpi::Communicator& comm) {
    ramr::app::Simulation sim(cfg, &comm);
    sim.initialize();
    sim.clock().reset();
    const ramr::simmpi::CommStats comm0 = comm.stats();
    const ramr::vgpu::TransferLog transfers0 = sim.device().transfers();
    const ramr::app::TransferCounters tc0 = sim.integrator().transfer_counters();
    const std::uint64_t launches0 = sim.device().launch_count();
    const std::uint64_t pack0 =
        sim.device().launch_count(ramr::vgpu::LaunchTag::kTransferPack);
    const std::uint64_t unpack0 =
        sim.device().launch_count(ramr::vgpu::LaunchTag::kTransferUnpack);
    const std::uint64_t copy0 =
        sim.device().launch_count(ramr::vgpu::LaunchTag::kLocalCopy);
    const double kernel0 = sim.device().kernel_seconds();
    sim.run(steps);
    // The slowest rank sets the runtime: its timeline completion (max
    // over its lanes under async_overlap, the one cursor otherwise),
    // imbalance waits excluded.
    const double total = sim.modeled_seconds();
    const ramr::vgpu::Timeline& tl = *sim.timeline();
    const double saved = tl.named_lanes() ? tl.overlap_seconds_saved() : 0.0;
    const double hydro = sim.clock().component("hydro");
    // Aggregated-transfer diagnostics: with one message per peer per
    // fill, messages/fill approaches the rank's neighbour count, and the
    // fused pack keeps modeled PCIe crossings per step flat.
    const ramr::app::TransferCounters tc = sim.integrator().transfer_counters();
    const std::uint64_t fills = tc.halo_fills - tc0.halo_fills;
    const std::uint64_t msgs = tc.messages_sent - tc0.messages_sent;
    const ramr::vgpu::TransferLog dt =
        sim.device().transfers() - transfers0;
    std::lock_guard<std::mutex> lock(m);
    if (total > worst_total) {
      worst_total = total;
      worst_saved = saved;
      worst_hydro = hydro;
      worst_msgs_per_fill =
          fills > 0 ? static_cast<double>(msgs) / fills : 0.0;
      worst_pcie_per_step = static_cast<double>(dt.total_count()) / steps;
      worst_launches_per_step =
          static_cast<double>(sim.device().launch_count() - launches0) / steps;
      worst_kernel_s_per_step =
          (sim.device().kernel_seconds() - kernel0) / steps;
      worst_pack_per_step =
          static_cast<double>(
              sim.device().launch_count(ramr::vgpu::LaunchTag::kTransferPack) -
              pack0) /
          steps;
      worst_unpack_per_step =
          static_cast<double>(sim.device().launch_count(
                                  ramr::vgpu::LaunchTag::kTransferUnpack) -
                              unpack0) /
          steps;
      worst_local_copy_per_step =
          static_cast<double>(
              sim.device().launch_count(ramr::vgpu::LaunchTag::kLocalCopy) -
              copy0) /
          steps;
      // Wire-level message counts (includes the regrid solution
      // transfer, which the integrator counters do not own) for the
      // pack/unpack launch-budget check.
      const ramr::simmpi::CommStats cs = comm.stats() - comm0;
      worst_messages_per_step = static_cast<double>(cs.messages_sent) / steps;
      worst_received_per_step =
          static_cast<double>(cs.messages_received) / steps;
      worst_counters = tc;
    }
  });
  Run r;
  r.seconds_1000 = worst_total / steps * 1000.0;
  r.overlap_saved_1000 = worst_saved / steps * 1000.0;
  r.hydro_fraction = worst_total > 0.0 ? worst_hydro / worst_total : 0.0;
  r.messages_per_fill = worst_msgs_per_fill;
  r.pcie_per_step = worst_pcie_per_step;
  r.launches_per_step = worst_launches_per_step;
  r.kernel_s_per_step = worst_kernel_s_per_step;
  r.pack_per_step = worst_pack_per_step;
  r.unpack_per_step = worst_unpack_per_step;
  r.local_copy_per_step = worst_local_copy_per_step;
  r.messages_per_step = worst_messages_per_step;
  r.received_per_step = worst_received_per_step;
  for (int w = 0; w < ramr::app::TransferCounters::kWindowCount; ++w) {
    r.window_saved_1000[w] =
        worst_counters.window[w].overlap_seconds_saved / steps * 1000.0;
  }
  return r;
}

}  // namespace

int main() {
  const bool fast = std::getenv("RAMR_BENCH_FAST") != nullptr;
  const int n = fast ? 896 : 2530;  // 6.4M zones as in the paper
  std::printf(
      "Figure 10: strong scaling on IPA, Sod %dx%d (%.1fM zones), 1000 "
      "steps\n"
      "GPU code: 2 ranks/node (1 per K20x); CPU code: 1 rank/node (16 "
      "cores)\n\n",
      n, n, n * static_cast<double>(n) / 1e6);

  const ramr::perf::Machine m = ramr::perf::ipa();
  ramr::perf::Table t(
      {8, 12, 12, 12, 12, 12, 14, 10, 16, 10, 13, 13, 11, 11, 11});
  t.header({"nodes", "K20x (s)", "async (s)", "traced (s)", "saved (s)",
            "saved1w (s)", "E5-2670 (s)", "GPU/CPU", "GPU hydro frac",
            "msg/fill", "PCIe x/step", "launch/step", "pack/step",
            "unpk/step", "copy/step"});
  double first_speedup = 0.0;
  double last_speedup = 0.0;
  struct Row {
    Run gpu, gpu_async, gpu_narrow, gpu_traced, cpu;
  };
  std::vector<std::pair<int, Row>> all;
  for (int nodes : {1, 2, 4, 8}) {
    const Run gpu = run_config(n, 2 * nodes, m.gpu_spec, m.network);
    // Wide overlap (default): every fill window hides behind its
    // consumer stage's interior sweep. The narrow ablation is the
    // original single-window path (only the state exchange overlaps).
    const Run gpu_async =
        run_config(n, 2 * nodes, m.gpu_spec, m.network, /*async=*/true);
    const Run gpu_narrow = run_config(n, 2 * nodes, m.gpu_spec, m.network,
                                      /*async=*/true, /*wide=*/false);
    // The async run again with span tracing on — the observability
    // overhead column, hard-asserted bit-identical below.
    const Run gpu_traced = run_config(n, 2 * nodes, m.gpu_spec, m.network,
                                      /*async=*/true, /*wide=*/true,
                                      /*traced=*/true);
    const Run cpu = run_config(n, nodes, m.cpu_node_spec, m.network);
    const double speedup = cpu.seconds_1000 / gpu.seconds_1000;
    if (nodes == 1) first_speedup = speedup;
    last_speedup = speedup;
    all.push_back({nodes, Row{gpu, gpu_async, gpu_narrow, gpu_traced, cpu}});
    t.row({ramr::perf::Table::count(nodes),
           ramr::perf::Table::seconds(gpu.seconds_1000),
           ramr::perf::Table::seconds(gpu_async.seconds_1000),
           ramr::perf::Table::seconds(gpu_traced.seconds_1000),
           ramr::perf::Table::seconds(gpu_async.overlap_saved_1000),
           ramr::perf::Table::seconds(gpu_narrow.overlap_saved_1000),
           ramr::perf::Table::seconds(cpu.seconds_1000),
           ramr::perf::Table::ratio(speedup),
           ramr::perf::Table::percent(gpu.hydro_fraction),
           ramr::perf::Table::seconds(gpu.messages_per_fill),
           ramr::perf::Table::seconds(gpu.pcie_per_step),
           ramr::perf::Table::count(
               static_cast<std::int64_t>(gpu.launches_per_step)),
           ramr::perf::Table::seconds(gpu.pack_per_step),
           ramr::perf::Table::seconds(gpu.unpack_per_step),
           ramr::perf::Table::seconds(gpu.local_copy_per_step)});
    // Hard accounting check (compiled transfer plans): the slowest rank
    // may not issue more fused pack (unpack) launches per step than it
    // sends (receives) wire messages per step.
    if (gpu.pack_per_step > gpu.messages_per_step + 1e-9) {
      std::printf("FAIL: %.1f pack launches/step for %.1f messages/step\n",
                  gpu.pack_per_step, gpu.messages_per_step);
      return 1;
    }
    if (gpu.unpack_per_step > gpu.received_per_step + 1e-9) {
      std::printf(
          "FAIL: %.1f unpack launches/step for %.1f received messages/step\n",
          gpu.unpack_per_step, gpu.received_per_step);
      return 1;
    }
    // Hard acceptance check (async timeline subsystem): the distributed
    // async path must beat the synchronous compiled path's modeled step
    // time (wire time hidden behind interior compute) and the slowest
    // rank must report a positive overlap saving. Launch contents are
    // identical, so this is purely the timing model's overlap.
    if (gpu_async.seconds_1000 >= gpu.seconds_1000) {
      std::printf("FAIL: async %.3f s not below sync %.3f s at %d nodes\n",
                  gpu_async.seconds_1000, gpu.seconds_1000, nodes);
      return 1;
    }
    if (gpu_async.overlap_saved_1000 <= 0.0) {
      std::printf("FAIL: overlap saved %.6f s not positive at %d nodes\n",
                  gpu_async.overlap_saved_1000, nodes);
      return 1;
    }
    // Hard acceptance check (wide overlap): at 2 and 4 nodes the widened
    // window must hide strictly more modeled time than the single-window
    // path it generalises.
    if ((nodes == 2 || nodes == 4) &&
        gpu_async.overlap_saved_1000 <= gpu_narrow.overlap_saved_1000) {
      std::printf(
          "FAIL: wide overlap saved %.6f s not above single-window %.6f s "
          "at %d nodes\n",
          gpu_async.overlap_saved_1000, gpu_narrow.overlap_saved_1000, nodes);
      return 1;
    }
    // Hard acceptance check (observability): tracing is a passive
    // observer of the modeled clock, so the traced modeled step time must
    // be BIT-identical (==, not approximately) to the untraced run.
    if (gpu_traced.seconds_1000 != gpu_async.seconds_1000) {
      std::printf(
          "FAIL: tracing changed the modeled time at %d nodes "
          "(%.17e vs %.17e s)\n",
          nodes, gpu_traced.seconds_1000, gpu_async.seconds_1000);
      return 1;
    }
  }
  std::printf(
      "\nspeedup at 1 node: %.2fx (paper: 4.87x); at 8 nodes: %.2fx "
      "(paper: 1.92x)\n",
      first_speedup, last_speedup);
  std::printf(
      "async (s) is the same run under SimulationConfig::async_overlap with\n"
      "the (default) wide_overlap window: EVERY per-step exchange executes\n"
      "split-phase around the ghost-free interior sweep of its consumer\n"
      "stage (interior/rind stage decomposition), wire legs ride the\n"
      "timeline's network lane, and the slowest rank completes at the max\n"
      "of its lane chains. K20x (s), the sync column, runs the same\n"
      "timeline on one lane: every fill finishes before the next stage,\n"
      "the sender pays each wire leg and the receiver waits for its\n"
      "arrival. Both exclude imbalance waits (docs/async_overlap.md);\n"
      "saved (s) is that rank's overlap_seconds_saved, saved1w (s) the\n"
      "same under the single-window (state-exchange-only) ablation.\n"
      "traced (s) repeats the async run with span tracing on (the\n"
      "observability block, docs/observability.md): hard-asserted\n"
      "BIT-identical, since the recorder observes clock charges and\n"
      "never makes one. Fields are bit-identical in every mode.\n"
      "The falloff is the paper's Amdahl effect: boundary exchange and\n"
      "(host-side) regridding do not shrink with per-GPU work.\n"
      "msg/fill counts the slowest rank's aggregated sends per schedule\n"
      "execution (one message per peer per fill); PCIe x/step is that\n"
      "rank's modeled crossings per timestep with the fused device pack;\n"
      "launch/step is that rank's fused kernel launches per timestep\n"
      "(one per kernel sub-stage per level, independent of patch count).\n"
      "pack/unpk/copy per step are the compiled transfer plans' fused\n"
      "launches: one pack per message sent, one unpack per message\n"
      "received, one local-copy per engine exchange (plus one snapshot\n"
      "gather where node/side seam reads alias writes).\n");

  // Machine-readable record for CI perf tracking (alongside
  // BENCH_fig09.json).
  if (FILE* json = std::fopen("BENCH_fig10.json", "w")) {
    std::fprintf(json, "{\n  \"zones\": %lld,\n  \"configs\": [\n",
                 static_cast<long long>(n) * n);
    for (std::size_t c = 0; c < all.size(); ++c) {
      const auto& [nodes, rr] = all[c];
      const auto& [gpu, gpu_async, gpu_narrow, gpu_traced, cpu] = rr;
      std::fprintf(
          json,
          "    {\"nodes\": %d, \"gpu_s_per_step\": %.6e, "
          "\"gpu_async_s_per_step\": %.6e, "
          "\"gpu_traced_s_per_step\": %.6e, "
          "\"overlap_saved_per_step\": %.6e, "
          "\"overlap_saved_narrow_per_step\": %.6e, "
          "\"cpu_s_per_step\": %.6e, \"gpu_hydro_fraction\": %.4f, "
          "\"messages_per_fill\": %.3f, \"pcie_per_step\": %.1f, "
          "\"launches_per_step\": %.1f, \"pack_per_step\": %.1f, "
          "\"unpack_per_step\": %.1f, \"local_copy_per_step\": %.1f, "
          "\"window_saved_per_step\": {",
          nodes, gpu.seconds_1000 / 1000.0, gpu_async.seconds_1000 / 1000.0,
          gpu_traced.seconds_1000 / 1000.0,
          gpu_async.overlap_saved_1000 / 1000.0,
          gpu_narrow.overlap_saved_1000 / 1000.0, cpu.seconds_1000 / 1000.0,
          gpu.hydro_fraction, gpu.messages_per_fill, gpu.pcie_per_step,
          gpu.launches_per_step, gpu.pack_per_step, gpu.unpack_per_step,
          gpu.local_copy_per_step);
      for (int w = 0; w < ramr::app::TransferCounters::kWindowCount; ++w) {
        std::fprintf(json, "\"%s\": %.6e%s",
                     ramr::app::TransferCounters::window_name(w),
                     gpu_async.window_saved_1000[w] / 1000.0,
                     w + 1 < ramr::app::TransferCounters::kWindowCount ? ", "
                                                                       : "");
      }
      std::fprintf(json, "}}%s\n", c + 1 < all.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_fig10.json\n");
  }
  return 0;
}
