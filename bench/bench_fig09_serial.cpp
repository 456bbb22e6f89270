// Figure 9: serial performance. One NVIDIA K20x vs one IPA node (16
// E5-2670 cores), Sod problem, 3 levels of refinement, ratio 2, 1000
// timesteps, coarse resolutions from ~3 thousand to 6.4 million zones.
//
// Paper result: below 200k cells the GPU averages ~1.6x *slower* than
// the CPU; above, it wins, up to 2.67x at 6.4M (average 1.99x for
// >= 200k). The crossover is the launch-overhead-vs-bandwidth trade of
// the throughput-oriented GPU.
//
// Method: each configuration runs a short real simulation (every kernel,
// halo exchange and regrid actually executes); the machine model
// accumulates modeled time per step, which is scaled to the paper's 1000
// steps. The fused per-level launch batching (docs/kernel_batching.md)
// is on by default; the ablation block at the end re-runs one
// configuration with per-patch launches to show the batching win
// directly. Set RAMR_BENCH_FAST=1 to drop the two largest sizes.
//
// Emits BENCH_fig09.json (modeled s/step, launches/step, PCIe bytes/step
// per configuration) for CI perf tracking.
#include <cstdio>
#include <cstdlib>

#include "app/simulation.hpp"
#include "perf/machine.hpp"
#include "util/statistics.hpp"
#include "perf/report.hpp"

namespace {

struct Result {
  double seconds_1000 = 0.0;
  std::int64_t cells = 0;
  double pcie_per_step = 0.0;       ///< modeled PCIe crossings / timestep
  double pcie_bytes_per_step = 0.0; ///< modeled PCIe bytes / timestep
  double launches_per_step = 0.0;   ///< kernel launches / timestep
  double kernel_s_per_step = 0.0;   ///< modeled kernel seconds / timestep
};

Result run_backend(int n, const ramr::vgpu::DeviceSpec& spec,
                   bool batched = true,
                   std::int64_t max_patch_cells = 512 * 512) {
  ramr::app::SimulationConfig cfg;
  cfg.problem = "sod";
  cfg.nx = n;
  cfg.ny = n;
  cfg.max_levels = 3;
  cfg.ratio = 2;
  cfg.regrid_interval = 10;
  cfg.max_patch_cells = max_patch_cells;
  cfg.min_patch_size = 16;
  cfg.device = spec;
  cfg.batched_launch = batched;
  // Large problems exceed one modeled K20x (the paper's 6.4M-zone case
  // fills most of the 6 GB card); raise the modeled capacity for this
  // sweep only, so the largest points run instead of failing allocation.
  cfg.device.mem_bytes = 64ull << 30;

  ramr::app::Simulation sim(cfg, nullptr);
  sim.initialize();
  // Measure whole steps, including one regrid per 5 steps (the paper's
  // runtime includes regridding).
  sim.clock().reset();
  const ramr::vgpu::TransferLog transfers0 = sim.device().transfers();
  const std::uint64_t launches0 = sim.device().launch_count();
  const double kernel0 = sim.device().kernel_seconds();
  const int steps = 10;
  sim.run(steps);
  Result r;
  r.seconds_1000 = sim.clock().total() / steps * 1000.0;
  r.cells = static_cast<std::int64_t>(cfg.nx) * cfg.ny;
  const ramr::vgpu::TransferLog dt = sim.device().transfers() - transfers0;
  r.pcie_per_step = static_cast<double>(dt.total_count()) / steps;
  r.pcie_bytes_per_step = static_cast<double>(dt.total_bytes()) / steps;
  r.launches_per_step =
      static_cast<double>(sim.device().launch_count() - launches0) / steps;
  r.kernel_s_per_step =
      (sim.device().kernel_seconds() - kernel0) / steps;
  return r;
}

}  // namespace

int main() {
  const bool fast = std::getenv("RAMR_BENCH_FAST") != nullptr;
  std::printf(
      "Figure 9: serial performance, Sod, 1000 timesteps, 3 levels, r=2\n"
      "NVIDIA K20x (resident GPU CleverLeaf) vs 2x Intel E5-2670 (CPU "
      "CleverLeaf)\n"
      "(modeled runtimes from short real runs; see EXPERIMENTS.md)\n\n");

  const ramr::perf::Machine m = ramr::perf::ipa();
  // Coarse resolutions: 3,136 ... 6.4M zones (the paper's axis endpoints
  // are 3,125 and 6,400,000).
  std::vector<int> sizes = {56, 112, 224, 448, 896, 1792, 2530};
  if (fast) {
    sizes.resize(5);
  }

  ramr::perf::Table t({10, 12, 14, 14, 10, 12, 14});
  t.header({"n", "zones", "K20x (s)", "E5-2670 (s)", "GPU/CPU",
            "launch/step", "kernel s/step"});
  ramr::util::RunningStats small_speedup;
  ramr::util::RunningStats large_speedup;
  std::vector<std::pair<int, std::pair<Result, Result>>> all;
  for (int n : sizes) {
    const Result gpu = run_backend(n, m.gpu_spec);
    const Result cpu = run_backend(n, m.cpu_node_spec);
    const double speedup = cpu.seconds_1000 / gpu.seconds_1000;
    t.row({ramr::perf::Table::count(n), ramr::perf::Table::count(gpu.cells),
           ramr::perf::Table::seconds(gpu.seconds_1000),
           ramr::perf::Table::seconds(cpu.seconds_1000),
           ramr::perf::Table::ratio(speedup),
           ramr::perf::Table::count(
               static_cast<std::int64_t>(gpu.launches_per_step)),
           ramr::perf::Table::seconds(gpu.kernel_s_per_step)});
    (gpu.cells < 200000 ? small_speedup : large_speedup).add(speedup);
    all.push_back({n, {gpu, cpu}});
  }
  std::printf("\n");
  if (small_speedup.count() > 0) {
    std::printf("avg GPU/CPU below 200k zones: %.2fx (paper: 1/1.6 = 0.63x)\n",
                small_speedup.mean());
  }
  if (large_speedup.count() > 0) {
    std::printf("avg GPU/CPU at/above 200k zones: %.2fx (paper: 1.99x)\n",
                large_speedup.mean());
    std::printf("max GPU/CPU speedup: %.2fx (paper: 2.67x)\n",
                large_speedup.max());
  }

  // Batching ablation: 3-level 512^2 Sod decomposed into many small
  // (<= 64^2) patches — the launch-overhead-bound regime — with
  // per-patch launches (one kernel per patch per stage, the pre-batching
  // structure) against the default fused per-level launches.
  const int abl_n = 512;
  const std::int64_t abl_patch_cells = 64 * 64;
  const Result fused =
      run_backend(abl_n, m.gpu_spec, /*batched=*/true, abl_patch_cells);
  const Result per_patch =
      run_backend(abl_n, m.gpu_spec, /*batched=*/false, abl_patch_cells);
  std::printf(
      "\nBatching ablation (K20x, 3-level %d^2 Sod, <=64^2 patches):\n"
      "  fused      %6.0f launches/step  %.4f s/step\n"
      "  per-patch  %6.0f launches/step  %.4f s/step\n"
      "  -> %.2fx step speedup, %.1fx fewer launches\n",
      abl_n, fused.launches_per_step, fused.seconds_1000 / 1000.0,
      per_patch.launches_per_step, per_patch.seconds_1000 / 1000.0,
      per_patch.seconds_1000 / fused.seconds_1000,
      per_patch.launches_per_step / fused.launches_per_step);

  // Machine-readable record for CI perf tracking.
  if (FILE* json = std::fopen("BENCH_fig09.json", "w")) {
    std::fprintf(json, "{\n  \"configs\": [\n");
    for (std::size_t c = 0; c < all.size(); ++c) {
      const auto& [n, rr] = all[c];
      const auto& [gpu, cpu] = rr;
      std::fprintf(
          json,
          "    {\"n\": %d, \"zones\": %lld, \"gpu_s_per_step\": %.6e, "
          "\"cpu_s_per_step\": %.6e, \"gpu_launches_per_step\": %.1f, "
          "\"gpu_kernel_s_per_step\": %.6e, \"gpu_pcie_bytes_per_step\": "
          "%.1f, \"gpu_pcie_crossings_per_step\": %.1f}%s\n",
          n, static_cast<long long>(gpu.cells), gpu.seconds_1000 / 1000.0,
          cpu.seconds_1000 / 1000.0, gpu.launches_per_step,
          gpu.kernel_s_per_step, gpu.pcie_bytes_per_step, gpu.pcie_per_step,
          c + 1 < all.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n  \"ablation\": {\"n\": %d, \"fused_s_per_step\": "
                 "%.6e, \"per_patch_s_per_step\": %.6e, "
                 "\"fused_launches_per_step\": %.1f, "
                 "\"per_patch_launches_per_step\": %.1f}\n}\n",
                 abl_n, fused.seconds_1000 / 1000.0,
                 per_patch.seconds_1000 / 1000.0, fused.launches_per_step,
                 per_patch.launches_per_step);
    std::fclose(json);
    std::printf("wrote BENCH_fig09.json\n");
  }
  return 0;
}
