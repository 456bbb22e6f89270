// Ablation: residency. The paper's central design decision is that
// simulation data lives in GPU memory at all times; the contrast class
// (Wang et al. [4], GAMER [19], Uintah [7]) copies fields between host
// and device around every kernel group. This bench runs the real
// resident step and compares its modeled time against the same step with
// the copy-in/copy-out traffic added (state fields across PCIe around
// each of the step's kernel groups).
//
// It also asserts the post-batching residency accounting: with fused
// per-level launches a serial step's resident PCIe traffic is regrid
// tags + ONE dt scalar per level per step + inter-level staging only
// (per-patch dt readbacks are gone; see docs/kernel_batching.md).
#include <cstdio>

#include "app/simulation.hpp"
#include "perf/machine.hpp"
#include "perf/report.hpp"

int main() {
  ramr::app::SimulationConfig cfg;
  cfg.problem = "sod";
  cfg.nx = 512;
  cfg.ny = 512;
  cfg.max_levels = 3;
  cfg.regrid_interval = 5;
  cfg.device = ramr::perf::ipa().gpu_spec;

  ramr::app::Simulation sim(cfg, nullptr);
  sim.initialize();
  sim.clock().reset();
  const ramr::vgpu::TransferLog transfers0 = sim.device().transfers();
  const int steps = 5;
  const int levels = sim.hierarchy().num_levels();
  // One dt scalar per level per step; count the levels each step sees,
  // since a regrid inside the window may change the hierarchy depth.
  std::uint64_t expected_scalars = 0;
  for (int s = 0; s < steps; ++s) {
    expected_scalars += static_cast<std::uint64_t>(sim.hierarchy().num_levels());
    sim.step();
  }
  const double resident = sim.clock().total() / steps;
  const ramr::vgpu::TransferLog traffic =
      sim.device().transfers() - transfers0;

  // Copy-in/copy-out model: the 8 kernel groups of the step each move
  // the live state (density, energy, pressure, viscosity, soundspeed,
  // velocities, fluxes ~ 13 field planes) both ways across PCIe.
  const double field_bytes =
      static_cast<double>(sim.hierarchy().total_cells()) * 13.0 * 8.0;
  const auto& spec = sim.device().spec();
  constexpr int kKernelGroups = 8;
  const double copy_penalty =
      2.0 * kKernelGroups *
      (spec.pcie_lat_s + field_bytes / (spec.pcie_bw_gbs * 1.0e9));
  const double nonresident = resident + copy_penalty;

  std::printf("Ablation: resident vs copy-in/copy-out GPU AMR (512^2 Sod, "
              "3 levels)\n\n");
  ramr::perf::Table t({30, 14});
  t.header({"", "s/step"});
  t.row({"resident (this work)", ramr::perf::Table::seconds(resident)});
  t.row({"copy-in/copy-out (modeled)", ramr::perf::Table::seconds(nonresident)});
  t.row({"residency speedup", ramr::perf::Table::ratio(nonresident / resident)});
  std::printf(
      "\nPCIe traffic of the resident run (%d steps): %llu bytes D2H, %llu "
      "bytes H2D\n",
      steps, static_cast<unsigned long long>(traffic.d2h_bytes),
      static_cast<unsigned long long>(traffic.h2d_bytes));
  std::printf(
      "Resident traffic is regrid tags + ONE dt scalar per level per step\n"
      "(%d levels x %d steps = %llu scalar readbacks; per-patch launching\n"
      "read one back per patch) + inter-level staging only — %.2f%% of one\n"
      "copy-in/copy-out round trip.\n",
      levels, steps, static_cast<unsigned long long>(traffic.d2h_scalar_count),
      100.0 * traffic.total_bytes() / (2.0 * field_bytes));

  // Hard accounting check, enforced in CI's bench-smoke job: exactly one
  // dt scalar per level per step.
  if (traffic.d2h_scalar_count != expected_scalars) {
    std::printf("FAIL: expected %llu dt scalar readbacks, logged %llu\n",
                static_cast<unsigned long long>(expected_scalars),
                static_cast<unsigned long long>(traffic.d2h_scalar_count));
    return 1;
  }
  std::printf("OK: dt readback accounting matches (one scalar per level per "
              "step)\n");

  // Transfer-path launch accounting (compiled transfer plans): an
  // exchange must never issue more fused pack/unpack launches than it
  // sends/receives aggregated messages, and local copies fuse into at
  // most two launches per engine exchange — one apply, plus one
  // snapshot gather where node/side seam reads alias writes — with up to
  // two engine exchanges per refine fill (same-level + coarse gather).
  // A serial run sends no messages at all, so the pack/unpack bounds
  // double as "zero pack/unpack launches" here.
  const auto& tc = sim.integrator().transfer_counters();
  const std::uint64_t pack_launches =
      sim.device().launch_count(ramr::vgpu::LaunchTag::kTransferPack);
  const std::uint64_t unpack_launches =
      sim.device().launch_count(ramr::vgpu::LaunchTag::kTransferUnpack);
  const std::uint64_t copy_launches =
      sim.device().launch_count(ramr::vgpu::LaunchTag::kLocalCopy);
  std::printf(
      "\ntransfer-path launches: %llu pack (%llu messages sent), %llu "
      "unpack (%llu received), %llu local-copy (%llu exchanges)\n",
      static_cast<unsigned long long>(pack_launches),
      static_cast<unsigned long long>(tc.messages_sent),
      static_cast<unsigned long long>(unpack_launches),
      static_cast<unsigned long long>(tc.messages_received),
      static_cast<unsigned long long>(copy_launches),
      static_cast<unsigned long long>(tc.halo_fills));
  if (pack_launches > tc.messages_sent) {
    std::printf("FAIL: %llu pack launches for %llu messages sent\n",
                static_cast<unsigned long long>(pack_launches),
                static_cast<unsigned long long>(tc.messages_sent));
    return 1;
  }
  if (unpack_launches > tc.messages_received) {
    std::printf("FAIL: %llu unpack launches for %llu messages received\n",
                static_cast<unsigned long long>(unpack_launches),
                static_cast<unsigned long long>(tc.messages_received));
    return 1;
  }
  if (copy_launches > 4 * tc.halo_fills) {
    std::printf("FAIL: %llu local-copy launches for %llu exchanges\n",
                static_cast<unsigned long long>(copy_launches),
                static_cast<unsigned long long>(tc.halo_fills));
    return 1;
  }
  std::printf("OK: transfer launch accounting matches (fused plans: at most "
              "one launch per message / exchange)\n");

  // Compiled-plan fallbacks: the compiled plans are the only transfer
  // path, so this counter is always zero; the check stays while the run
  // metrics still carry it.
  if (tc.plan_fallbacks != 0) {
    std::printf("FAIL: %llu compiled-plan fallbacks on a single-device run\n",
                static_cast<unsigned long long>(tc.plan_fallbacks));
    return 1;
  }
  std::printf("OK: zero compiled-plan fallbacks\n");
  return 0;
}
