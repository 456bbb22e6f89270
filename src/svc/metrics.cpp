#include "svc/metrics.hpp"

#include "app/integrator.hpp"
#include "obs/metrics.hpp"
#include "vgpu/topology.hpp"

namespace ramr::svc {

using app::TransferCounters;

cfg::Json run_metrics_json(app::Simulation& sim) {
  cfg::Json j = cfg::Json::make_object();
  j.set("steps", cfg::Json(sim.step_count()));
  j.set("sim_time", cfg::Json(sim.time()));
  j.set("last_dt", cfg::Json(sim.last_dt()));
  j.set("modeled_seconds", cfg::Json(sim.modeled_seconds()));

  cfg::Json clock = cfg::Json::make_object();
  for (const auto& [name, seconds] : sim.clock().components()) {
    clock.set(name, cfg::Json(seconds));
  }
  j.set("clock_components", std::move(clock));

  cfg::Json hierarchy = cfg::Json::make_object();
  hierarchy.set("levels", cfg::Json(sim.hierarchy().num_levels()));
  hierarchy.set("cells",
                cfg::Json(static_cast<std::int64_t>(sim.hierarchy().total_cells())));
  j.set("hierarchy", std::move(hierarchy));

  // Transfer-layer traffic, with the per-window breakdown: which fill
  // windows ran split-phase and how much modeled wire time each window
  // actually hid (hidden_fraction = saved / issued comm; 0 on the
  // synchronous path, where nothing overlaps).
  const TransferCounters& tc = sim.integrator().transfer_counters();
  cfg::Json transfer = cfg::Json::make_object();
  transfer.set("halo_fills", cfg::Json(static_cast<std::int64_t>(tc.halo_fills)));
  transfer.set("split_fills",
               cfg::Json(static_cast<std::int64_t>(tc.split_fills)));
  transfer.set("messages_sent",
               cfg::Json(static_cast<std::int64_t>(tc.messages_sent)));
  transfer.set("messages_received",
               cfg::Json(static_cast<std::int64_t>(tc.messages_received)));
  transfer.set("bytes_sent", cfg::Json(static_cast<std::int64_t>(tc.bytes_sent)));
  // Always 0 since the compiled plans became the only transfer path; the
  // key stays because the two-clock benchmark and its recorded outputs
  // read it.
  transfer.set("plan_fallbacks",
               cfg::Json(static_cast<std::int64_t>(tc.plan_fallbacks)));
  cfg::Json windows = cfg::Json::make_object();
  for (int w = 0; w < TransferCounters::kWindowCount; ++w) {
    const TransferCounters::WindowStats& ws = tc.window[w];
    cfg::Json win = cfg::Json::make_object();
    win.set("fills", cfg::Json(static_cast<std::int64_t>(ws.fills)));
    win.set("split_fills",
            cfg::Json(static_cast<std::int64_t>(ws.split_fills)));
    win.set("comm_seconds", cfg::Json(ws.comm_seconds));
    win.set("overlap_seconds_saved", cfg::Json(ws.overlap_seconds_saved));
    win.set("hidden_fraction",
            cfg::Json(ws.comm_seconds > 0.0
                          ? ws.overlap_seconds_saved / ws.comm_seconds
                          : 0.0));
    windows.set(TransferCounters::window_name(w), std::move(win));
  }
  transfer.set("windows", std::move(windows));
  j.set("transfer", std::move(transfer));

  // Single-lane runs overlap nothing, so only named-lane (async) runs
  // report the block.
  if (const vgpu::Timeline& tl = *sim.timeline(); tl.named_lanes()) {
    cfg::Json overlap = cfg::Json::make_object();
    overlap.set("busy_seconds", cfg::Json(tl.busy_total()));
    overlap.set("makespan", cfg::Json(tl.makespan()));
    overlap.set("comparable_seconds", cfg::Json(tl.comparable_seconds()));
    overlap.set("overlap_seconds_saved", cfg::Json(tl.overlap_seconds_saved()));
    j.set("overlap", std::move(overlap));
  }

  const amr::GriddingStats& gs = sim.gridding_stats();
  cfg::Json gridding = cfg::Json::make_object();
  gridding.set("initial_builds", cfg::Json(gs.initial_builds));
  gridding.set("regrids", cfg::Json(gs.regrids));
  gridding.set("levels_built", cfg::Json(gs.levels_built));
  gridding.set("cells_tagged",
               cfg::Json(static_cast<std::int64_t>(gs.cells_tagged)));
  // Cross-rank load imbalance (max/mean local cells) of every level
  // build, in build order; "load_imbalance" is the most recent value —
  // the partition the run ended on.
  cfg::Json imbalance = cfg::Json::make_array();
  for (double v : gs.imbalance_history) {
    imbalance.push_back(cfg::Json(v));
  }
  gridding.set("imbalance_history", std::move(imbalance));
  gridding.set("load_imbalance",
               cfg::Json(gs.imbalance_history.empty()
                             ? 1.0
                             : gs.imbalance_history.back()));
  j.set("gridding", std::move(gridding));

  // Per-device attribution on multi-device ranks: what each device of
  // the topology computed (gpu lane busy under named lanes; a single
  // lane has no per-device lanes and reports 0), launched, held and
  // shipped over peer links / NIC-direct.
  if (vgpu::Topology* topo = sim.topology(); topo != nullptr &&
                                             topo->device_count() > 1) {
    vgpu::Timeline& tl = *sim.timeline();
    cfg::Json devices = cfg::Json::make_array();
    for (int d = 0; d < topo->device_count(); ++d) {
      vgpu::Device& dev = topo->device(d);
      cfg::Json e = cfg::Json::make_object();
      e.set("ordinal", cfg::Json(d));
      e.set("busy_seconds",
            cfg::Json(tl.named_lanes()
                          ? tl.busy(tl.lane(vgpu::Topology::gpu_lane_name(d)))
                          : 0.0));
      e.set("kernel_seconds", cfg::Json(dev.kernel_seconds()));
      e.set("launches",
            cfg::Json(static_cast<std::int64_t>(dev.launch_count())));
      e.set("peak_bytes",
            cfg::Json(static_cast<std::int64_t>(dev.peak_bytes_allocated())));
      e.set("peer_bytes", cfg::Json(static_cast<std::int64_t>(
                              dev.transfers().peer_bytes)));
      e.set("gpu_direct_bytes", cfg::Json(static_cast<std::int64_t>(
                                    dev.transfers().gpu_direct_bytes)));
      // Directed peer-link lanes OUT of this device: peer copies are
      // lane charges like any other, so their busy/idle split belongs in
      // the per-device accounting (it was silently omitted before —
      // peer-heavy runs looked idle on every lane the report showed).
      if (tl.named_lanes()) {
        const double makespan = tl.makespan();
        cfg::Json links = cfg::Json::make_object();
        for (int o = 0; o < topo->device_count(); ++o) {
          if (o == d) {
            continue;
          }
          const std::string name = vgpu::Topology::peer_lane_name(d, o);
          const double busy = tl.busy(tl.lane(name));
          cfg::Json link = cfg::Json::make_object();
          link.set("busy_seconds", cfg::Json(busy));
          link.set("idle_seconds", cfg::Json(makespan - busy));
          links.set(name, std::move(link));
        }
        e.set("peer_links", std::move(links));
      }
      devices.push_back(std::move(e));
    }
    j.set("devices", std::move(devices));
  }

  // Latest per-step metric snapshot (observability.metrics runs only):
  // the same registry the JSONL stream samples, folded into the report.
  if (obs::MetricsRegistry* reg = sim.metrics_registry();
      reg != nullptr && !reg->empty()) {
    j.set("metrics", reg->latest());
  }

  const hydro::FieldSummary summary = sim.composite_summary();
  cfg::Json totals = cfg::Json::make_object();
  totals.set("mass", cfg::Json(summary.mass));
  totals.set("internal_energy", cfg::Json(summary.internal_energy));
  totals.set("kinetic_energy", cfg::Json(summary.kinetic_energy));
  j.set("summary", std::move(totals));

  return j;
}

}  // namespace ramr::svc
