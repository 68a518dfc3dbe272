// The blackout grid the three blackout benches share
// (bench_resilience_regional_outage, bench_resilience_capacity_spill,
// bench_control_steering), run on the session model through
// analysis::flash_crowd_experiment.
//
// The crowd is the Twitch flash-crowd preset cut to bench scale: 24
// channels, 20k viewer sessions over a 2 min horizon, 600 s mean stay and
// no join spike, so the herd attached at blackout time is steady. A
// Frankfurt-centred regional blackout starts at 60.25 s (off the 0.5 s
// admission-window grid) and lasts 30 s. Each grid cell sets the radius,
// the per-edge failover capacity and whether the control plane runs.
#ifndef LIVESIM_BENCH_BLACKOUT_CROWD_H
#define LIVESIM_BENCH_BLACKOUT_CROWD_H

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <utility>
#include <vector>

#include "livesim/analysis/flash_crowd.h"
#include "livesim/fault/scenario.h"
#include "livesim/geo/datacenters.h"

namespace livesim::bench {

/// Radii of the capacity x radius grid: 1, 6 and 7 dark edges. Each
/// darkens a different set (3000 km would repeat the 1500 km row).
inline constexpr double kBlackoutRadii[] = {0.0, 1500.0, 6000.0};

inline analysis::FlashCrowdConfig blackout_crowd(double radius_km,
                                                 std::uint64_t edge_capacity,
                                                 bool control,
                                                 unsigned threads = 0) {
  analysis::FlashCrowdConfig cfg;
  cfg.preset = workload::CrowdPreset::twitch_flash_crowd();
  cfg.preset.channels = 24;
  cfg.preset.viewers = 20000;
  cfg.preset.horizon = 2 * time::kMinute;
  cfg.preset.mean_session_s = 600.0;
  cfg.preset.spike_amplitude = 1.0;
  cfg.blackout_center = {50.11, 8.68};  // Frankfurt
  cfg.blackout_radius_km = radius_km;
  cfg.blackout_at = time::from_seconds(60.25);
  cfg.blackout_duration = 30 * time::kSecond;
  cfg.session.edge_capacity = edge_capacity;  // 0 = unbounded
  cfg.session.control.enabled = control;
  cfg.threads = threads;  // 0 = all hardware threads; results identical
  return cfg;
}

/// Edge sites the cell's blackout darkens: the kEdgeDown events of the
/// expanded scenario, exactly what every channel's service injects.
inline std::size_t dark_edges(const geo::DatacenterCatalog& catalog,
                              const analysis::FlashCrowdConfig& cfg) {
  fault::RegionalBlackoutSpec spec;
  spec.duration = cfg.blackout_duration;
  spec.center = cfg.blackout_center;
  spec.radius_km = cfg.blackout_radius_km;
  fault::FaultScenario scenario;
  scenario.add(spec);
  return scenario.expand(catalog, cfg.scenario_seed)
      .of_kind(fault::FaultKind::kEdgeDown)
      .size();
}

/// Ledger conservation every cell must hold: one overshoot sample per
/// spill, one wheel re-attachment sample per edge failover, and each
/// failover either scored or counted unscored.
inline bool conserved(const analysis::FlashCrowdStats& s) {
  return s.spill_distance_km.count() == s.edge_spills &&
         s.reattach_latency_s.count() == s.edge_failovers &&
         s.failovers_accounted();
}

/// Runs `cfg` at threads {1, 2, 8}, printing one fingerprint line each,
/// and returns whether all three agree. `out`, when set, receives the
/// (threads, fingerprint) pairs.
inline bool thread_fingerprints(
    const geo::DatacenterCatalog& catalog, analysis::FlashCrowdConfig cfg,
    const char* label,
    std::vector<std::pair<unsigned, std::uint64_t>>* out = nullptr) {
  bool identical = true;
  std::uint64_t first = 0;
  for (unsigned threads : {1u, 2u, 8u}) {
    cfg.threads = threads;
    const std::uint64_t fp =
        analysis::flash_crowd_experiment(catalog, cfg).fingerprint;
    if (threads == 1) first = fp;
    const bool same = fp == first;
    identical = identical && same;
    if (out != nullptr) out->emplace_back(threads, fp);
    std::printf("%s threads=%u fingerprint=%016" PRIx64 " identical: %s\n",
                label, threads, fp, same ? "yes" : "NO -- BUG");
  }
  return identical;
}

}  // namespace livesim::bench

#endif  // LIVESIM_BENCH_BLACKOUT_CROWD_H
