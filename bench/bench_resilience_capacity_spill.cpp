// Load-aware re-anycast: per-edge capacity and the spill policy.
//
// Part 1 sweeps capacity x outage radius over a steady Twitch-calibrated
// crowd run on the session model (blackout_crowd.h): as capacity
// tightens, failed-over viewers overflow past full PoPs (spills), travel
// farther (overshoot km), and -- once every live candidate is full --
// orphan for capacity reasons rather than blackout reasons. Two
// contracts per cell: with unbounded capacity nothing spills and nobody
// is orphaned, and every cell conserves its ledgers (one overshoot
// sample per spill, one wheel re-attachment sample per failover).
//
// Part 2 certifies determinism with a FINITE capacity: each channel's
// spill admissions run serially inside its own simulator, so threads
// {1, 2, 8} fingerprint identically.
//
// Part 3 is an event-level session demo: six co-located viewers, edge
// capacity two, their PoP dies -- two land on the nearest live edge and
// four spill outward ring by ring, counted in the session's spill
// ledger.
//
// Usage: bench_resilience_capacity_spill
#include <cstdio>

#include "blackout_crowd.h"
#include "livesim/core/broadcast_session.h"
#include "livesim/fault/scenario.h"
#include "livesim/stats/report.h"

int main() {
  using namespace livesim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();

  // --- Part 1: capacity x radius sweep --------------------------------
  stats::print_banner(
      "Capacity x outage radius: spills, overshoot, capacity orphans");
  stats::Table sweep({"Capacity", "Radius km", "Dark", "Failovers",
                      "Failover mean (s)", "Spills", "Overshoot km",
                      "Orphans", "Peak load max"});
  for (std::uint64_t capacity : {std::uint64_t{0}, std::uint64_t{100},
                                 std::uint64_t{25}}) {
    for (double radius : bench::kBlackoutRadii) {
      const auto cfg = bench::blackout_crowd(radius, capacity,
                                             /*control=*/false);
      const auto r = analysis::flash_crowd_experiment(catalog, cfg);
      sweep.add_row(
          {capacity ? stats::Table::integer(
                          static_cast<std::int64_t>(capacity))
                    : "inf",
           stats::Table::num(radius, 0),
           stats::Table::integer(static_cast<std::int64_t>(
               bench::dark_edges(catalog, cfg))),
           stats::Table::integer(static_cast<std::int64_t>(r.edge_failovers)),
           stats::Table::num(r.edge_failover_latency_s.mean(), 2),
           stats::Table::integer(static_cast<std::int64_t>(r.edge_spills)),
           r.spill_distance_km.count() == 0
               ? "-"
               : stats::Table::num(r.spill_distance_km.mean(), 0),
           stats::Table::integer(
               static_cast<std::int64_t>(r.orphaned_viewers)),
           stats::Table::integer(
               static_cast<std::int64_t>(r.peak_edge_load))});
      if (!bench::conserved(r)) {
        std::printf("ledger conservation VIOLATED: capacity=%llu "
                    "radius=%.0f\n",
                    static_cast<unsigned long long>(capacity), radius);
        return 1;
      }
      if (capacity == 0 && (r.edge_spills != 0 || r.orphaned_viewers != 0)) {
        std::printf("unbounded-capacity contract VIOLATED at radius %.0f: "
                    "spills=%llu orphans=%llu\n",
                    radius, static_cast<unsigned long long>(r.edge_spills),
                    static_cast<unsigned long long>(r.orphaned_viewers));
        return 1;
      }
    }
  }
  sweep.print();
  std::printf("\nShape: tighter capacity turns nearest-edge failovers into "
              "ring-by-ring spills (overshoot km grows), and once every "
              "live candidate is full, into capacity orphans.\n");

  // --- Part 2: finite-capacity determinism ----------------------------
  stats::print_banner(
      "Determinism with finite capacity: same seed, threads {1, 2, 8}");
  if (!bench::thread_fingerprints(
          catalog, bench::blackout_crowd(0.0, 25, /*control=*/false),
          "capacity_spill"))
    return 1;

  // --- Part 3: session demo — the pile-up, event by event -------------
  stats::print_banner(
      "Session demo: 6 co-located viewers, capacity 2, their PoP dies");
  {
    sim::Simulator sim;
    core::SessionConfig scfg;
    scfg.broadcast_len = 60 * time::kSecond;
    scfg.rtmp_viewers = 0;
    scfg.hls_viewers = 6;
    scfg.global_viewers = false;  // all six sit on the broadcaster's edge
    scfg.edge_capacity = 2;      // failover admissions only; joins are blind
    scfg.seed = 7;
    fault::FaultScenario scenario;
    fault::RegionalBlackoutSpec spec;
    spec.at = 20 * time::kSecond;
    spec.duration = 15 * time::kSecond;
    spec.center = scfg.broadcaster_location;
    spec.radius_km = 0.0;  // exactly the PoP the viewers are attached to
    scenario.add(spec);
    scfg.faults = scenario.expand(catalog, scfg.seed);

    core::BroadcastSession session(sim, catalog, scfg);
    session.start();
    sim.run();
    session.finalize();

    const core::SessionCounters c = session.counters();
    std::printf("edge failovers:  %llu of %u HLS viewers\n",
                static_cast<unsigned long long>(c.edge_failovers),
                scfg.hls_viewers);
    std::printf("edge spills:     %llu (admissions past a full edge)\n",
                static_cast<unsigned long long>(c.edge_spills));
    if (!c.spill_distance_km.empty())
      std::printf("spill overshoot: %.0f km mean past the nearest live "
                  "edge\n",
                  c.spill_distance_km.mean());
    std::printf("peak loads:     ");
    for (const auto& [site, peak] : session.edge_peak_loads())
      std::printf(" %s=%llu", catalog.get(DatacenterId{site}).city.c_str(),
                  static_cast<unsigned long long>(peak));
    std::printf("\n");

    // Capacity 2 admits two viewers to the nearest live edge; the other
    // four must overflow outward — four spills, zero orphans.
    if (c.edge_failovers != 6 || c.orphaned_viewers != 0 ||
        c.edge_spills != 4 || c.spill_distance_km.count() != 4) {
      std::printf("SESSION SPILL CONTRACT VIOLATED -- expected 6 failovers, "
                  "4 spills, 0 orphans\n");
      return 1;
    }
  }

  std::printf("\nall checks passed\n");
  return 0;
}
