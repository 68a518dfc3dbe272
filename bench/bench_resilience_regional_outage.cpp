// Correlated regional failures & edge-to-edge failover.
//
// Part 1 sweeps the blackout radius of a regional outage over a steady
// Twitch-calibrated crowd run on the session model (blackout_crowd.h):
// as the radius grows, more edge PoPs go dark together and more attached
// viewers are hit, and survivors re-anycast farther. The zero-radius row is a contract: a single-PoP death
// darkens exactly one edge and re-anycasts its viewers (failovers > 0)
// with zero orphans. Every row must conserve its ledgers (one wheel
// re-attachment sample per failover).
//
// Part 2 certifies the determinism contract: the same config produces
// a bit-identical FlashCrowdStats::fingerprint at threads {1, 2, 8}.
//
// Part 3 is an event-level demo inside full sessions: a fault::
// FaultScenario blackout kills the edge all of a session's HLS viewers
// sit on, and every one re-anycasts to the next-nearest live edge
// (second pipeline flush counted in the edge-failover latency ledger);
// then LivestreamService::inject_scenario shares a single expanded
// outage across several concurrent broadcasts.
//
// Usage: bench_resilience_regional_outage
#include <cstdio>

#include "blackout_crowd.h"
#include "livesim/core/service.h"
#include "livesim/fault/scenario.h"
#include "livesim/stats/report.h"

int main() {
  using namespace livesim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();

  // --- Part 1: outage-radius sweep ------------------------------------
  stats::print_banner(
      "Regional blackout: viewer experience vs outage radius (Frankfurt)");
  const double radii[] = {0.0, 1000.0, 3000.0, 6000.0, 10000.0};
  stats::Table sweep({"Radius km", "Dark edges", "Affected %", "Failovers",
                      "Failover mean (s)", "Failover max (s)", "Orphaned"});
  for (double radius : radii) {
    const auto cfg = bench::blackout_crowd(radius, 0, /*control=*/false);
    const auto r = analysis::flash_crowd_experiment(catalog, cfg);
    const std::size_t dark = bench::dark_edges(catalog, cfg);
    const double denom = r.joins ? static_cast<double>(r.joins) : 1.0;
    sweep.add_row(
        {stats::Table::num(radius, 0),
         stats::Table::integer(static_cast<std::int64_t>(dark)),
         stats::Table::num(
             100.0 *
                 static_cast<double>(r.edge_failovers + r.orphaned_viewers +
                                     r.overlay_assists) /
                 denom,
             2),
         stats::Table::integer(static_cast<std::int64_t>(r.edge_failovers)),
         stats::Table::num(r.edge_failover_latency_s.mean(), 2),
         stats::Table::num(r.edge_failover_latency_s.max(), 2),
         stats::Table::integer(
             static_cast<std::int64_t>(r.orphaned_viewers))});
    if (!bench::conserved(r)) {
      std::printf("ledger conservation VIOLATED at radius %.0f\n", radius);
      return 1;
    }
    if (radius == 0.0) {
      // The contract: a single dead PoP re-anycasts its viewers -- no
      // orphans.
      std::printf("zero-radius contract: dark_edges=%zu failovers=%llu "
                  "orphaned=%llu\n",
                  dark, static_cast<unsigned long long>(r.edge_failovers),
                  static_cast<unsigned long long>(r.orphaned_viewers));
      if (dark != 1 || r.edge_failovers == 0 || r.orphaned_viewers != 0) {
        std::printf("zero-radius contract VIOLATED\n");
        return 1;
      }
    }
  }
  sweep.print();
  std::printf("\nShape: a wider blackout darkens more PoPs, touches more "
              "viewers, and pushes survivors onto farther edges (higher "
              "failover latency); with unbounded capacity nobody is "
              "orphaned while any edge is alive.\n");

  // --- Part 2: thread-count determinism -------------------------------
  stats::print_banner("Determinism: same seed, threads {1, 2, 8}");
  if (!bench::thread_fingerprints(
          catalog, bench::blackout_crowd(3000.0, 0, /*control=*/false),
          "regional"))
    return 1;

  // --- Part 3a: edge death inside a full session ----------------------
  stats::print_banner(
      "Session demo: the only edge in use dies at t=20s; everyone "
      "re-anycasts");
  {
    sim::Simulator sim;
    core::SessionConfig scfg;
    scfg.broadcast_len = 60 * time::kSecond;
    scfg.rtmp_viewers = 0;
    scfg.hls_viewers = 6;
    scfg.global_viewers = false;  // all six sit on the broadcaster's edge
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
    std::printf("edge failovers:    %llu of %u HLS viewers\n",
                static_cast<unsigned long long>(c.edge_failovers),
                scfg.hls_viewers);
    std::printf("orphaned viewers:  %llu\n",
                static_cast<unsigned long long>(c.orphaned_viewers));
    if (c.edge_failover_latency_s.count() > 0)
      std::printf("edge failover latency: %.2fs mean (death -> first chunk "
                  "via the new edge, second flush included)\n",
                  c.edge_failover_latency_s.mean());
    if (c.edge_failovers != scfg.hls_viewers || c.orphaned_viewers != 0) {
      std::printf("EDGE FAILOVER INCOMPLETE -- expected every HLS viewer "
                  "to re-anycast with zero orphans\n");
      return 1;
    }
  }

  // --- Part 3b: one scenario shared by concurrent broadcasts ----------
  stats::print_banner(
      "Service demo: one scripted outage injected into every live "
      "broadcast");
  {
    sim::Simulator sim;
    core::LivestreamService::Config cfg;
    cfg.rtmp_slot_cap = 0;  // everyone on HLS for this demo
    cfg.session_defaults.broadcast_len = 60 * time::kSecond;
    cfg.session_defaults.rtmp_viewers = 0;
    cfg.session_defaults.hls_viewers = 0;
    cfg.seed = 11;
    core::LivestreamService service(sim, catalog, cfg);

    const geo::GeoPoint sf{37.77, -122.42};
    std::vector<BroadcastId> ids;
    for (int b = 0; b < 3; ++b) {
      const BroadcastId id = service.start_broadcast(sf, 60 * time::kSecond);
      ids.push_back(id);
      for (int v = 0; v < 4; ++v) (void)service.join(id, sf);
    }

    fault::FaultScenario scenario;
    fault::RegionalBlackoutSpec spec;
    spec.at = 20 * time::kSecond;
    spec.duration = 15 * time::kSecond;
    spec.center = sf;
    spec.radius_km = 0.0;
    scenario.add(spec);
    const std::size_t hit = service.inject_scenario(scenario, cfg.seed);
    std::printf("scenario injected into %zu live broadcasts\n", hit);

    sim.run();
    const core::SessionCounters c = service.counters();
    std::printf("shared outage: faults=%llu edge_failovers=%llu "
                "orphaned=%llu across %zu broadcasts\n",
                static_cast<unsigned long long>(c.faults_injected),
                static_cast<unsigned long long>(c.edge_failovers),
                static_cast<unsigned long long>(c.orphaned_viewers),
                ids.size());
    if (hit != ids.size() || c.faults_injected == 0 ||
        c.edge_failovers != 12 || c.orphaned_viewers != 0) {
      std::printf("SERVICE SCENARIO INJECTION FAILED -- expected all 12 "
                  "viewers to re-anycast in every broadcast\n");
      return 1;
    }
  }

  std::printf("\nall checks passed\n");
  return 0;
}
