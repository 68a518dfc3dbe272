// Control plane: proactive drain detection vs reactive failover.
//
// Part 1 runs the capacity x outage-radius blackout grid of
// bench_resilience_capacity_spill on the session model
// (blackout_crowd.h) twice per cell: control plane off (reactive: every
// viewer burns its own failed poll + 2 s detect window) and on (the
// HealthMonitor scrapes the dying PoP, publishes the death after
// steer_latency, and the attached viewers are migrated proactively).
// Contracts per cell: the control-off arm shows no control activity
// (proactive_migrations == steered_joins == control_drains == 0), both
// arms conserve their ledgers, and wherever the blackout forced
// failovers the proactive mean failover latency is strictly below the
// reactive one. Steering is not free under finite capacity: the control
// plane drains edges that load-blind joins pushed near capacity, a
// drained edge is no failover candidate, and the steered arm can orphan
// MORE viewers than the reactive one; the table shows both orphan
// counts.
//
// Part 2 certifies determinism: threads {1, 2, 8} fingerprint
// identically with steering on and a finite capacity.
//
// Part 3 is an event-level session demo on the engine: the monitor
// scrapes a dying PoP, publishes the death after steer_latency, and the
// attached viewers are migrated proactively -- before their own poll
// timeout + detect window would have noticed -- then a second run with
// tight capacity shows the overlay assist parking capacity orphans on
// the P2P mesh.
//
// Results land in BENCH_control.json (grid + fingerprints) so CI can
// archive them next to BENCH_engine.json.
//
// Usage: bench_control_steering [out.json]
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "blackout_crowd.h"
#include "livesim/core/broadcast_session.h"
#include "livesim/fault/scenario.h"
#include "livesim/stats/report.h"

namespace {
using namespace livesim;

struct Arm {
  std::uint64_t failovers = 0;
  std::uint64_t orphans = 0;
  double mean_s = 0.0;
  std::uint64_t proactive_migrations = 0;
};

Arm arm_of(const analysis::FlashCrowdStats& r) {
  return {r.edge_failovers, r.orphaned_viewers,
          r.edge_failover_latency_s.mean(), r.proactive_migrations};
}

struct GridCell {
  std::uint64_t capacity = 0;
  double radius_km = 0.0;
  std::size_t dark_edges = 0;
  Arm reactive, proactive;
  bool lowers = false;
};

void write_arm(std::FILE* f, const char* name, const Arm& a) {
  std::fprintf(f,
               "\"%s\": {\"failovers\": %" PRIu64 ", \"orphans\": %" PRIu64
               ", \"mean_failover_s\": %.3f, \"proactive_migrations\": %" PRIu64
               "}",
               name, a.failovers, a.orphans, a.mean_s, a.proactive_migrations);
}

void write_json(const char* path, const analysis::FlashCrowdConfig& model,
                bool off_quiet, const std::vector<GridCell>& grid,
                const std::vector<std::pair<unsigned, std::uint64_t>>& fps,
                bool det_ok) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"control_steering\",\n");
  std::fprintf(f, "  \"model\": \"flash_crowd_experiment\",\n");
  std::fprintf(f,
               "  \"crowd\": {\"preset\": \"%s\", \"channels\": %u, "
               "\"viewers\": %u, \"horizon_s\": %.0f, "
               "\"mean_session_s\": %.0f},\n",
               model.preset.name.c_str(), model.preset.channels,
               model.preset.viewers, time::to_seconds(model.preset.horizon),
               model.preset.mean_session_s);
  std::fprintf(f,
               "  \"blackout\": {\"at_s\": %.2f, \"duration_s\": %.0f},\n",
               time::to_seconds(model.blackout_at),
               time::to_seconds(model.blackout_duration));
  std::fprintf(f, "  \"scrape_interval_ms\": %lld,\n",
               static_cast<long long>(model.session.control.scrape_interval /
                                      time::kMillisecond));
  std::fprintf(f, "  \"steer_latency_ms\": %lld,\n",
               static_cast<long long>(model.session.control.steer_latency /
                                      time::kMillisecond));
  std::fprintf(f, "  \"off_quiet\": %s,\n", off_quiet ? "true" : "false");
  std::fprintf(f, "  \"grid\": [\n");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const GridCell& c = grid[i];
    std::fprintf(f,
                 "    {\"capacity\": %" PRIu64 ", \"radius_km\": %.0f, "
                 "\"dark_edges\": %zu, ",
                 c.capacity, c.radius_km, c.dark_edges);
    write_arm(f, "reactive", c.reactive);
    std::fprintf(f, ", ");
    write_arm(f, "proactive", c.proactive);
    std::fprintf(f, ", \"lowers_mean\": %s}%s\n", c.lowers ? "true" : "false",
                 i + 1 < grid.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"determinism\": {\"threads\": [");
  for (std::size_t i = 0; i < fps.size(); ++i)
    std::fprintf(f, "%u%s", fps[i].first, i + 1 < fps.size() ? ", " : "");
  std::fprintf(f, "], \"fingerprints\": [");
  for (std::size_t i = 0; i < fps.size(); ++i)
    std::fprintf(f, "\"%016" PRIx64 "\"%s", fps[i].second,
                 i + 1 < fps.size() ? ", " : "");
  std::fprintf(f, "], \"identical\": %s}\n", det_ok ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace livesim;
  const char* out = argc > 1 ? argv[1] : "BENCH_control.json";
  const auto catalog = geo::DatacenterCatalog::paper_footprint();

  // --- Part 1: reactive vs proactive on the blackout grid --------------
  stats::print_banner(
      "Blackout grid: reactive vs proactive failover (control off / on)");
  stats::Table table({"Capacity", "Radius km", "Dark", "React fo",
                      "React mean s", "React orph", "Proact fo",
                      "Proact mean s", "Proact orph", "Migrations",
                      "Lowers"});
  std::vector<GridCell> grid;
  bool off_quiet = true;
  bool grid_lowers = true;
  const auto model = bench::blackout_crowd(0.0, 0, /*control=*/true);
  for (std::uint64_t capacity : {std::uint64_t{0}, std::uint64_t{100},
                                 std::uint64_t{25}}) {
    for (double radius : {0.0, 1500.0, 3000.0}) {
      const auto off_cfg = bench::blackout_crowd(radius, capacity, false);
      const auto off = analysis::flash_crowd_experiment(catalog, off_cfg);
      const auto on = analysis::flash_crowd_experiment(
          catalog, bench::blackout_crowd(radius, capacity, true));

      // Off-parity: with the control plane off nothing may be steered.
      const bool quiet = off.proactive_migrations == 0 &&
                         off.steered_joins == 0 && off.control_drains == 0;
      off_quiet = off_quiet && quiet;
      if (!quiet || !bench::conserved(off) || !bench::conserved(on)) {
        std::printf("control-off quiet / conservation VIOLATED: "
                    "capacity=%" PRIu64 " radius=%.0f\n",
                    capacity, radius);
        return 1;
      }

      GridCell cell;
      cell.capacity = capacity;
      cell.radius_km = radius;
      cell.dark_edges = bench::dark_edges(catalog, off_cfg);
      cell.reactive = arm_of(off);
      cell.proactive = arm_of(on);
      // A cell where either arm has no failovers has nothing to compare.
      cell.lowers = off.edge_failovers == 0 || on.edge_failovers == 0 ||
                    cell.proactive.mean_s < cell.reactive.mean_s;
      grid_lowers = grid_lowers && cell.lowers;
      grid.push_back(cell);

      table.add_row(
          {capacity
               ? stats::Table::integer(static_cast<std::int64_t>(capacity))
               : "inf",
           stats::Table::num(radius, 0),
           stats::Table::integer(static_cast<std::int64_t>(cell.dark_edges)),
           stats::Table::integer(
               static_cast<std::int64_t>(cell.reactive.failovers)),
           stats::Table::num(cell.reactive.mean_s, 3),
           stats::Table::integer(
               static_cast<std::int64_t>(cell.reactive.orphans)),
           stats::Table::integer(
               static_cast<std::int64_t>(cell.proactive.failovers)),
           stats::Table::num(cell.proactive.mean_s, 3),
           stats::Table::integer(
               static_cast<std::int64_t>(cell.proactive.orphans)),
           stats::Table::integer(static_cast<std::int64_t>(
               cell.proactive.proactive_migrations)),
           cell.lowers ? "yes" : "NO"});
    }
  }
  table.print();
  std::printf("control-off arm quiet (no migrations, steered joins or "
              "drains): %s\n",
              off_quiet ? "yes" : "NO -- BUG");
  std::printf("control_steering proactive mean failover < reactive on "
              "blackout grid: %s\n",
              grid_lowers ? "yes" : "NO -- BUG");
  if (!grid_lowers) return 1;

  // --- Part 2: determinism with steering ON, threads {1, 2, 8} --------
  stats::print_banner(
      "Determinism with steering: same seed, threads {1, 2, 8}");
  std::vector<std::pair<unsigned, std::uint64_t>> fps;
  const bool det_ok = bench::thread_fingerprints(
      catalog, bench::blackout_crowd(0.0, 25, /*control=*/true),
      "control_steering", &fps);
  if (!det_ok) return 1;

  // --- Part 3: session demo on the engine -----------------------------
  stats::print_banner(
      "Session demo: scrape -> publish -> proactive migration");
  {
    sim::Simulator sim;
    core::SessionConfig scfg;
    scfg.broadcast_len = 60 * time::kSecond;
    scfg.rtmp_viewers = 0;
    scfg.hls_viewers = 6;
    scfg.global_viewers = false;  // all six sit on the broadcaster's edge
    scfg.seed = 7;
    scfg.control.enabled = true;
    fault::FaultScenario scenario;
    fault::RegionalBlackoutSpec spec;
    spec.at = 20 * time::kSecond;
    spec.duration = 15 * time::kSecond;
    spec.center = scfg.broadcaster_location;
    spec.radius_km = 0.0;
    scenario.add(spec);
    scfg.faults = scenario.expand(catalog, scfg.seed);

    core::BroadcastSession session(sim, catalog, scfg);
    session.start();
    sim.run();
    session.finalize();

    const auto* cp = session.control_plane();
    std::printf("scrapes: %" PRIu64 "  publications: %" PRIu64
                "  deaths: %" PRIu64 "  proactive migrations: %" PRIu64
                " of %u viewers\n",
                cp->scrapes(), cp->publications(), cp->policy().deaths(),
                session.proactive_migrations(), scfg.hls_viewers);
    // The monitor's detection window (one scrape + steer latency, 0.6 s)
    // beats the client's 2 s failover_detect_timeout: every viewer must
    // be migrated proactively, none reactively, none orphaned.
    if (session.proactive_migrations() != 6 ||
        session.edge_failovers() != 6 || session.orphaned_viewers() != 0 ||
        cp->policy().deaths() == 0) {
      std::printf("SESSION STEERING CONTRACT VIOLATED -- expected 6 "
                  "proactive migrations, 0 orphans\n");
      return 1;
    }
    std::printf("session steering contract: proactive beats the client "
                "timeout: yes\n");
  }

  stats::print_banner(
      "Session demo: overlay assist parks capacity orphans on the mesh");
  {
    sim::Simulator sim;
    core::SessionConfig scfg;
    scfg.broadcast_len = 60 * time::kSecond;
    scfg.rtmp_viewers = 0;
    scfg.hls_viewers = 6;
    scfg.global_viewers = false;
    scfg.edge_capacity = 1;       // failover admits one viewer per edge
    scfg.failover_spill_k = 2;    // two candidate rings only
    scfg.seed = 7;
    scfg.control.enabled = true;
    scfg.control.overlay_assist = true;
    scfg.control.saturation_fraction = 0.5;
    fault::FaultScenario scenario;
    fault::RegionalBlackoutSpec spec;
    spec.at = 20 * time::kSecond;
    spec.duration = 15 * time::kSecond;
    spec.center = scfg.broadcaster_location;
    spec.radius_km = 0.0;
    scenario.add(spec);
    scfg.faults = scenario.expand(catalog, scfg.seed);

    core::BroadcastSession session(sim, catalog, scfg);
    session.start();
    sim.run();
    session.finalize();

    std::printf("overlay assists: %" PRIu64 "  mesh peers: %" PRIu64
                "  server egress chunks: %" PRIu64 "  orphans: %" PRIu64
                "\n",
                session.overlay_assists(),
                session.assist_mesh() ? session.assist_mesh()->peers() : 0,
                session.assist_mesh()
                    ? session.assist_mesh()->server_egress_chunks()
                    : 0,
                session.orphaned_viewers());
    // Two rings x capacity 1 admit two viewers; the other four are
    // capacity orphans the armed mesh must absorb — zero frozen players.
    if (session.overlay_assists() != 4 || session.orphaned_viewers() != 0 ||
        session.assist_mesh() == nullptr ||
        session.assist_mesh()->peers() != 4 ||
        session.assist_mesh()->server_egress_chunks() == 0) {
      std::printf("OVERLAY ASSIST CONTRACT VIOLATED -- expected 4 mesh "
                  "rescues, 0 orphans\n");
      return 1;
    }
    std::printf("overlay assist contract: capacity orphans ride the mesh: "
                "yes\n");
  }

  write_json(out, model, off_quiet, grid, fps, det_ok);
  std::printf("wrote %s\n", out);
  std::printf("\nall checks passed\n");
  return 0;
}
