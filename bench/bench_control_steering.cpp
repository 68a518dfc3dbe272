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
#include <utility>
#include <vector>

#include "blackout_crowd.h"
#include "livesim/core/broadcast_session.h"
#include "livesim/fault/scenario.h"
#include "livesim/stats/report.h"
#include "livesim/util/json_writer.h"

namespace {
using namespace livesim;

struct GridCell {
  std::uint64_t capacity = 0;
  double radius_km = 0.0;
  std::size_t dark_edges = 0;
  core::SessionCounters reactive, proactive;
  bool lowers = false;
};

bool write_json(const char* path, const analysis::FlashCrowdConfig& model,
                bool off_quiet, const std::vector<GridCell>& grid,
                const std::vector<std::pair<unsigned, std::uint64_t>>& fps) {
  const auto& p = model.preset;
  const auto& control = model.session.control;
  JsonWriter w;
  w.begin_object().field("bench", "control_steering");
  w.field("schema_version", 2).field("model", "flash_crowd_experiment");
  w.key("crowd").begin_object().field("preset", p.name);
  w.field("channels", p.channels).field("viewers", p.viewers);
  w.field("horizon_s", time::to_seconds(p.horizon), 0);
  w.field("mean_session_s", p.mean_session_s, 0).end_object();
  w.key("blackout").begin_object();
  w.field("at_s", time::to_seconds(model.blackout_at), 2);
  w.field("duration_s", time::to_seconds(model.blackout_duration), 0);
  w.end_object();
  w.field("scrape_interval_ms", control.scrape_interval / time::kMillisecond);
  w.field("steer_latency_ms", control.steer_latency / time::kMillisecond);
  w.field("off_quiet", off_quiet).key("grid").begin_array();
  for (const GridCell& c : grid) {
    w.begin_object().field("capacity", c.capacity);
    w.field("radius_km", c.radius_km, 0).field("dark_edges", c.dark_edges);
    core::write_json(w.key("reactive"), c.reactive);
    core::write_json(w.key("proactive"), c.proactive);
    w.field("lowers_mean", c.lowers).end_object();
  }
  w.end_array();
  write_determinism(w, fps);
  w.end_object();
  return w.save(path);
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
    for (double radius : bench::kBlackoutRadii) {
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
      cell.reactive = off;
      cell.proactive = on;
      const double off_mean = off.edge_failover_latency_s.mean();
      const double on_mean = on.edge_failover_latency_s.mean();
      // A cell where either arm has no failovers has nothing to compare.
      cell.lowers = off.edge_failovers == 0 || on.edge_failovers == 0 ||
                    on_mean < off_mean;
      grid_lowers = grid_lowers && cell.lowers;
      grid.push_back(cell);

      table.add_row(
          {capacity
               ? stats::Table::integer(static_cast<std::int64_t>(capacity))
               : "inf",
           stats::Table::num(radius, 0),
           stats::Table::integer(static_cast<std::int64_t>(cell.dark_edges)),
           stats::Table::integer(
               static_cast<std::int64_t>(off.edge_failovers)),
           stats::Table::num(off_mean, 3),
           stats::Table::integer(
               static_cast<std::int64_t>(off.orphaned_viewers)),
           stats::Table::integer(
               static_cast<std::int64_t>(on.edge_failovers)),
           stats::Table::num(on_mean, 3),
           stats::Table::integer(
               static_cast<std::int64_t>(on.orphaned_viewers)),
           stats::Table::integer(
               static_cast<std::int64_t>(on.proactive_migrations)),
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
    const core::SessionCounters c = session.counters();
    std::printf("scrapes: %" PRIu64 "  publications: %" PRIu64
                "  deaths: %" PRIu64 "  proactive migrations: %" PRIu64
                " of %u viewers\n",
                cp->scrapes(), cp->publications(), cp->policy().deaths(),
                c.proactive_migrations, scfg.hls_viewers);
    // The monitor's detection window (one scrape + steer latency, 0.6 s)
    // beats the client's 2 s failover_detect_timeout: every viewer must
    // be migrated proactively, none reactively, none orphaned.
    if (c.proactive_migrations != 6 || c.edge_failovers != 6 ||
        c.orphaned_viewers != 0 || cp->policy().deaths() == 0) {
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

    const core::SessionCounters c = session.counters();
    std::printf("overlay assists: %" PRIu64 "  mesh peers: %" PRIu64
                "  server egress chunks: %" PRIu64 "  orphans: %" PRIu64
                "\n",
                c.overlay_assists,
                session.assist_mesh() ? session.assist_mesh()->peers() : 0,
                session.assist_mesh()
                    ? session.assist_mesh()->server_egress_chunks()
                    : 0,
                c.orphaned_viewers);
    // Two rings x capacity 1 admit two viewers; the other four are
    // capacity orphans the armed mesh must absorb — zero frozen players.
    if (c.overlay_assists != 4 || c.orphaned_viewers != 0 ||
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

  if (!write_json(out, model, off_quiet, grid, fps)) return 1;
  std::printf("wrote %s\n", out);
  std::printf("\nall checks passed\n");
  return 0;
}
