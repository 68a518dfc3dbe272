// Resilience under injected faults: what the paper's viewers would see
// when the Wowza->Fastly pipeline breaks.
//
// Part 1 sweeps the randomized fault rate. Each broadcast is one
// BroadcastSession (2 min, one RTMP and one HLS viewer, client poll retry
// on) with its own seeded fault script: ingest crashes, edge-cache
// flushes, broadcaster-uplink outages and chunk-corruption windows. Per
// rate it reports the viewers' stall ratio, the units the §6 fixed
// playback schedule discarded as late (it drops them; it never
// rebuffers), the RTMP->HLS failover latency, poll-retry give-ups and
// corrupted downloads. The zero-rate row must be inert (no faults,
// failovers, give-ups or corrupted downloads), and at every rate each
// failover must be scored or counted unscored exactly once; both are
// asserted through the exit code.
//
// Part 2 certifies the determinism contract: the rate-2.0 sweep gives one
// fingerprint at threads {1, 2, 8}. Broadcasts are stored by index and
// merged serially in index order, because Accumulator::merge is not
// bitwise associative: merging per-shard partials would depend on the
// shard count.
//
// Part 3 is an event-level demo: a scripted ingest crash mid-broadcast
// inside a full BroadcastSession. The RTMP viewers' dead connections are
// detected and every one of them is migrated onto the HLS path through
// the W2F edge machinery instead of being dropped.
//
// Usage: bench_resilience_fault_sweep [broadcasts]   (default 800)
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <vector>

#include "livesim/core/broadcast_session.h"
#include "livesim/sim/parallel.h"
#include "livesim/stats/report.h"
#include "livesim/stats/sampler.h"
#include "livesim/util/fingerprint.h"

namespace {
using namespace livesim;

constexpr std::uint64_t kSeed = 42;
// Salt for the fault-script substream: broadcast i's fault script and its
// session draws come from unrelated streams.
constexpr std::uint64_t kFaultSeedSalt = 0xFA175EEDULL;

struct Broadcast {
  core::SessionCounters counters;
  std::vector<core::BroadcastSession::ViewerResult> viewers;
};

struct Sweep {
  core::SessionCounters counters;
  stats::Sampler stall_ratio;          // per viewer
  stats::Accumulator units_discarded;  // per viewer
  std::uint64_t fingerprint = 0;       // every viewer result and ledger
};

Broadcast run_broadcast(const geo::DatacenterCatalog& catalog,
                        double faults_per_minute, std::size_t i) {
  core::SessionConfig cfg;
  cfg.broadcast_len = 2 * time::kMinute;
  cfg.rtmp_viewers = 1;
  cfg.hls_viewers = 1;
  cfg.seed = sim::substream_seed(kSeed, i);
  cfg.hls_poll_retry = true;
  fault::RandomFaultParams faults;
  faults.faults_per_minute = faults_per_minute;
  faults.horizon = cfg.broadcast_len;
  cfg.faults = fault::FaultSchedule::randomized(
      faults, sim::substream_seed(kSeed ^ kFaultSeedSalt, i));

  sim::Simulator sim;
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();
  return {session.counters(), session.viewer_results()};
}

Sweep run_sweep(const geo::DatacenterCatalog& catalog, int broadcasts,
                double faults_per_minute, unsigned threads) {
  const auto per_broadcast = sim::parallel_map<Broadcast>(
      static_cast<std::size_t>(broadcasts), threads, [&](std::size_t i) {
        return run_broadcast(catalog, faults_per_minute, i);
      });
  Sweep out;
  Fingerprint fp;
  for (const Broadcast& b : per_broadcast) {
    out.counters.merge(b.counters);
    for (const auto& v : b.viewers) {
      out.stall_ratio.add(v.stall_ratio);
      out.units_discarded.add(static_cast<double>(v.units_discarded));
      fp.mix(v.hls ? 1 : 0).mix(v.orphaned ? 1 : 0).mix_double(v.stall_ratio);
      fp.mix(v.units_played).mix(v.units_discarded);
    }
  }
  out.counters.for_each_field([&fp](const char*, const auto& field) {
    if constexpr (std::is_same_v<std::decay_t<decltype(field)>,
                                 stats::Accumulator>)
      fp.mix(field.count()).mix_double(field.mean()).mix_double(field.max());
    else
      fp.mix(field);
  });
  out.fingerprint = fp.value();
  return out;
}

unsigned long long ull(std::uint64_t v) {
  return static_cast<unsigned long long>(v);
}

std::string count(std::uint64_t v) {
  return stats::Table::integer(static_cast<std::int64_t>(v));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace livesim;
  int broadcasts = 800;
  if (argc > 1) broadcasts = std::atoi(argv[1]);
  if (broadcasts <= 0) broadcasts = 800;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();

  // --- Part 1: fault-rate sweep ---------------------------------------
  stats::print_banner("Resilience vs fault rate (randomized fault scripts)");
  const double rates[] = {0.0, 0.5, 1.0, 2.0, 4.0};
  stats::Table sweep({"Faults/min", "Stall p50", "Stall p90",
                      "Discarded mean", "RTMP failovers", "Failover mean (s)",
                      "Give-ups", "Corrupted"});
  for (double rate : rates) {
    // threads = 0: all hardware threads; results identical regardless.
    const Sweep r = run_sweep(catalog, broadcasts, rate, 0);
    const core::SessionCounters& c = r.counters;
    sweep.add_row(
        {stats::Table::num(rate, 1), stats::Table::num(r.stall_ratio.median(), 4),
         stats::Table::num(r.stall_ratio.quantile(0.90), 4),
         stats::Table::num(r.units_discarded.mean(), 2),
         count(c.rtmp_failovers),
         c.failover_latency_s.empty()
             ? "-"
             : stats::Table::num(c.failover_latency_s.mean(), 2),
         count(c.poll_retry_giveups), count(c.corrupted_downloads)});
    if (!c.failovers_accounted()) {
      std::printf("failover accounting VIOLATED at rate %.1f: rtmp %llu "
                  "scored + %llu unscored != %llu, edge %llu + %llu != %llu\n",
                  rate, ull(c.failover_latency_s.count()),
                  ull(c.unscored_rtmp_failovers), ull(c.rtmp_failovers),
                  ull(c.edge_failover_latency_s.count()),
                  ull(c.unscored_edge_failovers), ull(c.edge_failovers));
      return 1;
    }
    if (rate == 0.0) {
      // The contract: a zero fault rate must be indistinguishable from no
      // fault subsystem.
      const std::uint64_t failovers = c.rtmp_failovers + c.edge_failovers;
      std::printf("no-fault baseline: faults=%llu failovers=%llu "
                  "giveups=%llu corrupted=%llu\n",
                  ull(c.faults_injected), ull(failovers),
                  ull(c.poll_retry_giveups), ull(c.corrupted_downloads));
      if (c.faults_injected != 0 || failovers != 0 ||
          c.poll_retry_giveups != 0 || c.corrupted_downloads != 0) {
        std::printf("no-fault baseline VIOLATED\n");
        return 1;
      }
    }
  }
  sweep.print();
  std::printf("\nShape: stall, discarded units and RTMP failovers rise with "
              "the fault rate; failover latency stays near detect timeout + "
              "the HLS pre-buffer re-anchor.\n");

  // --- Part 2: thread-count determinism -------------------------------
  stats::print_banner("Determinism: same seed, threads {1, 2, 8}");
  std::uint64_t ref = 0;
  bool all_identical = true;
  for (unsigned threads : {1u, 2u, 8u}) {
    const std::uint64_t fp =
        run_sweep(catalog, broadcasts, 2.0, threads).fingerprint;
    if (threads == 1) ref = fp;
    const bool identical = fp == ref;
    all_identical = all_identical && identical;
    std::printf("threads=%u fingerprint=%016" PRIx64 " identical: %s\n",
                threads, fp, identical ? "yes" : "NO -- BUG");
  }
  if (!all_identical) return 1;

  // --- Part 3: ingest crash inside a full session ---------------------
  stats::print_banner(
      "Session demo: ingest crash at t=20s, RTMP viewers fail over via W2F");
  sim::Simulator sim;
  core::SessionConfig scfg;
  scfg.broadcast_len = 60 * time::kSecond;
  scfg.rtmp_viewers = 4;
  scfg.hls_viewers = 2;
  scfg.seed = 7;
  scfg.faults.add({20 * time::kSecond, fault::FaultKind::kIngestCrash,
                   10 * time::kSecond});
  core::BroadcastSession session(sim, catalog, scfg);
  session.start();
  sim.run();
  session.finalize();

  const core::SessionCounters c = session.counters();
  std::printf("faults injected:   %llu\n",
              static_cast<unsigned long long>(c.faults_injected));
  std::printf("rtmp failovers:    %llu of %u RTMP viewers\n",
              static_cast<unsigned long long>(c.rtmp_failovers),
              scfg.rtmp_viewers);
  if (c.failover_latency_s.count() > 0)
    std::printf("failover latency:  %.2fs mean (crash -> first HLS chunk)\n",
                c.failover_latency_s.mean());
  std::size_t migrated_playing = 0;
  for (const auto& v : session.viewer_results())
    if (v.hls) ++migrated_playing;
  std::printf("viewers on HLS at the end: %zu (started with %u)\n",
              migrated_playing, scfg.hls_viewers);
  if (c.rtmp_failovers != scfg.rtmp_viewers) {
    std::printf("FAILOVER INCOMPLETE -- expected every RTMP viewer to "
                "migrate\n");
    return 1;
  }
  std::printf("\nall checks passed\n");
  return 0;
}
