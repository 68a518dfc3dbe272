// Resilience-subsystem acceptance tests (ctest label: resilience).
//
// Three contracts are pinned here:
//  1. No-fault parity: with an empty FaultSchedule the fault machinery is
//     fully inert — the §5.2/§6 experiment pipelines produce bit-identical
//     output at threads 1 and 8, and a session reports zero fault
//     activity.
//  2. Thread determinism: fixed-seed sessions with randomized fault
//     scripts, sharded over a thread pool, are byte-identical at threads
//     {1, 2, 8}.
//  3. Failover accounting: an ingest crash mid-broadcast migrates every
//     RTMP viewer onto the HLS/W2F path instead of dropping them, and the
//     latency ledger matches the migration count.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "livesim/analysis/experiments.h"
#include "livesim/core/broadcast_session.h"
#include "livesim/core/service.h"
#include "livesim/fault/scenario.h"
#include "livesim/sim/parallel.h"
#include "livesim/util/fingerprint.h"
#include "livesim/workload/crowd.h"
#include "session_fingerprint.h"

namespace {
using namespace livesim;

std::uint64_t fingerprint(const stats::Sampler& s) {
  Fingerprint h;
  for (double x : s.samples()) h.mix_double(x);
  return h.value();
}

std::vector<analysis::BroadcastTrace> small_trace_set(unsigned threads) {
  analysis::TraceSetConfig cfg;
  cfg.broadcasts = 120;
  cfg.broadcast_len = time::kMinute;
  cfg.seed = 11;
  cfg.threads = threads;
  return analysis::generate_traces(cfg);
}

// --- 1. No-fault parity ----------------------------------------------

TEST(NoFaultParity, PollingPipelineIdenticalAtThreads1And8) {
  const auto t1 = small_trace_set(1);
  const auto t8 = small_trace_set(8);
  const auto p1 = analysis::polling_experiment(t1, 3 * time::kSecond,
                                               300 * time::kMillisecond, 5, 1);
  const auto p8 = analysis::polling_experiment(t8, 3 * time::kSecond,
                                               300 * time::kMillisecond, 5, 8);
  EXPECT_EQ(fingerprint(p1.per_broadcast_mean_s),
            fingerprint(p8.per_broadcast_mean_s));
  EXPECT_EQ(fingerprint(p1.per_broadcast_std_s),
            fingerprint(p8.per_broadcast_std_s));
}

TEST(NoFaultParity, BufferingPipelineIdenticalAtThreads1And8) {
  const auto t1 = small_trace_set(1);
  const auto t8 = small_trace_set(8);
  const auto b1 =
      analysis::rtmp_buffering_experiment(t1, time::kSecond, 5, 1);
  const auto b8 =
      analysis::rtmp_buffering_experiment(t8, time::kSecond, 5, 8);
  EXPECT_EQ(fingerprint(b1.stall_ratio), fingerprint(b8.stall_ratio));
  EXPECT_EQ(fingerprint(b1.mean_delay_s), fingerprint(b8.mean_delay_s));
}

TEST(NoFaultParity, SessionWithEmptyScheduleReportsNoFaultActivity) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 20 * time::kSecond;
  cfg.rtmp_viewers = 2;
  cfg.hls_viewers = 2;
  cfg.seed = 9;
  ASSERT_TRUE(cfg.faults.empty());  // the default is faults-disabled
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();
  EXPECT_EQ(session.counters().faults_injected, 0u);
  EXPECT_EQ(session.counters().rtmp_failovers, 0u);
  EXPECT_EQ(session.counters().corrupted_downloads, 0u);
  EXPECT_TRUE(session.counters().failover_latency_s.empty());
  for (const auto& v : session.viewer_results())
    EXPECT_GT(v.units_played, 0u);
}

// --- 2. Thread determinism -------------------------------------------

// Broadcast i of a fault-rate sweep: a short session with one viewer per
// tier, poll retry on, and its own randomized fault script drawn from a
// substream of `seed`. Returns the session fingerprint and its ledgers.
struct FaultyBroadcast {
  std::uint64_t fingerprint = 0;
  core::SessionCounters counters;
};

FaultyBroadcast randomized_fault_session(const geo::DatacenterCatalog& catalog,
                                         std::uint64_t seed, std::size_t i) {
  core::SessionConfig cfg;
  cfg.broadcast_len = 40 * time::kSecond;
  cfg.rtmp_viewers = 1;
  cfg.hls_viewers = 1;
  cfg.seed = sim::substream_seed(seed, i);
  cfg.hls_poll_retry = true;
  fault::RandomFaultParams faults;
  faults.faults_per_minute = 4.0;
  faults.horizon = cfg.broadcast_len;
  faults.edge_down_weight = 1.0;  // every fault kind the session handles
  cfg.faults = fault::FaultSchedule::randomized(
      faults, sim::substream_seed(seed ^ 0xFA175EEDULL, i));
  sim::Simulator sim;
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();
  return {session_fingerprint(session).value(), session.counters()};
}

std::vector<std::uint64_t> ledger_words(const core::SessionCounters& c);

// Sessions sharded over the pool, stored by broadcast index, folded in
// index order: the same bytes at every thread count.
std::uint64_t fault_sweep_fingerprint(std::uint64_t seed, unsigned threads,
                                      core::SessionCounters* merged) {
  constexpr std::size_t kBroadcasts = 36;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  std::vector<FaultyBroadcast> runs(kBroadcasts);
  sim::parallel_for_shards(
      kBroadcasts, threads,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
          runs[i] = randomized_fault_session(catalog, seed, i);
      });
  Fingerprint h;
  for (const FaultyBroadcast& r : runs) {
    h.mix(r.fingerprint);
    merged->merge(r.counters);
  }
  return h.value();
}

TEST(ResilienceDeterminism, ByteIdenticalAtThreads128) {
  core::SessionCounters c1;
  const std::uint64_t fp1 = fault_sweep_fingerprint(77, 1, &c1);
  ASSERT_GT(c1.faults_injected, 0u);
  ASSERT_GT(c1.rtmp_failovers, 0u);
  ASSERT_GT(c1.edge_failovers, 0u);
  EXPECT_TRUE(c1.failovers_accounted());
  for (unsigned threads : {2u, 8u}) {
    core::SessionCounters cn;
    EXPECT_EQ(fault_sweep_fingerprint(77, threads, &cn), fp1)
        << "fault sessions diverged at threads=" << threads;
    EXPECT_EQ(ledger_words(cn), ledger_words(c1)) << threads;
  }
}

// The seed reaches every session: its fault scripts and its viewers.
TEST(ResilienceDeterminism, SeedChangesResults) {
  core::SessionCounters a, b;
  const std::uint64_t fp_a = fault_sweep_fingerprint(77, 1, &a);
  const std::uint64_t fp_b = fault_sweep_fingerprint(78, 1, &b);
  EXPECT_NE(fp_a, fp_b);
  EXPECT_NE(ledger_words(a), ledger_words(b));
}

TEST(ResilienceDeterminism, FaultySessionIsReproducible) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  auto run = [&] {
    sim::Simulator sim;
    core::SessionConfig cfg;
    cfg.broadcast_len = 40 * time::kSecond;
    cfg.rtmp_viewers = 3;
    cfg.hls_viewers = 1;
    cfg.seed = 13;
    cfg.faults.add({15 * time::kSecond, fault::FaultKind::kIngestCrash,
                    8 * time::kSecond});
    cfg.faults.add({25 * time::kSecond, fault::FaultKind::kEdgeCacheFlush, 0});
    core::BroadcastSession session(sim, catalog, cfg);
    session.start();
    sim.run();
    session.finalize();
    Fingerprint h;
    for (const auto& v : session.viewer_results()) {
      h.mix(v.hls ? 1 : 0);
      h.mix_double(v.stall_ratio);
      h.mix_double(v.mean_buffering_s);
      h.mix(v.units_played);
    }
    h.mix(session.counters().rtmp_failovers);
    h.mix_double(session.counters().failover_latency_s.mean());
    return h.value();
  };
  EXPECT_EQ(run(), run());
}

// --- 3. Failover accounting ------------------------------------------

TEST(Failover, IngestCrashMigratesEveryRtmpViewerViaW2f) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 60 * time::kSecond;
  cfg.rtmp_viewers = 3;
  cfg.hls_viewers = 1;
  cfg.seed = 4;
  cfg.faults.add({20 * time::kSecond, fault::FaultKind::kIngestCrash,
                  10 * time::kSecond});
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();

  EXPECT_EQ(session.counters().faults_injected, 1u);
  EXPECT_EQ(session.counters().rtmp_failovers, cfg.rtmp_viewers);
  // One latency sample per migration, measured crash -> first HLS chunk,
  // so it is at least the detect timeout.
  ASSERT_EQ(session.counters().failover_latency_s.count(), cfg.rtmp_viewers);
  EXPECT_GE(session.counters().failover_latency_s.min(),
            time::to_seconds(cfg.failover_detect_timeout));

  // Every viewer ends on the HLS path and kept playing after the crash.
  std::size_t on_hls = 0;
  for (const auto& v : session.viewer_results()) {
    if (v.hls) ++on_hls;
    EXPECT_GT(v.units_played, 0u);
  }
  EXPECT_EQ(on_hls, session.viewer_count());
}

TEST(Failover, MigratedViewersKeepPlayingAfterTheCrash) {
  // Crash at t=15s (5 s down) in a 60 s broadcast. Without failover the
  // RTMP viewers would freeze at the crash point; with it, each migrated
  // viewer's post-migration HLS schedule must receive and smoothly play
  // most of the post-restart media (~40 s of it).
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 60 * time::kSecond;
  cfg.rtmp_viewers = 2;
  cfg.hls_viewers = 0;
  cfg.seed = 21;
  cfg.faults.add({15 * time::kSecond, fault::FaultKind::kIngestCrash,
                  5 * time::kSecond});
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();

  ASSERT_EQ(session.counters().rtmp_failovers, 2u);
  for (std::size_t i = 0; i < session.viewer_count(); ++i) {
    // viewer_playback is the live schedule — post-migration, the fresh
    // HLS one. It re-anchored (started) and got the rest of the stream.
    const auto& pb = session.viewer_playback(i);
    EXPECT_TRUE(pb.started());
    EXPECT_GE(pb.media_offered(), 30 * time::kSecond);
    EXPECT_EQ(pb.units_discarded(), 0u);
  }
  // Merged (RTMP phase + HLS phase) per-viewer results barely stall.
  for (const auto& v : session.viewer_results()) {
    EXPECT_TRUE(v.hls);
    EXPECT_LT(v.stall_ratio, 0.2);
  }
}

TEST(Failover, RtmpToHlsResumePointFollowsTheChunkLedger) {
  // A migrated RTMP viewer resumes HLS after the last chunk the ingest
  // sealed by the crash. The crash drops 10 s of frames, so the chunk
  // that opens after the restart need not start on a keyframe.
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 60 * time::kSecond;
  cfg.rtmp_viewers = 3;
  cfg.hls_viewers = 1;
  cfg.seed = 4;
  const TimeUs crash = 20 * time::kSecond;
  cfg.faults.add({crash, fault::FaultKind::kIngestCrash, 10 * time::kSecond});
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();

  // Pinned from the node-map ledger this vector ledger replaced.
  constexpr std::int64_t kResumeAfter = 5;
  constexpr DurationUs kOffered[] = {32040000, 32040000, 32040000};
  constexpr std::uint64_t kKeyedChunks = 17;

  const auto completed = session.chunk_completed_at();
  std::int64_t resume_after = -1;
  for (std::size_t seq = 0; seq < completed.size(); ++seq)
    if (completed[seq] <= crash) resume_after = static_cast<std::int64_t>(seq);
  EXPECT_EQ(resume_after, kResumeAfter);
  ASSERT_EQ(session.counters().rtmp_failovers, cfg.rtmp_viewers);
  // Media each migrated viewer's HLS schedule was offered: one chunk
  // more or less than the pinned resume point moves it by ~3 s.
  for (std::size_t i = 0; i < cfg.rtmp_viewers; ++i)
    EXPECT_EQ(session.viewer_playback(i).media_offered(), kOffered[i]) << i;
  EXPECT_EQ(session.hls_breakdown().upload_s.count(), kKeyedChunks);
  EXPECT_EQ(session.hls_breakdown().chunking_s.count(), kKeyedChunks);
}

// --- 4. Correlated fault scenarios -----------------------------------

std::uint64_t fingerprint(const fault::FaultSchedule& s) {
  Fingerprint h;
  for (const auto& e : s.events()) {
    h.mix(static_cast<std::uint64_t>(e.at));
    h.mix(static_cast<std::uint64_t>(e.kind));
    h.mix(static_cast<std::uint64_t>(e.duration));
    h.mix(e.target);
    h.mix_double(e.magnitude);
  }
  return h.value();
}

TEST(ScenarioExpansion, EmptyScenarioExpandsToEmptySchedule) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  fault::FaultScenario scenario;
  EXPECT_TRUE(scenario.empty());
  EXPECT_TRUE(scenario.expand(catalog, 1).empty());
}

TEST(ScenarioExpansion, ZeroRadiusBlackoutKillsExactlyTheNearestEdge) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  fault::RegionalBlackoutSpec spec;
  spec.center = {50.11, 8.68};  // Frankfurt
  spec.radius_km = 0.0;
  const auto sites = fault::FaultScenario::blackout_sites(catalog, spec);
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0].value,
            catalog.nearest(spec.center, geo::CdnRole::kEdge).id.value);

  fault::FaultScenario scenario;
  scenario.add(spec);
  const auto schedule = scenario.expand(catalog, 1);
  ASSERT_EQ(schedule.size(), 1u);
  EXPECT_EQ(schedule.events()[0].kind, fault::FaultKind::kEdgeDown);
  EXPECT_EQ(schedule.events()[0].target, sites[0].value);
}

TEST(ScenarioExpansion, WiderRadiusDarkensMoreSites) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  fault::RegionalBlackoutSpec spec;
  spec.center = {50.11, 8.68};
  spec.radius_km = 1500.0;
  const auto regional = fault::FaultScenario::blackout_sites(catalog, spec);
  EXPECT_GT(regional.size(), 1u);
  spec.radius_km = 50000.0;  // the whole planet
  const auto global = fault::FaultScenario::blackout_sites(catalog, spec);
  EXPECT_EQ(global.size(), catalog.edge_sites().size());
}

TEST(ScenarioExpansion, DeterministicInSeedAndSubstreamPerSpec) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  fault::CascadeSpec cascade;
  cascade.origin = {37.77, -122.42};
  cascade.at = 5 * time::kSecond;
  fault::FaultScenario one;
  one.add(cascade);

  // Same (scenario, catalog, seed) -> same schedule, bit for bit.
  EXPECT_EQ(fingerprint(one.expand(catalog, 9)),
            fingerprint(one.expand(catalog, 9)));
  EXPECT_NE(fingerprint(one.expand(catalog, 9)),
            fingerprint(one.expand(catalog, 10)));

  // Appending a neighbour never perturbs an earlier spec's expansion:
  // the cascade's events must appear unchanged in the combined schedule.
  fault::RollingWaveSpec wave;
  wave.start = 60 * time::kSecond;
  fault::FaultScenario both = one;
  both.add(wave);
  const auto solo = one.expand(catalog, 9);
  const auto combined = both.expand(catalog, 9);
  for (const auto& e : solo.events()) {
    const bool present = std::any_of(
        combined.events().begin(), combined.events().end(),
        [&](const fault::FaultEvent& c) {
          return c.at == e.at && c.kind == e.kind &&
                 c.duration == e.duration && c.target == e.target;
        });
    EXPECT_TRUE(present) << "cascade event perturbed by appended wave";
  }
}

TEST(ScenarioExpansion, RollingWaveSweepsEveryEdgeWestToEast) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  fault::RollingWaveSpec wave;
  wave.site_gap = 3 * time::kSecond;
  fault::FaultScenario scenario;
  scenario.add(wave);
  const auto schedule = scenario.expand(catalog, 1);
  EXPECT_EQ(schedule.size(), catalog.edge_sites().size());
  // One site at a time: event times strictly increase by the gap.
  const auto& ev = schedule.events();
  for (std::size_t i = 1; i < ev.size(); ++i)
    EXPECT_EQ(ev[i].at - ev[i - 1].at, wave.site_gap);
}

// --- 5. Edge-to-edge failover ----------------------------------------

TEST(Failover, EdgeDeathReanycastsEveryAttachedViewerWithZeroOrphans) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 60 * time::kSecond;
  cfg.rtmp_viewers = 0;
  cfg.hls_viewers = 4;
  cfg.global_viewers = false;  // everyone on the broadcaster's edge
  cfg.seed = 5;
  fault::RegionalBlackoutSpec spec;
  spec.at = 20 * time::kSecond;
  spec.duration = 15 * time::kSecond;
  spec.center = cfg.broadcaster_location;
  spec.radius_km = 0.0;
  fault::FaultScenario scenario;
  scenario.add(spec);
  cfg.faults = scenario.expand(catalog, cfg.seed);

  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();

  // 100% of the dead PoP's viewers re-anycast; none orphaned.
  EXPECT_EQ(session.counters().edge_failovers, cfg.hls_viewers);
  EXPECT_EQ(session.counters().orphaned_viewers, 0u);
  // One latency sample per completed failover, >= the detect timeout
  // (detection + re-anycast + re-anchored first chunk).
  ASSERT_EQ(session.counters().edge_failover_latency_s.count(),
            cfg.hls_viewers);
  EXPECT_GE(session.counters().edge_failover_latency_s.min(),
            time::to_seconds(cfg.failover_detect_timeout));
  for (const auto& v : session.viewer_results()) {
    EXPECT_FALSE(v.orphaned);
    EXPECT_GT(v.units_played, 0u);
    // Everyone moved off the dead site.
    EXPECT_NE(v.attachment.value, cfg.faults.events()[0].target);
  }
}

TEST(Failover, RegionalBlackoutOfEveryEdgeOrphansViewers) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 60 * time::kSecond;
  cfg.rtmp_viewers = 0;
  cfg.hls_viewers = 3;
  cfg.global_viewers = false;
  cfg.seed = 6;
  fault::RegionalBlackoutSpec spec;
  spec.at = 20 * time::kSecond;
  spec.duration = 30 * time::kSecond;
  spec.center = cfg.broadcaster_location;
  spec.radius_km = 50000.0;  // the whole footprint goes dark
  fault::FaultScenario scenario;
  scenario.add(spec);
  cfg.faults = scenario.expand(catalog, cfg.seed);

  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();

  EXPECT_EQ(session.counters().edge_failovers, 0u);
  EXPECT_EQ(session.counters().orphaned_viewers, cfg.hls_viewers);
  std::size_t orphaned = 0;
  for (const auto& v : session.viewer_results())
    if (v.orphaned) ++orphaned;
  EXPECT_EQ(orphaned, cfg.hls_viewers);
}

// --- 6. RTMP re-join after ingest restart ----------------------------

TEST(Failover, RtmpViewersRejoinRtmpAfterIngestRestart) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 90 * time::kSecond;
  cfg.rtmp_viewers = 3;
  cfg.hls_viewers = 1;
  cfg.seed = 17;
  cfg.rtmp_rejoin_after_restart = true;
  cfg.faults.add({20 * time::kSecond, fault::FaultKind::kIngestCrash,
                  10 * time::kSecond});
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();

  // Crash -> every RTMP viewer migrates to HLS; restart -> every one of
  // them re-attaches to RTMP (the second pipeline flush).
  EXPECT_EQ(session.counters().rtmp_failovers, cfg.rtmp_viewers);
  EXPECT_EQ(session.counters().rtmp_rejoins, cfg.rtmp_viewers);
  std::size_t back_on_rtmp = 0;
  for (const auto& v : session.viewer_results()) {
    if (!v.hls) ++back_on_rtmp;
    EXPECT_GT(v.units_played, 0u);
  }
  EXPECT_EQ(back_on_rtmp, cfg.rtmp_viewers);
  // The rejoined viewers keep receiving frames over RTMP afterwards: the
  // live playback schedule (the post-rejoin phase) saw fresh media.
  for (std::size_t i = 0; i < session.viewer_count(); ++i) {
    if (session.viewer_is_hls(i)) continue;
    EXPECT_GT(session.viewer_playback(i).media_offered(), 0u);
  }
}

TEST(Failover, RejoinDefaultsOffSoMigratedViewersStayOnHls) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 90 * time::kSecond;
  cfg.rtmp_viewers = 2;
  cfg.hls_viewers = 0;
  cfg.seed = 17;
  ASSERT_FALSE(cfg.rtmp_rejoin_after_restart);
  cfg.faults.add({20 * time::kSecond, fault::FaultKind::kIngestCrash,
                  10 * time::kSecond});
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();
  EXPECT_EQ(session.counters().rtmp_rejoins, 0u);
  for (const auto& v : session.viewer_results()) EXPECT_TRUE(v.hls);
}

// --- 7. Service-level scenario injection ------------------------------

TEST(NoFaultParity, EmptyScenarioInjectionIsBitIdenticalToCleanSession) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  auto run = [&](bool inject_empty) {
    sim::Simulator sim;
    core::SessionConfig cfg;
    cfg.broadcast_len = 30 * time::kSecond;
    cfg.rtmp_viewers = 2;
    cfg.hls_viewers = 2;
    cfg.seed = 23;
    core::BroadcastSession session(sim, catalog, cfg);
    session.start();
    if (inject_empty) {
      // An empty scenario expands to an empty schedule, which must be a
      // complete no-op: no injector, no RNG draws, no event traffic.
      fault::FaultScenario empty;
      session.inject_faults(empty.expand(catalog, cfg.seed));
    }
    sim.run();
    session.finalize();
    Fingerprint h;
    for (const auto& v : session.viewer_results()) {
      h.mix(v.hls ? 1 : 0);
      h.mix_double(v.stall_ratio);
      h.mix_double(v.mean_buffering_s);
      h.mix(v.units_played);
      h.mix(v.units_discarded);
    }
    h.mix(session.counters().faults_injected);
    h.mix_double(session.hls_breakdown().buffering_s.mean());
    h.mix_double(session.rtmp_breakdown().buffering_s.mean());
    return h.value();
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(ScenarioInjection, ServiceSharesOneOutageAcrossLiveBroadcasts) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::LivestreamService::Config cfg;
  cfg.rtmp_slot_cap = 0;  // every joiner lands on HLS
  cfg.session_defaults.broadcast_len = 60 * time::kSecond;
  cfg.seed = 31;
  core::LivestreamService service(sim, catalog, cfg);

  const geo::GeoPoint sf{37.77, -122.42};
  std::vector<BroadcastId> ids;
  for (int b = 0; b < 3; ++b) {
    ids.push_back(service.start_broadcast(sf, 60 * time::kSecond));
    for (int v = 0; v < 2; ++v) ASSERT_TRUE(service.join(ids.back(), sf));
  }

  fault::FaultScenario empty;
  EXPECT_EQ(service.inject_scenario(empty, cfg.seed), 0u);

  fault::RegionalBlackoutSpec spec;
  spec.at = 20 * time::kSecond;
  spec.duration = 15 * time::kSecond;
  spec.center = sf;
  spec.radius_km = 0.0;
  fault::FaultScenario scenario;
  scenario.add(spec);
  EXPECT_EQ(service.inject_scenario(scenario, cfg.seed), ids.size());

  sim.run();
  std::uint64_t failovers = 0, orphans = 0;
  for (BroadcastId id : ids) {
    core::BroadcastSession* s = service.session(id);
    ASSERT_NE(s, nullptr);
    s->finalize();
    EXPECT_GT(s->counters().faults_injected, 0u);
    failovers += s->counters().edge_failovers;
    orphans += s->counters().orphaned_viewers;
  }
  // One shared outage: every broadcast's two viewers re-anycast.
  EXPECT_EQ(failovers, 6u);
  EXPECT_EQ(orphans, 0u);
}

// --- 8. Per-edge capacity & the spill policy --------------------------

// Event-level spill: six co-located viewers, capacity two, their PoP
// dies. Two land on the nearest live edge; four must overflow outward,
// ring by ring, each paying a positive overshoot.
TEST(CapacitySpill, SessionSpillsRingByRingPastFullEdges) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 60 * time::kSecond;
  cfg.rtmp_viewers = 0;
  cfg.hls_viewers = 6;
  cfg.global_viewers = false;
  cfg.broadcaster_location = {37.77, -122.42};  // San Francisco
  cfg.edge_capacity = 2;
  cfg.seed = 5;
  fault::RegionalBlackoutSpec spec;
  spec.at = 20 * time::kSecond;
  spec.duration = 15 * time::kSecond;
  spec.center = cfg.broadcaster_location;
  spec.radius_km = 0.0;
  fault::FaultScenario scenario;
  scenario.add(spec);
  cfg.faults = scenario.expand(catalog, cfg.seed);
  const std::uint64_t dead_site = cfg.faults.events()[0].target;

  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();

  EXPECT_EQ(session.counters().edge_failovers, cfg.hls_viewers);
  EXPECT_EQ(session.counters().orphaned_viewers, 0u);
  EXPECT_EQ(session.counters().edge_spills, 4u);
  ASSERT_EQ(session.counters().spill_distance_km.count(), 4u);
  // No live edge is co-located with the dead SF PoP, so every spill
  // overshoots a real distance.
  EXPECT_GT(session.counters().spill_distance_km.min(), 0.0);

  // Capacity held: at most two admissions per live edge, and the dead
  // site kept nobody.
  std::unordered_map<std::uint64_t, unsigned> admitted;
  for (const auto& v : session.viewer_results()) {
    EXPECT_NE(v.attachment.value, dead_site);
    admitted[v.attachment.value] += 1;
  }
  EXPECT_EQ(admitted.size(), 3u);  // three rings of two
  for (const auto& [site, n] : admitted) EXPECT_EQ(n, 2u);

  // The hotspot ledger: the dead SF site peaked at all six joins (joins
  // are load-blind), every other site at its two admissions.
  for (const auto& [site, peak] : session.edge_peak_loads())
    EXPECT_EQ(peak, site == dead_site ? 6u : 2u);
}

// With capacity 0 (unbounded) the spill ledgers must stay empty even
// through a real blackout — the pre-capacity behaviour, bit for bit.
TEST(CapacitySpill, UnboundedCapacityNeverSpills) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 60 * time::kSecond;
  cfg.rtmp_viewers = 0;
  cfg.hls_viewers = 6;
  cfg.global_viewers = false;
  cfg.broadcaster_location = {37.77, -122.42};
  ASSERT_EQ(cfg.edge_capacity, 0u);  // the default is unbounded
  cfg.seed = 5;
  fault::RegionalBlackoutSpec spec;
  spec.at = 20 * time::kSecond;
  spec.duration = 15 * time::kSecond;
  spec.center = cfg.broadcaster_location;
  spec.radius_km = 0.0;
  fault::FaultScenario scenario;
  scenario.add(spec);
  cfg.faults = scenario.expand(catalog, cfg.seed);

  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();

  EXPECT_EQ(session.counters().edge_failovers, cfg.hls_viewers);
  EXPECT_EQ(session.counters().edge_spills, 0u);
  EXPECT_TRUE(session.counters().spill_distance_km.empty());
  // Everyone piles onto the single nearest live edge.
  std::unordered_map<std::uint64_t, unsigned> admitted;
  for (const auto& v : session.viewer_results())
    admitted[v.attachment.value] += 1;
  EXPECT_EQ(admitted.size(), 1u);
}

// Regression (the mid-detection re-assignment bug): blackout A dies
// before the detect window ends, so at detection time the dead PoP's
// down-horizon has lapsed — the old nearest-live check would re-assign
// the viewers straight back to it, and the overlapping blackout B would
// kill them again. The event's dark set is now an explicit exclusion, so
// the viewers land elsewhere on the FIRST failover.
TEST(CapacitySpill, FlappingPoPIsExcludedFromItsOwnFailover) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 60 * time::kSecond;
  cfg.rtmp_viewers = 0;
  cfg.hls_viewers = 4;
  cfg.global_viewers = false;
  cfg.broadcaster_location = {37.77, -122.42};
  cfg.seed = 5;
  ASSERT_EQ(cfg.failover_detect_timeout, 2 * time::kSecond);

  fault::FaultScenario scenario;
  fault::RegionalBlackoutSpec a;       // flap: down 1 s, back up BEFORE
  a.at = 20 * time::kSecond;           // the 2 s detect window elapses
  a.duration = 1 * time::kSecond;
  a.center = cfg.broadcaster_location;
  a.radius_km = 0.0;
  scenario.add(a);
  fault::RegionalBlackoutSpec b = a;   // the second, overlapping blackout
  b.at = 22500 * time::kMillisecond;   // re-kills the PoP right after
  b.duration = 10 * time::kSecond;     // detection fired at t=22 s
  scenario.add(b);
  cfg.faults = scenario.expand(catalog, cfg.seed);
  const std::uint64_t flapping_site = cfg.faults.events()[0].target;

  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();

  // Exactly ONE failover per viewer: nobody bounced back to the flapping
  // PoP only to be re-killed by blackout B.
  EXPECT_EQ(session.counters().edge_failovers, cfg.hls_viewers);
  EXPECT_EQ(session.counters().orphaned_viewers, 0u);
  for (const auto& v : session.viewer_results()) {
    EXPECT_FALSE(v.orphaned);
    EXPECT_NE(v.attachment.value, flapping_site);
  }
}

// --- SessionCounters: one visitor, one merge ----------------------------

/// A ledger split by field kind, in declaration order.
struct LedgerFields {
  std::vector<std::string> names;
  std::vector<std::uint64_t> counts;
  std::vector<stats::Accumulator> accumulators;
};

LedgerFields ledger_fields(const core::SessionCounters& c) {
  LedgerFields out;
  c.for_each_field([&out](const char* name, const auto& v) {
    out.names.emplace_back(name);
    if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                 stats::Accumulator>)
      out.accumulators.push_back(v);
    else
      out.counts.push_back(v);
  });
  return out;
}

/// Every field as 64-bit words (accumulators as count plus the bit
/// patterns of mean, variance, min and max): equal words, equal ledgers.
std::vector<std::uint64_t> ledger_words(const core::SessionCounters& c) {
  const LedgerFields f = ledger_fields(c);
  std::vector<std::uint64_t> out = f.counts;
  for (const stats::Accumulator& a : f.accumulators)
    for (std::uint64_t w : {a.count(), std::bit_cast<std::uint64_t>(a.mean()),
                            std::bit_cast<std::uint64_t>(a.variance()),
                            std::bit_cast<std::uint64_t>(a.min()),
                            std::bit_cast<std::uint64_t>(a.max())})
      out.push_back(w);
  return out;
}

/// Field k (1-based, declaration order) holds base + k: a counter as its
/// value, an accumulator as the samples base + k and 2 * base + k.
core::SessionCounters numbered_ledger(std::uint64_t base) {
  core::SessionCounters c;
  std::uint64_t k = 0;
  c.for_each_field([&](const char*, auto& v) {
    ++k;
    if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                 stats::Accumulator>) {
      v.add(static_cast<double>(base + k));
      v.add(static_cast<double>(2 * base + k));
    } else {
      v = base + k;
    }
  });
  return c;
}

TEST(SessionCounters, ForEachFieldVisitsEveryFieldOnce) {
  const core::SessionCounters c = numbered_ledger(0);
  const LedgerFields f = ledger_fields(c);
  const std::vector<std::string> expected = {
      "rtmp_failovers",          "edge_failovers",
      "orphaned_viewers",        "rtmp_rejoins",
      "edge_spills",             "steered_joins",
      "corrupted_downloads",     "proactive_migrations",
      "overlay_assists",         "poll_retry_giveups",
      "unscored_rtmp_failovers", "unscored_edge_failovers",
      "failover_latency_s",      "edge_failover_latency_s",
      "reattach_latency_s",      "spill_distance_km",
      "control_drains",          "faults_injected"};
  EXPECT_EQ(f.names, expected);
  // Each named member received exactly the number of its visit.
  EXPECT_EQ(c.rtmp_failovers, 1u);
  EXPECT_EQ(c.edge_failovers, 2u);
  EXPECT_EQ(c.orphaned_viewers, 3u);
  EXPECT_EQ(c.rtmp_rejoins, 4u);
  EXPECT_EQ(c.edge_spills, 5u);
  EXPECT_EQ(c.steered_joins, 6u);
  EXPECT_EQ(c.corrupted_downloads, 7u);
  EXPECT_EQ(c.proactive_migrations, 8u);
  EXPECT_EQ(c.overlay_assists, 9u);
  EXPECT_EQ(c.poll_retry_giveups, 10u);
  EXPECT_EQ(c.unscored_rtmp_failovers, 11u);
  EXPECT_EQ(c.unscored_edge_failovers, 12u);
  EXPECT_EQ(c.failover_latency_s.min(), 13.0);
  EXPECT_EQ(c.edge_failover_latency_s.min(), 14.0);
  EXPECT_EQ(c.reattach_latency_s.min(), 15.0);
  EXPECT_EQ(c.spill_distance_km.min(), 16.0);
  EXPECT_EQ(c.control_drains, 17u);
  EXPECT_EQ(c.faults_injected, 18u);
}

TEST(SessionCounters, MergeIsFieldWiseSumAndAccumulatorMerge) {
  const core::SessionCounters a = numbered_ledger(100);
  const core::SessionCounters b = numbered_ledger(1000);
  core::SessionCounters m = a;
  m.merge(b);
  const LedgerFields fa = ledger_fields(a), fb = ledger_fields(b),
                     fm = ledger_fields(m);
  ASSERT_EQ(fm.counts.size(), 14u);
  for (std::size_t i = 0; i < fm.counts.size(); ++i)
    EXPECT_EQ(fm.counts[i], fa.counts[i] + fb.counts[i]) << fm.names[i];
  ASSERT_EQ(fm.accumulators.size(), 4u);
  for (std::size_t i = 0; i < fm.accumulators.size(); ++i) {
    stats::Accumulator e = fa.accumulators[i];
    e.merge(fb.accumulators[i]);
    const stats::Accumulator& got = fm.accumulators[i];
    EXPECT_EQ(got.count(), e.count());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.mean()),
              std::bit_cast<std::uint64_t>(e.mean()));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.variance()),
              std::bit_cast<std::uint64_t>(e.variance()));
    EXPECT_EQ(got.min(), e.min());
    EXPECT_EQ(got.max(), e.max());
  }
  // Merging an empty ledger changes nothing.
  core::SessionCounters same = a;
  same.merge(core::SessionCounters{});
  EXPECT_EQ(ledger_words(same), ledger_words(a));
}

// Service-level wiring: inject_scenario + session_defaults.edge_capacity
// produce per-broadcast pile-ups that the service ledgers aggregate.
TEST(CapacitySpill, ServiceAggregatesSpillLedgersAcrossBroadcasts) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::LivestreamService::Config cfg;
  cfg.rtmp_slot_cap = 0;  // every joiner lands on HLS
  cfg.session_defaults.broadcast_len = 60 * time::kSecond;
  cfg.session_defaults.edge_capacity = 1;
  cfg.seed = 31;
  core::LivestreamService service(sim, catalog, cfg);

  const geo::GeoPoint sf{37.77, -122.42};
  std::vector<BroadcastId> ids;
  for (int b = 0; b < 3; ++b) {
    ids.push_back(service.start_broadcast(sf, 60 * time::kSecond));
    for (int v = 0; v < 2; ++v) ASSERT_TRUE(service.join(ids.back(), sf));
  }
  ASSERT_EQ(service.counters().edge_spills, 0u);  // joins are load-blind

  fault::RegionalBlackoutSpec spec;
  spec.at = 20 * time::kSecond;
  spec.duration = 15 * time::kSecond;
  spec.center = sf;
  spec.radius_km = 0.0;
  fault::FaultScenario scenario;
  scenario.add(spec);
  ASSERT_EQ(service.inject_scenario(scenario, cfg.seed), ids.size());

  sim.run();
  std::uint64_t failovers = 0;
  for (BroadcastId id : ids) {
    core::BroadcastSession* s = service.session(id);
    ASSERT_NE(s, nullptr);
    s->finalize();
    failovers += s->counters().edge_failovers;
    // Capacity 1 per session: one viewer takes the nearest live edge,
    // the other spills past it.
    EXPECT_EQ(s->counters().edge_spills, 1u);
  }
  EXPECT_EQ(failovers, 6u);
  const core::SessionCounters total = service.counters();
  EXPECT_EQ(total.edge_spills, 3u);
  EXPECT_EQ(total.spill_distance_km.count(), 3u);
  EXPECT_GT(total.spill_distance_km.min(), 0.0);
  // The service ledger is exactly its sessions' ledgers merged in
  // broadcast-id order (ids are handed out in start order), bit for bit.
  core::SessionCounters merged;
  for (BroadcastId id : ids) merged.merge(service.session(id)->counters());
  EXPECT_EQ(ledger_words(total), ledger_words(merged));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(total.spill_distance_km.mean()),
            std::bit_cast<std::uint64_t>(merged.spill_distance_km.mean()));
  // Aggregated hotspot ledger: the dead SF site summed its three
  // per-broadcast peaks of two joins each.
  const std::uint64_t dead_site =
      catalog.nearest(sf, geo::CdnRole::kEdge).id.value;
  bool found = false;
  for (const auto& [site, peak] : service.edge_peak_loads())
    if (site == dead_site) {
      found = true;
      EXPECT_EQ(peak, 6u);
    }
  EXPECT_TRUE(found);
}

// --- 9. Flash-crowd workload determinism ------------------------------

// The crowd generator feeds the poll-wheel flash-crowd scenarios; its
// records must merge identically at any thread count (record i depends
// only on substream_seed(seed, i) and lands in slot i).
TEST(CrowdDeterminism, FlashCrowdByteIdenticalAtThreads128) {
  const auto preset = workload::CrowdPreset::twitch_flash_crowd();
  const auto r1 = workload::generate_crowd(preset, 77, 1);
  ASSERT_EQ(r1.size(), preset.viewers);
  const std::uint64_t fp1 = workload::crowd_fingerprint(r1);
  for (unsigned threads : {2u, 8u}) {
    const auto rn = workload::generate_crowd(preset, 77, threads);
    EXPECT_EQ(fp1, workload::crowd_fingerprint(rn))
        << "crowd generation diverged at threads=" << threads;
  }
}

TEST(CrowdDeterminism, EveryPresetThreadInvariantAndSeedSensitive) {
  for (const auto& preset : {workload::CrowdPreset::twitch_flash_crowd(),
                             workload::CrowdPreset::twitch_steady_giants(),
                             workload::CrowdPreset::periscope_tail()}) {
    const auto a = workload::generate_crowd(preset, 9, 1);
    const auto b = workload::generate_crowd(preset, 9, 8);
    EXPECT_EQ(workload::crowd_fingerprint(a), workload::crowd_fingerprint(b))
        << preset.name;
    const auto c = workload::generate_crowd(preset, 10, 1);
    EXPECT_NE(workload::crowd_fingerprint(a), workload::crowd_fingerprint(c))
        << preset.name;
  }
}

TEST(Failover, CorruptionWindowCountsDiscardedDownloads) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 60 * time::kSecond;
  cfg.rtmp_viewers = 0;
  cfg.hls_viewers = 3;
  cfg.seed = 8;
  fault::FaultEvent corrupt;
  corrupt.at = 10 * time::kSecond;
  corrupt.kind = fault::FaultKind::kChunkCorruption;
  corrupt.duration = 40 * time::kSecond;
  corrupt.magnitude = 1.0;  // every download in the window corrupts
  cfg.faults.add(corrupt);
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();
  EXPECT_GT(session.counters().corrupted_downloads, 0u);
  // Corruption discards downloads but viewers still re-poll and play.
  for (const auto& v : session.viewer_results())
    EXPECT_GT(v.units_played, 0u);
}

}  // namespace
