// Resilience experiment: what viewers experience when the system breaks.
//
// The paper's trace-driven simulations (§5.2, §6) measure the sunny-day
// path. This driver replays the same crawled traces through a viewer that
// must survive injected faults (fault/fault.h): the ingest crashing
// mid-broadcast (the client times out and fails over from RTMP to HLS
// through the W2F edge path), last-mile partitions (polls time out and
// retry with capped exponential backoff), edge-cache flushes (origin
// re-pull penalty), and corrupted chunk downloads (detected and
// re-fetched).
//
// Determinism contract (same as experiments.h): broadcast i's entire
// random behaviour — viewer jitter AND its fault script — depends only on
// (seed, i), via two independent RNG substreams, so results are
// byte-identical at every thread count. A zero fault rate degenerates to
// a clean RTMP playback walk with zero failovers.
//
// Edge blackouts (regional outage, capacity spill, control-plane
// steering) are not replayed here: BroadcastSession runs them, and the
// blackout benches drive them through analysis::flash_crowd_experiment.
#ifndef LIVESIM_ANALYSIS_RESILIENCE_H
#define LIVESIM_ANALYSIS_RESILIENCE_H

#include <cstdint>
#include <vector>

#include "livesim/analysis/experiments.h"
#include "livesim/client/adaptive.h"
#include "livesim/client/retry.h"
#include "livesim/fault/fault.h"
#include "livesim/stats/sampler.h"
#include "livesim/util/time.h"

namespace livesim::analysis {

struct ResilienceConfig {
  /// HLS poll cadence after failover (the app's measured 2.8 s).
  DurationUs poll_interval = time::from_seconds(2.8);
  /// A poll with no answer by this deadline counts as failed.
  DurationUs poll_timeout = 1 * time::kSecond;
  /// How long a dead RTMP connection goes unnoticed before failover.
  DurationUs detect_timeout = 2 * time::kSecond;
  /// Adaptive playback buffer (rebuffer events come from its under-runs).
  client::AdaptivePlayback::Params playback{};
  /// Poll retry/backoff discipline (cap, jitter, give-up threshold).
  client::PollRetryState::Params retry{};
  /// Mean ingest->edge origin-pull latency for chunk availability.
  DurationUs w2f_offset = 300 * time::kMillisecond;
  /// Per-broadcast randomized fault script. horizon == 0 is replaced by
  /// each trace's media length. faults_per_minute == 0 disables faults.
  fault::RandomFaultParams faults{};
  std::uint64_t seed = 1;
  unsigned threads = 1;  // 0 = all hardware threads
};

/// Additive per-shard counters (merge order never matters).
struct ResilienceCounters {
  std::uint64_t viewers = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t ingest_crashes = 0;
  std::uint64_t failovers = 0;        // RTMP->HLS migrations completed
  std::uint64_t unrecoverable = 0;    // viewers whose retries exhausted
  std::uint64_t chunk_refetches = 0;  // corruption-triggered re-fetches

  void merge(const ResilienceCounters& o) noexcept {
    viewers += o.viewers;
    faults_injected += o.faults_injected;
    ingest_crashes += o.ingest_crashes;
    failovers += o.failovers;
    unrecoverable += o.unrecoverable;
    chunk_refetches += o.chunk_refetches;
  }
};

struct ResilienceStats {
  /// Per viewer: stalled + never-delivered media over the broadcast's
  /// total media (so an abandoned viewer scores the missing tail too).
  stats::Sampler stall_ratio;
  /// Per viewer: playback under-run (rebuffer) events.
  stats::Sampler rebuffer_count;
  /// Per failover: ingest crash -> first HLS chunk on screen, seconds.
  stats::Sampler failover_latency_s;
  ResilienceCounters counters;
};

/// Replays each trace through one fault-exposed viewer. Deterministic in
/// (config.seed) at every thread count.
ResilienceStats resilience_experiment(
    const std::vector<BroadcastTrace>& traces, const ResilienceConfig& config);

}  // namespace livesim::analysis

#endif  // LIVESIM_ANALYSIS_RESILIENCE_H
