#include "livesim/analysis/resilience.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "livesim/fault/backoff.h"
#include "livesim/sim/parallel.h"

namespace livesim::analysis {

namespace {

// Same last-mile constants as the §6 buffering experiments.
constexpr DurationUs kRtmpLastMile = 80 * time::kMillisecond;
constexpr DurationUs kHlsDownload = 150 * time::kMillisecond;

// Salt for the fault-script substream: broadcast i's fault schedule and
// its viewer jitter come from unrelated streams, so adding a draw to one
// model never perturbs the other.
constexpr std::uint64_t kFaultSeedSalt = 0xFA175EEDULL;

bool in_window(const std::vector<fault::FaultEvent>& events, TimeUs t) {
  for (const auto& e : events)
    if (t >= e.at && t < e.at + e.duration) return true;
  return false;
}

// If `t` falls inside a window, returns the window's end; else `t`.
TimeUs past_windows(const std::vector<fault::FaultEvent>& events, TimeUs t) {
  for (const auto& e : events)
    if (t >= e.at && t < e.at + e.duration) return e.at + e.duration;
  return t;
}

void simulate_viewer(const BroadcastTrace& trace, const ResilienceConfig& cfg,
                     std::size_t index, ResilienceStats& out) {
  Rng rng(sim::substream_seed(cfg.seed, index));

  const DurationUs total_media =
      static_cast<DurationUs>(trace.frame_arrivals.size()) *
      trace.frame_interval;
  if (total_media <= 0) return;

  fault::RandomFaultParams fparams = cfg.faults;
  if (fparams.horizon == 0) fparams.horizon = total_media;
  const auto faults = fault::FaultSchedule::randomized(
      fparams, sim::substream_seed(cfg.seed ^ kFaultSeedSalt, index));

  out.counters.viewers += 1;
  out.counters.faults_injected += faults.size();

  const auto crashes = faults.of_kind(fault::FaultKind::kIngestCrash);
  const auto degrades = faults.of_kind(fault::FaultKind::kLinkDegrade);
  const auto corruptions = faults.of_kind(fault::FaultKind::kChunkCorruption);
  const auto flushes = faults.of_kind(fault::FaultKind::kEdgeCacheFlush);
  out.counters.ingest_crashes += crashes.size();

  // Only the first crash matters to this viewer: after it they live on
  // HLS, where a (restarted) ingest only shows up as chunk availability.
  const bool crashed = !crashes.empty();
  const TimeUs crash_at =
      crashed ? crashes.front().at : std::numeric_limits<TimeUs>::max();
  const TimeUs crash_end =
      crashed ? crashes.front().at + crashes.front().duration : 0;

  client::AdaptivePlayback playback(cfg.playback);

  // --- Phase 1: RTMP push until the ingest dies (or the end) ---------
  DurationUs delivered_media = 0;  // high-water mark of media handed over
  for (std::size_t i = 0; i < trace.frame_arrivals.size(); ++i) {
    const TimeUs at_ingest = trace.frame_arrivals[i];
    if (at_ingest == 0 && i > 0) continue;  // lost/unsent upstream
    if (at_ingest >= crash_at) break;       // frame hit a dead server
    const DurationUs jitter =
        static_cast<DurationUs>(5000.0 * std::abs(rng.normal(0.0, 1.0)));
    // A last-mile partition stalls TCP; delivery resumes at recovery.
    const TimeUs recv =
        past_windows(degrades, at_ingest + kRtmpLastMile + jitter);
    const DurationUs media_offset =
        static_cast<DurationUs>(i) * trace.frame_interval;
    playback.on_arrival(recv, media_offset, trace.frame_interval);
    if (media_offset + trace.frame_interval > delivered_media)
      delivered_media = media_offset + trace.frame_interval;
  }

  bool gave_up = false;

  if (crashed) {
    // Chunk availability at the (cold) edge: sealed at the ingest --
    // stalled chunks seal when the ingest restarts -- then one W2F pull.
    const std::size_t n_chunks = trace.chunks.size();
    std::vector<TimeUs> avail(n_chunks);
    for (std::size_t j = 0; j < n_chunks; ++j) {
      TimeUs sealed = trace.chunks[j].completed_at_ingest;
      if (sealed >= crash_at && sealed < crash_end) sealed = crash_end;
      const auto w2f = static_cast<DurationUs>(
          static_cast<double>(cfg.w2f_offset) *
          (1.0 + 0.35 * std::abs(rng.normal(0.0, 1.0))));
      avail[j] = sealed + w2f;
    }

    // Skip the backlog the viewer already watched over RTMP.
    std::size_t cursor = 0;
    while (cursor < n_chunks &&
           trace.chunks[cursor].media_start + trace.chunks[cursor].duration <=
               delivered_media)
      ++cursor;

    client::PollRetryState retry(cfg.retry);

    // --- Phase 2: detect the dead connection, fail over to HLS -------
    // An attempt succeeds once the origin is reachable again AND a chunk
    // of new content has made it to the edge.
    bool migrated = false;
    TimeUs attempt = crash_at + cfg.detect_timeout;
    TimeUs now = attempt;
    while (!migrated) {
      const bool reachable = attempt >= crash_end && !in_window(degrades, attempt);
      if (reachable && cursor < n_chunks && avail[cursor] <= attempt) {
        migrated = true;
        out.counters.failovers += 1;
        out.failover_latency_s.add(
            time::to_seconds(attempt + kHlsDownload - crash_at));
        now = attempt;
        break;
      }
      const auto next = retry.on_failure(attempt + cfg.poll_timeout, rng);
      if (!next) {
        gave_up = true;
        out.counters.unrecoverable += 1;
        break;
      }
      attempt = *next;
    }

    // --- Phase 3: steady HLS polling with retry/backoff --------------
    if (migrated) {
      const fault::BackoffPolicy refetch_backoff(cfg.retry.backoff);
      const TimeUs wall_horizon =
          (n_chunks ? avail[n_chunks - 1] : now) + 8 * cfg.poll_interval;
      TimeUs prev_success = now;
      TimeUs poll_t = now;  // the migration attempt doubles as poll 0
      bool first_poll = true;
      while (cursor < n_chunks) {
        if (!first_poll && in_window(degrades, poll_t)) {
          const auto next = retry.on_failure(poll_t + cfg.poll_timeout, rng);
          if (!next) {
            gave_up = true;
            out.counters.unrecoverable += 1;
            break;
          }
          poll_t = *next;
          continue;
        }
        retry.on_success();

        // An edge flush since the last successful poll forces this poll
        // through a full origin re-pull.
        DurationUs extra = 0;
        for (const auto& f : flushes)
          if (f.at > prev_success && f.at <= poll_t) {
            extra = cfg.w2f_offset;
            break;
          }

        if (cursor < n_chunks && avail[cursor] <= poll_t) {
          TimeUs recv = poll_t + extra + kHlsDownload;
          if (in_window(corruptions, poll_t) &&
              rng.bernoulli(fparams.corruption_probability)) {
            // Integrity check fails: discard and re-fetch after a backoff
            // step (the re-fetch is assumed clean).
            out.counters.chunk_refetches += 1;
            recv = poll_t + refetch_backoff.delay(1, rng) + extra +
                   kHlsDownload;
          }
          while (cursor < n_chunks && avail[cursor] <= poll_t) {
            const auto& c = trace.chunks[cursor];
            playback.on_arrival(recv, c.media_start, c.duration);
            const DurationUs end = c.media_start + c.duration;
            if (end > delivered_media) delivered_media = end;
            ++cursor;
          }
        }
        prev_success = poll_t;
        first_poll = false;
        poll_t += cfg.poll_interval;
        if (poll_t > wall_horizon) break;  // nothing more will ever arrive
      }
    }
  }

  // --- Score ---------------------------------------------------------
  const DurationUs offered =
      std::min(playback.media_offered(), total_media);
  const double offered_stall =
      playback.stall_ratio() * static_cast<double>(playback.media_offered());
  const double missing = static_cast<double>(total_media - offered);
  out.stall_ratio.add(
      std::min(1.0, (offered_stall + missing) / static_cast<double>(total_media)));
  out.rebuffer_count.add(static_cast<double>(playback.rebuffer_events()));
  (void)gave_up;
}

}  // namespace

ResilienceStats resilience_experiment(
    const std::vector<BroadcastTrace>& traces,
    const ResilienceConfig& config) {
  const auto ranges = sim::shard_ranges(
      traces.size(), sim::resolve_threads(config.threads));
  std::vector<ResilienceStats> parts(ranges.size());
  sim::parallel_for_shards(
      traces.size(), config.threads,
      [&](std::size_t shard, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
          simulate_viewer(traces[i], config, i, parts[shard]);
      });

  ResilienceStats out;
  for (const auto& p : parts) {
    out.stall_ratio.merge(p.stall_ratio);
    out.rebuffer_count.merge(p.rebuffer_count);
    out.failover_latency_s.merge(p.failover_latency_s);
    out.counters.merge(p.counters);
  }
  return out;
}

}  // namespace livesim::analysis
