#include "livesim/fault/fault.h"

#include <algorithm>
#include <array>

namespace livesim::fault {

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kIngestCrash: return "ingest-crash";
    case FaultKind::kEdgeCacheFlush: return "edge-cache-flush";
    case FaultKind::kLinkDegrade: return "link-degrade";
    case FaultKind::kChunkCorruption: return "chunk-corruption";
    case FaultKind::kEdgeDown: return "edge-down";
  }
  return "unknown";
}

FaultSchedule& FaultSchedule::add(FaultEvent e) {
  // Stable insert by time: equal-time events keep insertion order, so a
  // hand-written script replays in the order it was written.
  auto it = std::upper_bound(
      events_.begin(), events_.end(), e,
      [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  events_.insert(it, e);
  return *this;
}

FaultSchedule FaultSchedule::randomized(const RandomFaultParams& params,
                                        std::uint64_t seed) {
  FaultSchedule out;
  if (params.faults_per_minute <= 0.0 || params.horizon <= 0) return out;

  const std::array<double, kFaultKindCount> weights = {
      params.ingest_crash_weight, params.edge_flush_weight,
      params.link_degrade_weight, params.chunk_corruption_weight,
      params.edge_down_weight};
  double total_weight = 0.0;
  for (double w : weights) total_weight += w > 0.0 ? w : 0.0;
  if (total_weight <= 0.0) return out;

  Rng rng(seed);
  const double mean_gap_us =
      static_cast<double>(time::kMinute) / params.faults_per_minute;
  TimeUs t = 0;
  for (;;) {
    t += static_cast<DurationUs>(rng.exponential(mean_gap_us));
    if (t >= params.horizon) break;

    double pick = rng.uniform() * total_weight;
    std::size_t kind = 0;
    for (; kind + 1 < kFaultKindCount; ++kind) {
      const double w = weights[kind] > 0.0 ? weights[kind] : 0.0;
      if (pick < w) break;
      pick -= w;
    }

    FaultEvent e;
    e.at = t;
    e.kind = static_cast<FaultKind>(kind);
    switch (e.kind) {
      case FaultKind::kIngestCrash:
        e.duration = static_cast<DurationUs>(
            rng.exponential(static_cast<double>(params.mean_ingest_down)));
        break;
      case FaultKind::kEdgeCacheFlush:
        e.duration = 0;  // point event
        break;
      case FaultKind::kLinkDegrade:
        e.duration = static_cast<DurationUs>(
            rng.exponential(static_cast<double>(params.mean_link_down)));
        break;
      case FaultKind::kChunkCorruption:
        e.duration = static_cast<DurationUs>(rng.exponential(
            static_cast<double>(params.mean_corruption_window)));
        e.magnitude = params.corruption_probability;
        break;
      case FaultKind::kEdgeDown:
        e.duration = static_cast<DurationUs>(
            rng.exponential(static_cast<double>(params.mean_edge_down)));
        break;
    }
    out.events_.push_back(e);  // generated in time order already
  }
  return out;
}

std::vector<FaultEvent> FaultSchedule::of_kind(FaultKind kind) const {
  std::vector<FaultEvent> out;
  for (const auto& e : events_)
    if (e.kind == kind) out.push_back(e);
  return out;
}

}  // namespace livesim::fault
