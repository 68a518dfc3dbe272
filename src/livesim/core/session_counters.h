// SessionCounters: every ledger a BroadcastSession keeps, in one struct.
//
// The session counts into it, LivestreamService and the flash-crowd
// experiment merge copies of it, and the benches emit it through one
// visitor. The field list below is the only place a ledger is named, so
// adding one is one X(type, name) line there.
#ifndef LIVESIM_CORE_SESSION_COUNTERS_H
#define LIVESIM_CORE_SESSION_COUNTERS_H

#include <cstdint>

#include "livesim/stats/accumulator.h"
#include "livesim/util/json_writer.h"

namespace livesim::core {

// X(type, name) for every ledger, in declaration (and emission) order.
#define LIVESIM_SESSION_COUNTERS(X)                                          \
  /* RTMP viewers migrated to the HLS path after an ingest crash. */        \
  X(std::uint64_t, rtmp_failovers)                                          \
  /* HLS viewers re-anycast to another edge after their PoP died. */        \
  X(std::uint64_t, edge_failovers)                                          \
  /* Failovers that found no live edge with room: playback froze. */        \
  X(std::uint64_t, orphaned_viewers)                                        \
  /* Migrated RTMP viewers back on RTMP after the ingest restarted. */      \
  X(std::uint64_t, rtmp_rejoins)                                            \
  /* Failover admissions that skipped a live-but-full nearer edge. */       \
  X(std::uint64_t, edge_spills)                                             \
  /* Organic joins a published drain/dead verdict steered off the */        \
  /* nearest live edge. */                                                  \
  X(std::uint64_t, steered_joins)                                           \
  /* HLS downloads discarded as corrupt (re-fetched on the next poll). */   \
  X(std::uint64_t, corrupted_downloads)                                     \
  /* Migrations the control plane STARTED off a published-dead edge: */    \
  /* <= edge_failovers + orphaned_viewers + overlay_assists. */             \
  X(std::uint64_t, proactive_migrations)                                    \
  /* Capacity orphans parked on the overlay mesh instead of freezing. */    \
  X(std::uint64_t, overlay_assists)                                         \
  /* HLS viewers whose poll retry streak hit max_attempts (only with */     \
  /* hls_poll_retry): inert until a failover rescues them. */               \
  X(std::uint64_t, poll_retry_giveups)                                      \
  /* RTMP failovers with no failover_latency_s sample: the viewer */        \
  /* rejoined RTMP or failed over again before its first chunk, or */       \
  /* still waits for it when counters() is read (it left, or the */         \
  /* broadcast ended). So failover_latency_s.count() + this == */           \
  /* rtmp_failovers. */                                                     \
  X(std::uint64_t, unscored_rtmp_failovers)                                 \
  /* The same for edge failovers: */                                        \
  /* edge_failover_latency_s.count() + this == edge_failovers. */           \
  X(std::uint64_t, unscored_edge_failovers)                                 \
  /* Ingest crash -> first HLS chunk the migrated viewer receives, s. */    \
  X(stats::Accumulator, failover_latency_s)                                 \
  /* Edge death -> first chunk received via the new edge, s. */             \
  X(stats::Accumulator, edge_failover_latency_s)                            \
  /* Migration decision -> first quantized poll tick on the new wheel. */   \
  X(stats::Accumulator, reattach_latency_s)                                 \
  /* Per spill: extra km past the nearest live edge. */                     \
  X(stats::Accumulator, spill_distance_km)                                  \
  /* Read at counters() time from the steering policy's drain count. */     \
  X(std::uint64_t, control_drains)                                          \
  /* Read at counters() time from the fault injectors. */                   \
  X(std::uint64_t, faults_injected)                                         \
  /* A new ledger is one more X(type, name) line above this one. */

struct SessionCounters {
#define LIVESIM_COUNTER_FIELD(type, name) type name{};
  LIVESIM_SESSION_COUNTERS(LIVESIM_COUNTER_FIELD)
#undef LIVESIM_COUNTER_FIELD

  /// Calls f(name, field) for every field, in declaration order.
  template <class F>
  void for_each_field(F&& f) {
    visit(f, *this);
  }
  template <class F>
  void for_each_field(F&& f) const {
    visit(f, *this);
  }

  /// Sums the counters and Accumulator::merge()s the accumulators.
  void merge(const SessionCounters& o) {
    const auto add_field = [](const char*, auto& mine, const auto& theirs) {
      add(mine, theirs);
    };
    visit(add_field, *this, o);
  }

  /// Each failover is scored in its latency ledger or counted unscored,
  /// exactly once, for RTMP->HLS and edge-to-edge failovers alike.
  bool failovers_accounted() const noexcept {
    return failover_latency_s.count() + unscored_rtmp_failovers ==
               rtmp_failovers &&
           edge_failover_latency_s.count() + unscored_edge_failovers ==
               edge_failovers;
  }

 private:
  /// f(name, a.field, b.field, ...) for every field of every argument.
  template <class F, class... S>
  static void visit(F&& f, S&... s) {
#define LIVESIM_COUNTER_VISIT(type, name) f(#name, s.name...);
    LIVESIM_SESSION_COUNTERS(LIVESIM_COUNTER_VISIT)
#undef LIVESIM_COUNTER_VISIT
  }
  static void add(std::uint64_t& a, std::uint64_t b) { a += b; }
  static void add(stats::Accumulator& a, const stats::Accumulator& b) {
    a.merge(b);
  }
};

/// The uniform BENCH form of an accumulator: {count, mean, max}.
inline void write_json(JsonWriter& w, const stats::Accumulator& a,
                       int decimals = 3) {
  w.begin_object().field("count", a.count());
  w.field("mean", a.mean(), decimals).field("max", a.max(), decimals);
  w.end_object();
}
inline void write_json(JsonWriter& w, std::uint64_t v) { w.value(v); }

/// Every field of `c` as one JSON object keyed by field name.
inline void write_json(JsonWriter& w, const SessionCounters& c) {
  w.begin_object();
  c.for_each_field(
      [&w](const char* name, const auto& v) { write_json(w.key(name), v); });
  w.end_object();
}

}  // namespace livesim::core

#undef LIVESIM_SESSION_COUNTERS

#endif  // LIVESIM_CORE_SESSION_COUNTERS_H
