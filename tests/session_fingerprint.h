// The session fingerprint the parity and determinism pins are captured
// with (test_backends.cpp, test_poll_wheel.cpp): every ViewerResult, then
// the session's failover/spill/corruption ledgers and breakdown means, in
// this exact field order. Reordering a field re-pins every golden
// constant that was captured through it.
#ifndef LIVESIM_TESTS_SESSION_FINGERPRINT_H
#define LIVESIM_TESTS_SESSION_FINGERPRINT_H

#include <cstdint>

#include "livesim/core/broadcast_session.h"
#include "livesim/geo/datacenters.h"
#include "livesim/sim/simulator.h"
#include "livesim/util/fingerprint.h"

namespace livesim {

/// Returned as an open chain so a caller can fold extra fields on top.
inline Fingerprint session_fingerprint(const core::BroadcastSession& s) {
  Fingerprint h;
  for (const auto& v : s.viewer_results()) {
    h.mix(v.hls ? 1 : 0);
    h.mix(v.orphaned ? 1 : 0);
    h.mix(v.attachment.value);
    h.mix_double(v.stall_ratio);
    h.mix_double(v.mean_buffering_s);
    h.mix(v.units_played);
    h.mix(v.units_discarded);
  }
  const core::SessionCounters c = s.counters();
  h.mix(c.rtmp_failovers);
  h.mix(c.edge_failovers);
  h.mix(c.orphaned_viewers);
  h.mix(c.edge_spills);
  h.mix(c.corrupted_downloads);
  h.mix_double(s.hls_breakdown().buffering_s.mean());
  h.mix_double(s.rtmp_breakdown().buffering_s.mean());
  h.mix_double(c.failover_latency_s.mean());
  h.mix_double(c.edge_failover_latency_s.mean());
  return h;
}

/// Runs one session to completion on a fresh engine over the paper
/// footprint and returns its fingerprint.
inline std::uint64_t run_session(const core::SessionConfig& cfg) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();
  return session_fingerprint(session).value();
}

}  // namespace livesim

#endif  // LIVESIM_TESTS_SESSION_FINGERPRINT_H
