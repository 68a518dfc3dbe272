// Backend crossover: the three delivery tiers measured side by side.
//
// Part 1 runs analysis::backend_breakdown_experiment (the §5.1
// controlled-session methodology with one viewer per tier) at threads
// {1, 2, 8} and certifies:
//  * the thread-determinism contract (byte-identical fingerprints);
//  * the delay-ordering contract: RTMP < LL-HLS < HLS end-to-end, the
//    whole point of the third tier;
//  * the legacy-parity contract: delay_breakdown_experiment(4, 42)
//    still hashes to the pre-refactor pin, i.e. moving the tiers
//    behind cdn::DeliveryBackend changed NOTHING for legacy configs.
//
// Part 2 sweeps the Figure-14 server-cost curves through the backend
// cost hooks and certifies that LL-HLS sits strictly between the two
// classic tiers once viewers amortise the part pipeline: per-viewer
// cost above HLS (blocking reloads are work), below RTMP (no per-frame
// push), with the fixed part-slicing overhead visible at zero viewers.
//
// Results land in BENCH_backends.json. Every contract above fails the
// exit code.
//
// Usage: bench_backend_crossover [out.json] [repetitions]  (default 10)
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "livesim/analysis/backends.h"
#include "livesim/stats/report.h"
#include "livesim/util/json_writer.h"

namespace {
using namespace livesim;

void write_breakdown(JsonWriter& w, const char* name,
                     const core::DelayBreakdown& b) {
  w.key(name).begin_object();
  w.field("upload_s", b.upload_s.mean(), 6);
  w.field("chunking_s", b.chunking_s.mean(), 6);
  w.field("w2f_s", b.w2f_s.mean(), 6);
  w.field("polling_s", b.polling_s.mean(), 6);
  w.field("last_mile_s", b.last_mile_s.mean(), 6);
  w.field("buffering_s", b.buffering_s.mean(), 6);
  w.field("total_s", b.total_s(), 6).end_object();
}

bool write_json(const char* path, int reps,
                const analysis::BackendBreakdownResult& r,
                const std::vector<std::pair<unsigned, std::uint64_t>>& fps,
                bool parity_ok,
                const std::vector<analysis::CrossoverPoint>& sweep,
                std::uint32_t rtmp_vs_llhls, std::uint32_t rtmp_vs_hls,
                double wall_ms_per_rep) {
  JsonWriter w;
  w.begin_object().field("bench", "backend_crossover");
  w.field("schema_version", 1).field("repetitions", reps);
  write_determinism(w, fps);
  w.key("legacy_parity").begin_object();
  w.field("pin", JsonWriter::hex(analysis::kLegacyBreakdownFingerprint));
  w.field("match", parity_ok).end_object();
  write_breakdown(w, "rtmp", r.rtmp);
  write_breakdown(w, "llhls", r.llhls);
  write_breakdown(w, "hls", r.hls);
  w.key("cost_sweep").begin_array();
  for (const auto& p : sweep) {
    w.begin_object().field("viewers", p.viewers);
    w.field("rtmp_cpu", p.rtmp_cpu_percent, 4);
    w.field("llhls_cpu", p.llhls_cpu_percent, 4);
    w.field("hls_cpu", p.hls_cpu_percent, 4).end_object();
  }
  w.end_array().key("crossover_viewers").begin_object();
  w.field("rtmp_vs_llhls", rtmp_vs_llhls).field("rtmp_vs_hls", rtmp_vs_hls);
  w.end_object().field("wall_ms_per_rep", wall_ms_per_rep, 1).end_object();
  return w.save(path);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace livesim;
  const char* out = argc > 1 ? argv[1] : "BENCH_backends.json";
  long reps = argc > 2 ? std::atol(argv[2]) : 10;
  if (reps <= 0) reps = 10;

  // --- Part 1: three-lane breakdown, threads {1, 2, 8} ------------------
  stats::print_banner(
      "Backend delay breakdown: one viewer per tier, threads {1, 2, 8}");
  analysis::BackendBreakdownResult r;
  std::vector<std::pair<unsigned, std::uint64_t>> fps;
  std::uint64_t ref = 0;
  bool det_ok = true;
  double wall_ms_per_rep = 0.0;
  for (unsigned threads : {1u, 2u, 8u}) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto rep = analysis::backend_breakdown_experiment(
        static_cast<int>(reps), 42, threads);
    const auto t1 = std::chrono::steady_clock::now();
    const auto fp = analysis::backend_breakdown_fingerprint(rep);
    if (threads == 1) {
      ref = fp;
      r = rep;
      wall_ms_per_rep =
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::milliseconds>(t1 - t0)
                  .count()) /
          static_cast<double>(reps);
    }
    const bool identical = fp == ref;
    det_ok = det_ok && identical;
    fps.emplace_back(threads, fp);
    std::printf("backend_crossover threads=%u fingerprint=%016" PRIx64
                " identical: %s\n",
                threads, fp, identical ? "yes" : "NO -- BUG");
  }
  if (!det_ok) return 1;

  std::printf("end-to-end: rtmp=%.3fs llhls=%.3fs hls=%.3fs\n",
              r.rtmp.total_s(), r.llhls.total_s(), r.hls.total_s());
  const bool delay_ok = r.rtmp.total_s() < r.llhls.total_s() &&
                        r.llhls.total_s() < r.hls.total_s();
  std::printf("backend_crossover delay ordering rtmp < llhls < hls: %s\n",
              delay_ok ? "yes" : "NO -- BUG");

  // Legacy parity: the two-lane experiment behind the pluggable
  // interface must still hash to the pre-refactor pin.
  const auto legacy = analysis::delay_breakdown_experiment(4, 42);
  const auto legacy_fp = analysis::legacy_breakdown_fingerprint(legacy);
  const bool parity_ok = legacy_fp == analysis::kLegacyBreakdownFingerprint;
  std::printf("backend_crossover legacy fingerprint=%016" PRIx64
              " pin=%016" PRIx64 " legacy parity: %s\n",
              legacy_fp, analysis::kLegacyBreakdownFingerprint,
              parity_ok ? "yes" : "NO -- BUG");

  // --- Part 2: the Figure-14 cost sweep through the backend hooks -------
  stats::print_banner("Server-cost crossover sweep (Figure 14)");
  const cdn::ResourceModel model;
  const cdn::DeliveryCadence cadence;
  const std::vector<std::uint32_t> counts = {0,  1,  2,   5,   10,  20,
                                             50, 100, 200, 500, 1000, 2000};
  const auto sweep = analysis::backend_cost_sweep(model, cadence, counts);
  std::uint32_t rtmp_vs_llhls = 0, rtmp_vs_hls = 0;
  bool between_ok = true;
  for (const auto& p : sweep) {
    std::printf("  viewers=%5u  rtmp=%8.2f%%  llhls=%7.2f%%  hls=%7.2f%%\n",
                p.viewers, p.rtmp_cpu_percent, p.llhls_cpu_percent,
                p.hls_cpu_percent);
    if (rtmp_vs_llhls == 0 && p.viewers > 0 &&
        p.rtmp_cpu_percent > p.llhls_cpu_percent)
      rtmp_vs_llhls = p.viewers;
    if (rtmp_vs_hls == 0 && p.viewers > 0 &&
        p.rtmp_cpu_percent > p.hls_cpu_percent)
      rtmp_vs_hls = p.viewers;
    // Once viewers amortise the part pipeline, LL-HLS must sit strictly
    // between the classic tiers.
    if (p.viewers >= 2 && !(p.hls_cpu_percent < p.llhls_cpu_percent &&
                            p.llhls_cpu_percent < p.rtmp_cpu_percent))
      between_ok = false;
  }
  std::printf("backend_crossover llhls between hls and rtmp (viewers >= 2): "
              "%s\n",
              between_ok ? "yes" : "NO -- BUG");
  // The zero-viewer point shows the part pipeline's fixed cost: slicing
  // partials is work even before the first blocking reload arrives.
  const bool fixed_ok = !sweep.empty() && sweep.front().viewers == 0 &&
                        sweep.front().llhls_cpu_percent >
                            sweep.front().hls_cpu_percent;
  std::printf("backend_crossover part-slicing fixed cost visible at zero "
              "viewers: %s\n",
              fixed_ok ? "yes" : "NO -- BUG");
  const bool cross_ok = rtmp_vs_llhls > 0 && rtmp_vs_hls > 0 &&
                        rtmp_vs_hls <= rtmp_vs_llhls;
  std::printf("backend_crossover crossover: rtmp overtakes hls at %u viewers, "
              "llhls at %u (hls first: %s)\n",
              rtmp_vs_hls, rtmp_vs_llhls, cross_ok ? "yes" : "NO -- BUG");

  if (!write_json(out, static_cast<int>(reps), r, fps, parity_ok, sweep,
                  rtmp_vs_llhls, rtmp_vs_hls, wall_ms_per_rep))
    return 1;
  std::printf("wrote %s\n", out);

  if (!delay_ok || !parity_ok || !between_ok || !fixed_ok || !cross_ok)
    return 1;
  std::printf("\nall checks passed\n");
  return 0;
}
