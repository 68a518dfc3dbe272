// livesim benchmark runner: four named workloads driven through the
// library's public entry points, one workload per process.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    [--smoke] [--commit ID] [--trace-out FILE]
//   perfbench_runner --list
//
// --trace 0 (the timed run) prints every end-to-end metric:
//   setup_s          median seconds of catalog build + config
//   wall_s           median seconds of one timed repetition
//   ns_per_join      wall_s over admitted joins (paper_figures: over the
//                    simulated viewer sessions of its trace drivers)
//   peak_rss_mb      median per-repetition peak RSS (VmHWM, reset first)
//   sim_failover_s   simulated mean blackout-to-resume time
//   sim_stall_ratio  simulated mean HLS stall ratio at P = 0 s
// setup_s and wall_s are host seconds taken to the reference speed: scaled
// by a fixed reference kernel's time, measured in the same run (see
// reference.h), so that a shared host's changes of speed cancel out.
// Every workload reports both sim_ metrics: flash_storm and paper_figures
// produce their own, and a workload without a blackout (or without the
// trace-driven HLS drivers) takes it from an untimed smoke-size probe of
// the workload that has one, at the same seed.
//
// --trace 1 (the traced run) runs one traced repetition between two
// untraced ones, replays each layer's public hot function on the
// workload's own inputs, and prints the per-layer metrics. Spans (name,
// start, end, parent, run id, self time) are kept in memory and written
// to --trace-out at exit.
//
// Every repetition is checked: invariants at any seed, pinned
// fingerprints at the default seed, identical fingerprints across the
// repetitions of one run. A failed check counts in "failed".
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "livesim/analysis/backends.h"
#include "livesim/analysis/experiments.h"
#include "livesim/analysis/flash_crowd.h"
#include "livesim/cdn/servers.h"
#include "livesim/client/playback.h"
#include "livesim/geo/datacenters.h"
#include "livesim/media/chunker.h"
#include "livesim/media/encoder.h"
#include "livesim/net/link.h"
#include "livesim/sim/poll_wheel.h"
#include "livesim/sim/simulator.h"
#include "livesim/workload/crowd.h"
#include "reference.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace livesim;
using perfbench::kReferenceCallS;
using perfbench::Reference;

constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kSetupsPerRound = 11;
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

const char* const kWorkloads[] = {"flash_storm", "steady_fanout",
                                  "periscope_tail", "paper_figures"};

// ---------------------------------------------------------------------------
// Host facts, clocks and memory

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return kNan;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 0x100000001b3ULL;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

// Resets the kernel's peak-RSS mark to the current RSS, so the VmHWM read
// after a repetition is that repetition's own peak rather than the
// process-lifetime maximum.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

struct Host {
  unsigned nproc = 0;
  std::string cpu_model = "unknown";
  std::string compiler = "unknown";
  std::string build_type = PERFBENCH_BUILD_TYPE;
  bool optimized = false;
  bool sanitized = false;
  bool rss_reset = false;
  std::string commit = "unknown";

  std::string json() const {
    std::ostringstream o;
    o << "{\"nproc\": " << nproc << ", \"cpu_model\": \""
      << json_escape(cpu_model) << "\", \"compiler\": \""
      << json_escape(compiler) << "\", \"build_type\": \""
      << json_escape(build_type) << "\", \"optimized\": "
      << (optimized ? "true" : "false")
      << ", \"sanitized\": " << (sanitized ? "true" : "false")
      << ", \"rss_reset\": " << (rss_reset ? "true" : "false")
      << ", \"commit\": \"" << json_escape(commit) << "\"}";
    return o.str();
  }
};

Host host_stamp(const std::string& commit) {
  Host h;
  h.nproc = std::thread::hardware_concurrency();
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) h.cpu_model = line.substr(colon + 2);
      break;
    }
  }
#if defined(__clang__)
  h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  h.compiler = std::string("gcc ") + __VERSION__;
#endif
#if defined(__OPTIMIZE__)
  h.optimized = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  h.sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  h.sanitized = true;
#endif
#endif
  h.rss_reset = reset_peak_rss();
  h.commit = commit.empty() ? "unknown" : commit;
  return h;
}

// ---------------------------------------------------------------------------
// Spans: recorded by the runner around its own calls into each layer.

class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
  };

  explicit Tracer(std::string run_id) : run_id_(std::move(run_id)) {}

  int open(std::string name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), parent, now_s(), 0.0});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = now_s();
    stack_.pop_back();
  }

  double duration(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end - s.start;
  }
  // Duration minus the part of it covered by direct children (spans are
  // strictly nested: the runner is one thread).
  double self_time(int id) const {
    double t = duration(id);
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].parent == id) t -= duration(static_cast<int>(i));
    return t;
  }
  // Total duration of every span with this name.
  double total(const std::string& name) const {
    double t = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].name == name) t += duration(static_cast<int>(i));
    return t;
  }

  void print_self_times(std::FILE* out) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const int id = static_cast<int>(i);
      int depth = 0;
      for (int p = spans_[i].parent; p >= 0;
           p = spans_[static_cast<std::size_t>(p)].parent)
        ++depth;
      std::fprintf(out, "span %*s%-*s total_s=%.6f self_s=%.6f\n", 2 * depth,
                   "", 40 - 2 * depth, spans_[i].name.c_str(), duration(id),
                   self_time(id));
    }
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    std::fprintf(f, "{\"run_id\": \"%s\", \"spans\": [\n",
                 json_escape(run_id_).c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const int id = static_cast<int>(i);
      std::fprintf(f,
                   "  {\"id\": %d, \"name\": \"%s\", \"parent\": %d, "
                   "\"run_id\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                   "\"self_s\": %.9f}%s\n",
                   id, json_escape(s.name).c_str(), s.parent,
                   json_escape(run_id_).c_str(), s.start - t0, s.end - t0,
                   self_time(id), i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::string run_id_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Opens a span on construction and closes it on destruction; a null
// tracer records nothing, so untraced repetitions pay one branch.
class Scope {
 public:
  Scope(Tracer* t, const char* name) : t_(t), id_(t ? t->open(name) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

// ---------------------------------------------------------------------------
// Workload definitions. Every seed the library takes is derived from the
// run seed; the default seed reproduces the library's (and the figure
// benches') own default seeds.

std::uint64_t derive(std::uint64_t base, std::uint64_t seed) {
  return base + (seed - kDefaultSeed);
}

enum class Size { kFull, kSmoke };

bool is_crowd(const std::string& w) { return w != "paper_figures"; }

analysis::FlashCrowdConfig crowd_config(const std::string& w,
                                        std::uint64_t seed, Size size) {
  const bool smoke = size == Size::kSmoke;
  analysis::FlashCrowdConfig cfg;
  cfg.crowd_seed = derive(cfg.crowd_seed, seed);
  cfg.service_seed = derive(cfg.service_seed, seed);
  cfg.scenario_seed = derive(cfg.scenario_seed, seed);
  cfg.batch_window = 500 * time::kMillisecond;
  cfg.rtmp_slot_cap = 0;
  if (w == "flash_storm") {
    // bench_crowd_service Part 1: the join storm collides with a
    // Frankfurt blackout on finite edges with spill rings.
    cfg.preset = workload::CrowdPreset::twitch_flash_crowd();
    cfg.preset.channels = 24;
    cfg.preset.viewers = smoke ? 100000 : 300000;
    cfg.preset.horizon = 2 * time::kMinute;
    cfg.preset.mean_session_s = 30.0;
    cfg.preset.spike_at_frac = 0.5;
    cfg.preset.spike_amplitude = 8.0;
    cfg.preset.spike_ramp_s = 20.0;
    cfg.session.edge_capacity = 4000;
    cfg.session.failover_spill_k = 16;
    cfg.session.control.enabled = true;
    cfg.session.control.overlay_assist = true;
    cfg.blackout = true;
    cfg.blackout_at = 70 * time::kSecond;
    cfg.blackout_duration = 20 * time::kSecond;
    cfg.threads = 1;
  } else if (w == "steady_fanout") {
    // twitch_steady_giants as shipped: long attachments, so poll fan-out
    // dominates and placement, control and fault sit idle.
    cfg.preset = workload::CrowdPreset::twitch_steady_giants();
    if (smoke) {
      cfg.preset.viewers = 2000;
      cfg.preset.horizon = 5 * time::kMinute;
      cfg.preset.mean_session_s = 200.0;
    }
    cfg.blackout = false;
    cfg.threads = 1;
  } else {
    // The paper's own regime: many broadcasts, few viewers each; the
    // broadcaster side dominates. Two by-channel shards put the parallel
    // runner and the merge on the measured path.
    cfg.preset = workload::CrowdPreset::periscope_tail();
    cfg.preset.channels = smoke ? 50 : 500;
    cfg.preset.viewers = smoke ? 1000 : 10000;
    cfg.preset.horizon = (smoke ? 2 : 10) * time::kMinute;
    cfg.blackout = false;
    cfg.threads = 2;
  }
  return cfg;
}

struct FiguresConfig {
  analysis::TraceSetConfig traces;
  std::uint64_t polling_seed = 0;
  std::uint64_t hls_seed = 0;
  std::uint64_t rtmp_seed = 0;
  std::uint64_t breakdown_seed = 0;
  int breakdown_reps = 10;
};

const DurationUs kPollIntervals[] = {2 * time::kSecond, 3 * time::kSecond,
                                     4 * time::kSecond};
const DurationUs kHlsPreBuffers[] = {0, 3 * time::kSecond, 6 * time::kSecond,
                                     9 * time::kSecond};
const DurationUs kRtmpPreBuffers[] = {0, 500 * time::kMillisecond,
                                      1 * time::kSecond};

FiguresConfig figures_config(std::uint64_t seed, Size size) {
  FiguresConfig cfg;
  cfg.traces.broadcasts = size == Size::kSmoke ? 600 : 1600;
  cfg.traces.seed = derive(1, seed);
  cfg.traces.threads = 1;
  cfg.polling_seed = derive(99, seed);
  cfg.hls_seed = derive(6, seed);
  cfg.rtmp_seed = derive(5, seed);
  cfg.breakdown_seed = derive(2016, seed);
  cfg.breakdown_reps = size == Size::kSmoke ? 2 : 10;
  return cfg;
}

// Everything a timed repetition needs before it starts.
struct Setup {
  geo::DatacenterCatalog catalog;
  analysis::FlashCrowdConfig crowd;
  FiguresConfig figures;
};

Setup make_setup(const std::string& w, std::uint64_t seed, Size size) {
  Setup s{geo::DatacenterCatalog::paper_footprint(), {}, {}};
  if (is_crowd(w))
    s.crowd = crowd_config(w, seed, size);
  else
    s.figures = figures_config(seed, size);
  return s;
}

// ---------------------------------------------------------------------------
// One repetition and its output checks.

struct Rep {
  std::uint64_t fingerprint = 0;
  std::uint64_t breakdown_fingerprint = 0;  // paper_figures only
  std::uint64_t joins = 0;
  std::uint64_t events = 0;
  double wall_s = kNan;
  double peak_rss_mb = kNan;
  double sim_failover_s = kNan;
  double sim_stall_ratio = kNan;
  std::vector<std::string> violations;
  // Crowd workloads: the experiment's own ledgers.
  std::optional<analysis::FlashCrowdStats> crowd;
  // paper_figures: structural counts of the trace drivers' work.
  std::uint64_t frames = 0;
  std::uint64_t chunks = 0;
};

void expect(Rep& r, bool ok, const std::string& what) {
  if (!ok) r.violations.push_back(what);
}

std::string u64(std::uint64_t v) { return std::to_string(v); }

Rep run_crowd(const Setup& s, const std::string& w, Tracer* tr) {
  Rep r;
  {
    Scope span(tr, "analysis.flash_crowd_experiment");
    r.crowd = analysis::flash_crowd_experiment(s.catalog, s.crowd);
  }
  const analysis::FlashCrowdStats& c = *r.crowd;
  r.fingerprint = c.fingerprint;
  r.joins = c.joins;
  r.events = c.events_processed;
  if (c.edge_failover_latency_s.count() > 0)
    r.sim_failover_s = c.edge_failover_latency_s.mean();

  // Conservation invariants, at any seed.
  expect(r, c.joins + c.late_joins == c.viewers,
         "joins + late_joins (" + u64(c.joins + c.late_joins) +
             ") != viewers (" + u64(c.viewers) + ")");
  expect(r, c.leaves == c.joins,
         "leaves (" + u64(c.leaves) + ") != joins (" + u64(c.joins) + ")");
  expect(r, c.reattach_latency_s.count() == c.edge_failovers,
         "reattach samples (" + u64(c.reattach_latency_s.count()) +
             ") != edge_failovers (" + u64(c.edge_failovers) + ")");
  expect(r, c.joins > 0, "no viewer was admitted");
  if (w == "flash_storm") {
    expect(r, c.orphaned_viewers == 0,
           "orphaned_viewers = " + u64(c.orphaned_viewers));
    expect(r, c.edge_failovers > 0, "the blackout forced no failover");
  }
  return r;
}

std::uint64_t hash_sampler(std::uint64_t h, const stats::Sampler& s) {
  h = fnv_mix(h, s.size());
  for (double x : s.samples()) h = fnv_mix(h, std::bit_cast<std::uint64_t>(x));
  return h;
}

Rep run_figures(const FiguresConfig& f, Tracer* tr) {
  Rep r;
  std::vector<analysis::BroadcastTrace> traces;
  {
    Scope span(tr, "analysis.generate_traces");
    traces = analysis::generate_traces(f.traces);
  }
  std::vector<analysis::PollingStats> polling;
  {
    Scope span(tr, "analysis.polling");
    for (DurationUs t : kPollIntervals)
      polling.push_back(analysis::polling_experiment(
          traces, t, 300 * time::kMillisecond, f.polling_seed, 1));
  }
  std::vector<analysis::BufferingStats> hls;
  {
    Scope span(tr, "analysis.hls_buffering");
    for (DurationUs p : kHlsPreBuffers)
      hls.push_back(analysis::hls_buffering_experiment(
          traces, p, time::from_seconds(2.8), f.hls_seed, 1));
  }
  std::vector<analysis::BufferingStats> rtmp;
  {
    Scope span(tr, "analysis.rtmp_buffering");
    for (DurationUs p : kRtmpPreBuffers)
      rtmp.push_back(
          analysis::rtmp_buffering_experiment(traces, p, f.rtmp_seed, 1));
  }
  analysis::BreakdownResult breakdown;
  {
    Scope span(tr, "analysis.breakdown");
    breakdown =
        analysis::delay_breakdown_experiment(f.breakdown_reps, f.breakdown_seed);
  }

  // Structural counts: one trace per broadcast, the drivers skip traces
  // with too few chunks (polling) or none (HLS).
  std::uint64_t pollable = 0, with_chunks = 0;
  for (const auto& t : traces) {
    r.frames += t.frame_arrivals.size();
    r.chunks += t.chunks.size();
    pollable += t.chunks.size() >= 3 ? 1 : 0;
    with_chunks += t.chunks.empty() ? 0 : 1;
  }
  // generate_traces schedules one capture event and one uplink arrival
  // per frame, plus the connect handshake per broadcast.
  r.events = 2 * r.frames + traces.size();

  std::uint64_t h = kFnvBasis;
  for (const auto& p : polling) {
    h = hash_sampler(h, p.per_broadcast_mean_s);
    h = hash_sampler(h, p.per_broadcast_std_s);
    expect(r, p.per_broadcast_mean_s.size() == pollable,
           "polling samples (" + u64(p.per_broadcast_mean_s.size()) +
               ") != pollable traces (" + u64(pollable) + ")");
    r.joins += p.per_broadcast_mean_s.size();
  }
  for (const auto* lane : {&hls, &rtmp}) {
    for (const auto& b : *lane) {
      h = hash_sampler(h, b.stall_ratio);
      h = hash_sampler(h, b.mean_delay_s);
      expect(r, b.stall_ratio.min() >= 0.0 && b.stall_ratio.max() <= 1.0,
             "stall ratio outside [0, 1]");
      r.joins += b.stall_ratio.size();
    }
  }
  for (const auto& b : hls)
    expect(r, b.stall_ratio.size() == with_chunks,
           "HLS samples (" + u64(b.stall_ratio.size()) +
               ") != traces with chunks (" + u64(with_chunks) + ")");
  for (const auto& b : rtmp)
    expect(r, b.stall_ratio.size() == traces.size(),
           "RTMP samples (" + u64(b.stall_ratio.size()) + ") != traces (" +
               u64(traces.size()) + ")");
  expect(r, traces.size() == static_cast<std::size_t>(f.traces.broadcasts),
         "trace count != broadcasts");
  expect(r, breakdown.rtmp.total_s() > 0.0 && breakdown.hls.total_s() > 0.0,
         "empty delay breakdown");
  // The controlled sessions: one RTMP and one HLS viewer each.
  r.joins += 2 * static_cast<std::uint64_t>(f.breakdown_reps);

  r.fingerprint = h;
  r.breakdown_fingerprint = analysis::legacy_breakdown_fingerprint(breakdown);
  // The P = 0 arm: at P = 9 s only ~1% of broadcasts stall, so that mean
  // swings +-60% from seed to seed; every arm is still in the fingerprint.
  r.sim_stall_ratio = hls.front().stall_ratio.mean();
  expect(r, r.sim_stall_ratio > 0.0, "no HLS stall at P = 0 s");
  return r;
}

Rep run_workload(const Setup& s, const std::string& w, Tracer* tr) {
  return is_crowd(w) ? run_crowd(s, w, tr) : run_figures(s.figures, tr);
}

// Fingerprints at the default seed, per workload and size. A model
// change that moves any of them fails the check. The smoke-size storm is
// bench_crowd_service Part 1 at 100k viewers, whose fingerprint
// BENCH_crowd.json tracks. periscope_tail's pins hold at threads 1 and 2.
struct Pin {
  const char* workload;
  Size size;
  std::uint64_t fingerprint;
  std::uint64_t breakdown_fingerprint;
};

const Pin kPins[] = {
    {"flash_storm", Size::kFull, 0xcb8912b4e9a48be4ULL, 0},
    {"flash_storm", Size::kSmoke, 0x9c7c06f5e3ad7458ULL, 0},
    {"steady_fanout", Size::kFull, 0x34ed911e9fde2a56ULL, 0},
    {"steady_fanout", Size::kSmoke, 0x7c718255d37ca5d6ULL, 0},
    {"periscope_tail", Size::kFull, 0x0fd13aba2ae598a1ULL, 0},
    {"periscope_tail", Size::kSmoke, 0xf4b005fe05aaa0d9ULL, 0},
    {"paper_figures", Size::kFull, 0x346cf2fa95ac35dcULL,
     0x1c25cf3aa3386ed3ULL},
    {"paper_figures", Size::kSmoke, 0x8725d7a753c252ceULL,
     0x5b2d6dd315060219ULL},
};

void check_pin(Rep& r, const std::string& w, Size size) {
  for (const Pin& p : kPins) {
    if (w != p.workload || size != p.size) continue;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "fingerprint %016" PRIx64 "/%016" PRIx64
                  " != pinned %016" PRIx64 "/%016" PRIx64,
                  r.fingerprint, r.breakdown_fingerprint, p.fingerprint,
                  p.breakdown_fingerprint);
    expect(r,
           r.fingerprint == p.fingerprint &&
               r.breakdown_fingerprint == p.breakdown_fingerprint,
           buf);
  }
}

// Counts attempted and failed repetitions and reports every violation.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(const char* phase, const Rep& r) {
    ++attempted;
    if (r.violations.empty()) return;
    ++failed;
    for (const auto& v : r.violations)
      std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", phase, v.c_str());
  }
};

// Times a round of set-ups. Rounds run at the start and before every
// timed repetition, so the reported median spans the whole run, as the
// repetitions' does, rather than the host's state in its first moment.
// Each round starts with one untimed set-up that brings its code and data
// back into cache after the repetition before it.
void time_setups(std::vector<double>& out, const std::string& w,
                 std::uint64_t seed, Size size) {
  (void)make_setup(w, seed, size);
  for (int i = 0; i < kSetupsPerRound; ++i) {
    const double t0 = now_s();
    const Setup s = make_setup(w, seed, size);
    out.push_back(now_s() - t0);
  }
}

// One repetition of a prepared setup, with its wall time and its own
// peak RSS.
Rep timed_rep(const Setup& s, const std::string& w, Tracer* tr) {
  reset_peak_rss();
  const double t0 = now_s();
  Rep r = run_workload(s, w, tr);
  r.wall_s = now_s() - t0;
  r.peak_rss_mb = peak_rss_mb();
  return r;
}

// Sets up, runs, checks and records one repetition at (size, seed).
Rep checked_rep(Ledger& ledger, const char* phase, const std::string& w,
                std::uint64_t seed, Size size, Tracer* tr,
                unsigned threads = 0) {
  Setup s = make_setup(w, seed, size);
  if (threads != 0) s.crowd.threads = threads;
  Rep r = timed_rep(s, w, tr);
  if (seed == kDefaultSeed) check_pin(r, w, size);
  ledger.record(phase, r);
  return r;
}

// ---------------------------------------------------------------------------
// Layer replays: each times a layer's public hot function on inputs shaped
// like the workload's own, from the runner.

struct KernelInputs {
  std::uint64_t seed = kDefaultSeed;
  std::size_t queue_depth = 64;      // pending engine events per simulator
  std::size_t wheel_members = 1;     // peak_edge_load
  DurationUs poll_period = 2800 * time::kMillisecond;
  std::uint32_t wheel_slots = 64;
  std::vector<DatacenterId> dark;    // edges inside the blackout
  net::Link::Params last_mile = net::LastMileProfiles::wifi();
  DurationUs hls_prebuffer = 9 * time::kSecond;
  std::size_t scale = 1;             // smoke runs divide op counts by 10
};

template <typename F>
double ns_per_op(std::uint64_t ops, F&& body) {
  const double t0 = now_s();
  body();
  return (now_s() - t0) * 1e9 / static_cast<double>(ops ? ops : 1);
}

// Hold model: `depth` pending events; each fired event schedules its
// successor, so every op is one pop plus one push at constant depth.
double kernel_heap(const KernelInputs& in) {
  struct Hold {
    sim::Simulator* sim;
    Rng* rng;
    std::uint64_t* budget;
    void operator()() const {
      if (*budget == 0) return;
      --*budget;
      sim->schedule_in(rng->uniform_int(1, 200000), *this);
    }
  };
  sim::Simulator sim;
  Rng rng(in.seed);
  std::uint64_t budget = 2000000 / in.scale;
  for (std::size_t i = 0; i < in.queue_depth; ++i)
    sim.schedule_at(rng.uniform_int(0, 200000), Hold{&sim, &rng, &budget});
  const double t0 = now_s();
  sim.run();
  return (now_s() - t0) * 1e9 /
         static_cast<double>(std::max<std::size_t>(1, sim.events_processed()));
}

double kernel_wheel_fire(const KernelInputs& in) {
  sim::Simulator sim;
  sim::PollWheel wheel(sim, in.poll_period, in.wheel_slots);
  std::uint64_t visits = 0;
  wheel.set_fanout([&visits](TimeUs, std::uint64_t, sim::CohortSlot) {
    ++visits;
  });
  Rng rng(in.seed);
  for (std::size_t i = 0; i < in.wheel_members; ++i)
    wheel.attach(wheel.quantize(static_cast<TimeUs>(
                     rng.uniform() * static_cast<double>(in.poll_period))),
                 i);
  const std::uint64_t target = 4000000 / in.scale;
  const auto rotations = static_cast<TimeUs>(
      std::max<std::uint64_t>(2, target / in.wheel_members));
  const double t0 = now_s();
  sim.run_until(rotations * wheel.effective_period());
  const double ns = (now_s() - t0) * 1e9;
  return ns / static_cast<double>(std::max<std::uint64_t>(1, visits));
}

// Churn at constant membership: each op detaches a random resident and
// attaches a newcomer in its place.
double kernel_wheel_attach_detach(const KernelInputs& in) {
  sim::Simulator sim;
  sim::PollWheel wheel(sim, in.poll_period, in.wheel_slots);
  wheel.set_fanout([](TimeUs, std::uint64_t, sim::CohortSlot) {});
  Rng rng(in.seed);
  const auto phase = [&rng, &wheel, &in] {
    return wheel.quantize(static_cast<TimeUs>(
        rng.uniform() * static_cast<double>(in.poll_period)));
  };
  std::vector<sim::CohortSlot> slots(in.wheel_members);
  for (std::size_t i = 0; i < slots.size(); ++i)
    slots[i] = wheel.attach(phase(), i);
  const std::uint64_t ops = 1000000 / in.scale;
  std::vector<std::size_t> victims(ops);
  for (auto& v : victims)
    v = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(slots.size()) - 1));
  std::vector<TimeUs> phases(ops);
  for (auto& p : phases) p = phase();
  return ns_per_op(ops, [&] {
    for (std::uint64_t i = 0; i < ops; ++i) {
      auto& s = slots[victims[i]];
      wheel.detach(s);
      s = wheel.attach(phases[i], i);
    }
  });
}

double kernel_k_nearest(const geo::DatacenterCatalog& catalog,
                        const KernelInputs& in) {
  geo::UserGeoSampler sampler;
  Rng rng(in.seed);
  std::vector<geo::GeoPoint> points(4096);
  for (auto& p : points) p = sampler.sample(rng);
  const std::uint64_t calls = 200000 / in.scale;
  std::size_t sink = 0;
  const double ns = ns_per_op(calls, [&] {
    for (std::uint64_t i = 0; i < calls; ++i)
      sink += catalog
                  .k_nearest(points[i % points.size()], geo::CdnRole::kEdge,
                             16, in.dark)
                  .size();
  });
  if (sink == 0) std::fprintf(stderr, "k_nearest returned nothing\n");
  return ns;
}

// A poll transaction's two last-mile legs: the request and the playlist
// response, with a chunk download on every other response.
double kernel_sample_delay(const KernelInputs& in) {
  sim::Simulator sim;
  net::Link link(sim, in.last_mile, Rng(in.seed));
  const std::size_t bytes[] = {400, 1200, 400, 1200 + 150000};
  const std::uint64_t calls = 4000000 / in.scale;
  DurationUs sink = 0;
  const double ns = ns_per_op(calls, [&] {
    for (std::uint64_t i = 0; i < calls; ++i)
      sink += link.sample_delay(bytes[i & 3]);
  });
  if (sink < 0) std::fprintf(stderr, "negative delay\n");
  return ns;
}

// The broadcaster uplink at the encoder's frame sizes. Frames go out in
// bursts of 256 (about 10 s of video); each burst's arrivals are
// delivered, untimed, before the next, so the heap stays shallow as it is
// in a session.
double kernel_uplink_send(const KernelInputs& in) {
  sim::Simulator sim;
  net::FifoUplink uplink(sim, net::LastMileProfiles::stable_uplink(),
                         Rng(in.seed));
  media::FrameSource source({}, Rng(in.seed + 1));
  const std::uint64_t sends = 500000 / in.scale;
  std::vector<std::uint32_t> sizes(sends);
  for (auto& s : sizes) s = source.next(0).size_bytes + 64;
  constexpr std::uint64_t kBurst = 256;
  double busy = 0.0;
  for (std::uint64_t i = 0; i < sends; i += kBurst) {
    const std::uint64_t end = std::min(sends, i + kBurst);
    const double t0 = now_s();
    for (std::uint64_t j = i; j < end; ++j)
      uplink.send(sizes[j], [](TimeUs) {});
    busy += now_s() - t0;
    sim.run();
  }
  return busy * 1e9 / static_cast<double>(sends);
}

double kernel_frame(const KernelInputs& in) {
  media::FrameSource source({}, Rng(in.seed));
  media::Chunker chunker({});
  const std::uint64_t frames = 1000000 / in.scale;
  std::uint64_t sealed = 0;
  const double ns = ns_per_op(frames, [&] {
    for (std::uint64_t i = 0; i < frames; ++i) {
      const media::VideoFrame f = source.next(0);
      if (chunker.push(f, f.capture_ts + 50 * time::kMillisecond)) ++sealed;
    }
  });
  if (sealed == 0) std::fprintf(stderr, "chunker sealed nothing\n");
  return ns;
}

// Polls against a warm edge: the cache holds the origin's window, so
// every poll is answered at once; half the clients are one chunk behind.
double kernel_on_poll(const KernelInputs& in) {
  sim::Simulator sim;
  std::vector<media::Chunk> window(8);
  for (std::size_t i = 0; i < window.size(); ++i) {
    window[i].seq = i;
    window[i].duration = 3 * time::kSecond;
    window[i].size_bytes = 150000;
  }
  const cdn::ResourceModel resources{};
  cdn::EdgeServer edge(
      sim, DatacenterId{0},
      [&window](std::function<void(cdn::EdgeServer::FetchResult)> done) {
        done(window);
      },
      resources);
  const auto latest = static_cast<std::int64_t>(window.back().seq);
  edge.on_expire_notice(static_cast<std::uint64_t>(latest));
  edge.on_poll(-1, [](TimeUs, std::vector<media::Chunk>) {});
  const std::uint64_t polls = 2000000 / in.scale;
  std::uint64_t delivered = 0;
  const double ns = ns_per_op(polls, [&] {
    for (std::uint64_t i = 0; i < polls; ++i)
      edge.on_poll(latest - static_cast<std::int64_t>(i & 1),
                   [&delivered](TimeUs, std::vector<media::Chunk> fresh) {
                     delivered += fresh.size();
                   });
  });
  if (delivered == 0) std::fprintf(stderr, "edge served nothing\n");
  return ns;
}

double kernel_on_arrival(const KernelInputs& in) {
  client::PlaybackSchedule playback(in.hls_prebuffer);
  Rng rng(in.seed);
  const std::uint64_t calls = 2000000 / in.scale;
  std::vector<DurationUs> jitter(4096);
  for (auto& j : jitter)
    j = static_cast<DurationUs>(rng.uniform() * 2.0 * time::kSecond);
  const DurationUs chunk = 3 * time::kSecond;
  const double ns = ns_per_op(calls, [&] {
    for (std::uint64_t i = 0; i < calls; ++i) {
      const auto media = static_cast<DurationUs>(i) * chunk;
      playback.on_arrival(media + 4 * time::kSecond + jitter[i & 4095], media,
                          chunk);
    }
  });
  if (playback.units_played() == 0) std::fprintf(stderr, "nothing played\n");
  return ns;
}

// ---------------------------------------------------------------------------
// Metrics output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, const Ledger& ledger,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", ledger.attempted, ledger.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool list = false;
  std::string commit;
  std::string trace_out;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--list") {
      o.list = true;
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (!has_value) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return false;
    } else if (a == "--workload") {
      o.workload = argv[++i];
    } else if (a == "--seed") {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      o.trace = std::string(argv[++i]) == "1";
    } else if (a == "--commit") {
      o.commit = argv[++i];
    } else if (a == "--trace-out") {
      o.trace_out = argv[++i];
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return false;
    }
  }
  if (o.list) return true;
  for (const char* w : kWorkloads)
    if (o.workload == w) return o.seconds > 0.0;
  std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
  return false;
}

// The smoke-size probes a workload runs, untimed, for what it does not
// produce itself: the storm's failover time and crowd ledgers, and the
// trace drivers' stall ratio and analysis spans.
struct Probes {
  std::optional<Rep> storm;
  std::optional<Rep> figures;
};

Probes run_probes(Ledger& ledger, const Options& o, Tracer* tr) {
  Probes p;
  if (o.workload != "flash_storm") {
    Scope span(tr, "probe.flash_storm");
    p.storm = checked_rep(ledger, "probe", "flash_storm", o.seed, Size::kSmoke,
                          tr);
  }
  if (o.workload != "paper_figures") {
    Scope span(tr, "probe.paper_figures");
    p.figures = checked_rep(ledger, "probe", "paper_figures", o.seed,
                            Size::kSmoke, tr);
  }
  return p;
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Host times are reported at the reference speed (see reference.h): after
// every repetition the reference kernel runs for kReferenceShare of the
// repetition's time, and the run's set-up and repetition times are scaled
// by kReferenceCallS over the reference's time per call.
constexpr double kReferenceShare = 0.3;

std::vector<Metric> timed_metrics(Ledger& ledger, const Options& o,
                                  const Setup& setup, Reference& reference,
                                  std::vector<double>& setups) {
  const std::string& w = o.workload;
  const Size size = o.smoke ? Size::kSmoke : Size::kFull;
  std::vector<double> walls, rss;
  std::optional<Rep> first;
  const double start = now_s();
  do {
    time_setups(setups, w, o.seed, size);
    Rep r = timed_rep(setup, w, nullptr);
    const double ref_s = reference.sample(kReferenceShare * r.wall_s);
    walls.push_back(r.wall_s);
    rss.push_back(r.peak_rss_mb);
    std::printf("rep %zu host_wall_s %.6f reference_call_s %.6f "
                "peak_rss_mb %.1f\n",
                walls.size(), r.wall_s, ref_s, r.peak_rss_mb);
    std::fflush(stdout);
    if (o.seed == kDefaultSeed) check_pin(r, w, size);
    if (first)
      expect(r,
             r.fingerprint == first->fingerprint &&
                 r.breakdown_fingerprint == first->breakdown_fingerprint,
             "fingerprint differs between repetitions of one seed");
    ledger.record("timed", r);
    if (!first) first = std::move(r);
  } while (now_s() - start < o.seconds);

  const Probes probes = run_probes(ledger, o, nullptr);

  const double scale = kReferenceCallS / reference.call_s();
  const double host_wall = median(walls);
  const double wall = host_wall * scale;
  std::printf("reps %zu host_wall_s min %.6f median %.6f max %.6f "
              "reference_call_s %.6f wall_s %.6f\n",
              walls.size(), *std::min_element(walls.begin(), walls.end()),
              host_wall, *std::max_element(walls.begin(), walls.end()),
              reference.call_s(), wall);
  const Rep& storm = probes.storm ? *probes.storm : *first;
  const Rep& figures = probes.figures ? *probes.figures : *first;
  return {
      {"setup_s", median(setups) * scale, "s"},
      {"wall_s", wall, "s"},
      {"ns_per_join", per(wall * 1e9, static_cast<double>(first->joins)), "ns"},
      {"peak_rss_mb", median(rss), "MB"},
      {"sim_failover_s", storm.sim_failover_s, "s"},
      {"sim_stall_ratio", figures.sim_stall_ratio, "ratio"},
  };
}

// Heap depth each engine event is popped at, averaged over the run's
// events (full size, default seed), sampled once with an instrumented
// engine; the heap replay runs at this depth.
std::size_t queue_depth(const std::string& w) {
  if (w == "flash_storm") return 1900;
  if (w == "steady_fanout") return 150;
  if (w == "periscope_tail") return 12;
  return 1500;  // paper_figures: generate_traces queues every frame up front
}

std::vector<Metric> traced_metrics(Ledger& ledger, const Options& o,
                                   const Setup& setup) {
  const std::string& w = o.workload;
  const bool crowd = is_crowd(w);

  // Untraced reference repetitions bracket the traced one, so a drift in
  // host speed does not read as tracing overhead.
  Rep plain = timed_rep(setup, w, nullptr);
  ledger.record("untraced", plain);

  Tracer tracer(w + "-seed" + std::to_string(o.seed) + "-pid" +
                std::to_string(getpid()));
  const int root = tracer.open("run");
  {
    Scope span(&tracer, "setup");
    (void)make_setup(w, o.seed, o.smoke ? Size::kSmoke : Size::kFull);
  }
  Rep traced;
  {
    Scope span(&tracer, "rep");
    traced = timed_rep(setup, w, &tracer);
  }
  expect(traced,
         traced.fingerprint == plain.fingerprint &&
             traced.breakdown_fingerprint == plain.breakdown_fingerprint,
         "traced fingerprint differs from untraced");
  ledger.record("traced", traced);
  Rep after;
  {
    Scope span(&tracer, "untraced_rep");
    after = timed_rep(setup, w, nullptr);
  }
  expect(after, after.fingerprint == plain.fingerprint,
         "fingerprint differs between repetitions of one seed");
  ledger.record("untraced", after);
  const double wall = 0.5 * (plain.wall_s + after.wall_s);
  const Probes probes = run_probes(ledger, o, &tracer);

  // Crowd-layer inputs and ledgers come from the run's own crowd, or on
  // paper_figures from the storm probe; the failover ledgers come from
  // the storm that sim_failover_s comes from.
  const Rep& crowd_rep = crowd ? traced : *probes.storm;
  const analysis::FlashCrowdStats& storm =
      probes.storm ? *probes.storm->crowd : *traced.crowd;
  const analysis::FlashCrowdConfig crowd_cfg =
      crowd ? setup.crowd : crowd_config("flash_storm", o.seed, Size::kSmoke);
  const analysis::FlashCrowdStats& cs = *crowd_rep.crowd;
  std::vector<workload::CrowdRecord> records;
  {
    Scope span(&tracer, "workload.generate_crowd");
    records = workload::generate_crowd(crowd_cfg.preset, crowd_cfg.crowd_seed,
                                       crowd_cfg.threads);
  }
  const auto shape = workload::crowd_shape(records, crowd_cfg.preset.horizon);

  KernelInputs in;
  in.seed = o.seed;
  in.queue_depth = queue_depth(w);
  in.wheel_members = std::max<std::size_t>(1, cs.peak_edge_load);
  if (crowd_cfg.blackout) {
    for (const geo::Datacenter* e : setup.catalog.edge_sites())
      if (geo::haversine_km(e->location, crowd_cfg.blackout_center) <=
          crowd_cfg.blackout_radius_km)
        in.dark.push_back(e->id);
  }
  in.poll_period = crowd_cfg.session.hls_poll_interval;
  in.wheel_slots = crowd_cfg.session.poll_wheel_slots;
  in.last_mile = crowd_cfg.session.viewer_last_mile;
  in.hls_prebuffer = crowd_cfg.session.hls_prebuffer;
  in.scale = o.smoke ? 10 : 1;

  struct Kernel {
    const char* name;
    double ns;
  };
  std::vector<Kernel> k;
  {
    Scope span(&tracer, "replay");
    const auto replay = [&](const char* name, auto&& fn) {
      Scope s(&tracer, name);
      k.push_back({name, fn()});
    };
    replay("sim.heap", [&] { return kernel_heap(in); });
    replay("sim.wheel_fire", [&] { return kernel_wheel_fire(in); });
    replay("sim.wheel_attach_detach",
           [&] { return kernel_wheel_attach_detach(in); });
    replay("geo.k_nearest",
           [&] { return kernel_k_nearest(setup.catalog, in); });
    replay("net.sample_delay", [&] { return kernel_sample_delay(in); });
    replay("net.uplink_send", [&] { return kernel_uplink_send(in); });
    replay("media.frame", [&] { return kernel_frame(in); });
    replay("cdn.on_poll", [&] { return kernel_on_poll(in); });
    replay("client.on_arrival", [&] { return kernel_on_arrival(in); });
  }
  tracer.close(root);
  const auto ns = [&k](const char* name) {
    for (const Kernel& x : k)
      if (std::strcmp(x.name, name) == 0) return x.ns;
    return kNan;
  };

  // Call counts behind the share estimates, from this workload's own
  // work: a viewer polls once per poll period (two last-mile legs, one
  // edge poll, one wheel visit) and receives a 3 s chunk every 3 s
  // watched; every broadcast pushes a frame per 40 ms through uplink and
  // chunker.
  double polls = 0.0, arrivals = 0.0, frames = 0.0, placements = 0.0;
  const double generate_crowd_s = tracer.total("workload.generate_crowd");
  if (crowd) {
    double watched_s = 0.0;
    for (const auto& r : records)
      watched_s += time::to_seconds(
          std::min(r.stay, crowd_cfg.preset.horizon - r.join));
    polls = watched_s / time::to_seconds(in.poll_period);
    arrivals = watched_s / 3.0;
    frames = static_cast<double>(crowd_cfg.preset.channels) *
             time::to_seconds(crowd_cfg.preset.horizon) / 0.040;
    placements = static_cast<double>(cs.joins + cs.edge_failovers +
                                     cs.edge_spills);
  } else {
    frames = static_cast<double>(traced.frames);
    arrivals = static_cast<double>(4 * traced.chunks + 3 * traced.frames);
  }
  const double events = static_cast<double>(traced.events);
  const double wall_ns = wall * 1e9;

  tracer.print_self_times(stdout);
  if (!o.trace_out.empty() && !tracer.write(o.trace_out))
    std::fprintf(stderr, "cannot write %s\n", o.trace_out.c_str());

  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"sim.events", events, "count"},
      {"sim.ns_per_event", per(wall_ns, events), "ns"},
      {"sim.heap_ns_per_op", ns("sim.heap"), "ns"},
      {"sim.wheel_fire_ns_per_member", ns("sim.wheel_fire"), "ns"},
      {"sim.wheel_attach_detach_ns", ns("sim.wheel_attach_detach"), "ns"},
      {"sim.share_est",
       per(events * ns("sim.heap") + polls * ns("sim.wheel_fire"), wall_ns),
       "ratio"},
      {"geo.k_nearest_ns", ns("geo.k_nearest"), "ns"},
      {"geo.k_nearest_calls_est",
       count(cs.joins + cs.edge_failovers + cs.edge_spills), "count"},
      {"geo.share_est", per(placements * ns("geo.k_nearest"), wall_ns),
       "ratio"},
      {"net.sample_delay_ns", ns("net.sample_delay"), "ns"},
      {"net.uplink_send_ns", ns("net.uplink_send"), "ns"},
      {"net.share_est",
       per(2 * polls * ns("net.sample_delay") + frames * ns("net.uplink_send"),
           wall_ns),
       "ratio"},
      {"media.frame_ns", ns("media.frame"), "ns"},
      {"media.share_est", per(frames * ns("media.frame"), wall_ns), "ratio"},
      {"cdn.on_poll_ns", ns("cdn.on_poll"), "ns"},
      {"cdn.edge_failovers", count(storm.edge_failovers), "count"},
      {"cdn.edge_spills", count(storm.edge_spills), "count"},
      {"cdn.peak_edge_load", count(cs.peak_edge_load), "count"},
      {"cdn.share_est", per(polls * ns("cdn.on_poll"), wall_ns), "ratio"},
      {"client.on_arrival_ns", ns("client.on_arrival"), "ns"},
      {"client.share_est", per(arrivals * ns("client.on_arrival"), wall_ns),
       "ratio"},
      {"core.joins", count(cs.joins), "count"},
      {"core.late_joins", count(cs.late_joins), "count"},
      {"core.batches", count(cs.batches), "count"},
      {"core.events_per_join",
       per(count(cs.events_processed), count(cs.joins)), "ratio"},
      {"core.rss_bytes_per_viewer",
       per((crowd ? plain.peak_rss_mb : crowd_rep.peak_rss_mb) * 1048576.0,
           shape.peak_concurrent),
       "B"},
      {"control.proactive_migrations", count(storm.proactive_migrations),
       "count"},
      {"control.steered_joins", count(storm.steered_joins), "count"},
      {"control.drains", count(storm.control_drains), "count"},
      {"workload.generate_crowd_s", generate_crowd_s, "s"},
      {"workload.share_est", crowd ? per(generate_crowd_s, wall) : 0.0,
       "ratio"},
      {"analysis.generate_traces_s", tracer.total("analysis.generate_traces"),
       "s"},
      {"analysis.polling_s", tracer.total("analysis.polling"), "s"},
      {"analysis.hls_buffering_s", tracer.total("analysis.hls_buffering"), "s"},
      {"analysis.rtmp_buffering_s", tracer.total("analysis.rtmp_buffering"),
       "s"},
      {"analysis.breakdown_s", tracer.total("analysis.breakdown"), "s"},
      {"analysis.shard_imbalance", cs.shard_imbalance, "ratio"},
      {"analysis.planned_speedup", cs.planned_speedup, "ratio"},
      {"trace.overhead", per(traced.wall_s, wall), "ratio"},
  };
}

int run(const Options& o) {
  const std::string& w = o.workload;
  const Size size = o.smoke ? Size::kSmoke : Size::kFull;
  Ledger ledger;

  // The first reference sample covers the set-up round before the first
  // repetition.
  Reference reference;
  std::printf("reference_call_s %.6f\n", reference.sample(0.2));
  std::vector<double> setups;
  time_setups(setups, w, o.seed, size);
  const Setup setup = make_setup(w, o.seed, size);

  // Warm-up, not timed: the smoke-size workload at the default seed,
  // against its pin. periscope_tail runs it at threads=1 while its pin is
  // the threads=2 fingerprint, so this also checks the cross-thread
  // contract.
  checked_rep(ledger, "warm-up", w, kDefaultSeed, Size::kSmoke, nullptr,
              w == "periscope_tail" ? 1 : 0);

  // Smoke runs check the cross-thread contract at the run seed too.
  if (o.smoke && w == "periscope_tail") {
    const Rep t1 = checked_rep(ledger, "threads=1", w, o.seed, size, nullptr, 1);
    Rep t2 = timed_rep(setup, w, nullptr);  // threads=2, as configured
    expect(t2, t2.fingerprint == t1.fingerprint,
           "fingerprint at threads=2 differs from threads=1");
    ledger.record("threads=2", t2);
  }

  const std::vector<Metric> metrics =
      o.trace ? traced_metrics(ledger, o, setup)
              : timed_metrics(ledger, o, setup, reference, setups);

  bool correct = ledger.failed == 0;
  if (!reference.consistent()) {
    std::fprintf(stderr, "reference kernel checksum differs between calls\n");
    correct = false;
  }
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s was not measured\n", m.name.c_str());
      correct = false;
    }
  }
  print_result(correct, ledger, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) return 2;
  if (o.list) {
    for (const char* w : kWorkloads) std::printf("%s\n", w);
    return 0;
  }
  const Host host = host_stamp(o.commit);
  std::printf("host %s\n", host.json().c_str());
  if (!o.smoke && (!host.optimized || host.sanitized)) {
    std::fprintf(stderr,
                 "refusing to time a %s build: configure with "
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo and no sanitizer\n",
                 host.sanitized ? "sanitizer" : "unoptimised");
    return 2;
  }
  return run(o);
}
