// Pins the engine's "allocation-free hot path" contract with a global
// operator-new hook: once the arena and heap are warm, scheduling and
// running events whose captures fit the EventFn inline budget must perform
// ZERO heap allocations, and PeriodicProcess steady-state ticking must
// re-arm in place without touching the allocator. The same hook pins the
// HLS poll round trip (a warm edge answers polls without allocating, and
// a session's steady-state allocations do not grow with its HLS audience)
// and the broadcaster frame path (a warm session ingests frames without
// allocating, and RTMP pushes do not allocate per viewer).
//
// This lives in its own test binary because replacing global operator new
// is a whole-program decision; the main livesim_tests binary stays stock.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "livesim/cdn/resource_model.h"
#include "livesim/cdn/servers.h"
#include "livesim/core/broadcast_session.h"
#include "livesim/geo/datacenters.h"
#include "livesim/sim/simulator.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace livesim::sim {
namespace {

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(EngineAllocations, WarmSchedulingOfSmallCapturesIsAllocationFree) {
  Simulator sim;
  std::uint64_t sink = 0;
  // Warm-up: grow the slot arena, the heap vector, and the position array
  // past the sizes the measured phase will need.
  constexpr int kWarm = 4096;
  constexpr int kMeasured = 1024;
  for (int i = 0; i < kWarm; ++i)
    sim.schedule_at((i * 7) % 50, [&sink] { ++sink; });
  sim.run();

  // Measured phase: a capture well under the inline budget (one pointer
  // plus two 8-byte values = 24 bytes).
  const std::uint64_t before = allocation_count();
  std::uint64_t a = 1, b = 2;
  for (int i = 0; i < kMeasured; ++i)
    sim.schedule_at(sim.now() + (i * 13) % 50,
                    [&sink, a, b] { sink += a + b; });
  const std::uint64_t after_schedule = allocation_count();
  sim.run();
  const std::uint64_t after_run = allocation_count();

  EXPECT_EQ(after_schedule - before, 0u)
      << "scheduling a <=64-byte capture allocated";
  EXPECT_EQ(after_run - after_schedule, 0u) << "running events allocated";
  EXPECT_EQ(sink, static_cast<std::uint64_t>(kWarm) + 3u * kMeasured);
}

TEST(EngineAllocations, CancelIsAllocationFree) {
  Simulator sim;
  constexpr int kWarm = 4096;
  std::vector<EventHandle> handles;
  handles.reserve(kWarm);
  std::uint64_t sink = 0;
  for (int i = 0; i < kWarm; ++i)
    sim.schedule_at((i * 7) % 50, [&sink] { ++sink; });
  sim.run();

  for (int i = 0; i < kWarm; ++i)
    handles.push_back(
        sim.schedule_at(sim.now() + (i * 7) % 50, [&sink] { ++sink; }));
  const std::uint64_t before = allocation_count();
  for (const EventHandle& h : handles) EXPECT_TRUE(sim.cancel(h));
  EXPECT_EQ(allocation_count() - before, 0u) << "cancel allocated";
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(EngineAllocations, OversizedCaptureAllocatesExactlyOncePerSchedule) {
  Simulator sim;
  std::uint64_t sink = 0;
  sim.schedule_at(1, [&sink] { ++sink; });
  sim.run();  // warm the arena and heap

  std::array<char, 100> big{};  // over the 64-byte inline budget
  big[0] = 1;
  const std::uint64_t before = allocation_count();
  sim.schedule_at(sim.now() + 1,
                  [&sink, big] { sink += static_cast<unsigned char>(big[0]); });
  EXPECT_EQ(allocation_count() - before, 1u)
      << "an oversized capture should cost exactly one boxed cell";
  sim.run();
  EXPECT_EQ(sink, 2u);
}

TEST(EngineAllocations, PeriodicSteadyStateTickingIsAllocationFree) {
  Simulator sim;
  std::uint64_t ticks_seen = 0;
  PeriodicProcess proc(sim, 0, 10, [&](PeriodicProcess&) { ++ticks_seen; });
  sim.run_until(50);  // construction + first few ticks may allocate
  const std::uint64_t before = allocation_count();
  sim.run_until(10050);  // 1000 more re-arm-in-place ticks
  EXPECT_EQ(allocation_count() - before, 0u)
      << "steady-state periodic ticking allocated";
  proc.stop();
  EXPECT_EQ(ticks_seen, 1006u);
}

TEST(EngineAllocations, WarmEdgePollIsAllocationFree) {
  Simulator sim;
  std::vector<media::Chunk> window(8);
  for (std::size_t i = 0; i < window.size(); ++i) {
    window[i].seq = i;
    window[i].size_bytes = 150000;
  }
  cdn::EdgeServer edge(
      sim, DatacenterId{0},
      [&window](std::function<void(cdn::EdgeServer::FetchResult)> done) {
        done(window);
      },
      cdn::ResourceModel{});
  edge.on_expire_notice(window.back().seq);
  // The first poll pulls the window and answers with all of it, which
  // sizes the edge's response buffer.
  edge.on_poll(-1, [](TimeUs, const std::vector<media::Chunk>&) {});

  std::uint64_t delivered = 0;
  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 1000; ++i) {
    // Half the pollers are one chunk behind, half are up to date.
    edge.on_poll(6 + (i & 1),
                 [&delivered](TimeUs, const std::vector<media::Chunk>& fresh) {
                   delivered += fresh.size();
                 });
  }
  EXPECT_EQ(allocation_count() - before, 0u) << "a warm-edge poll allocated";
  EXPECT_EQ(delivered, 500u);
  EXPECT_EQ(edge.polls_served(), 1001u);
}

// Allocations a session makes over a window of its steady state. The
// audience is a synchronized cohort: every viewer sits at the broadcaster
// (HLS viewers share one edge), the wheel has one bucket (everyone polls
// at the same tick), and no delay carries jitter or outages. So the
// edge-side timeline (expiry notices, origin fetches) is the same
// whatever the audience size, and every new chunk finds all viewers
// waiting on one fetch and answers them all at once. That drives the
// edge's waiter batches and the session's chunk-buffer free list to their
// one-entry-per-viewer bound, and the engine's slab and heap to their
// peak, before the window opens. Any allocation that then differs between
// audiences is per-viewer poll or push work.
std::uint64_t steady_window_allocations(std::uint32_t hls_viewers,
                                        std::uint32_t rtmp_viewers = 0) {
  Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 300 * time::kSecond;
  cfg.rtmp_viewers = rtmp_viewers;
  cfg.hls_viewers = hls_viewers;
  cfg.global_viewers = false;
  cfg.poll_wheel_slots = 1;
  cfg.latency = geo::LatencyModel({.jitter_fraction = 0.0});
  cfg.w2f.jitter_fraction = 0.0;
  cfg.viewer_last_mile.jitter_fraction = 0.0;
  cfg.uplink.link.jitter_fraction = 0.0;
  cfg.uplink.outage_rate_per_s = 0.0;
  cfg.seed = 11;
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run_until(60 * time::kSecond);
  const std::uint64_t before = allocation_count();
  sim.run_until(240 * time::kSecond);
  const std::uint64_t window = allocation_count() - before;
  EXPECT_EQ(session.edges().size(), hls_viewers > 0 ? 1u : 0u);
  sim.run();
  return window;
}

TEST(EngineAllocations, SteadyHlsPollingAllocationsDoNotGrowWithViewers) {
  // What remains in the window is per-chunk work (origin fetches, chunk
  // ledger growth), the same for both audiences.
  const std::uint64_t n = steady_window_allocations(40);
  const std::uint64_t n2 = steady_window_allocations(80);
  EXPECT_GT(n, 0u);
  EXPECT_EQ(n, n2) << "HLS polling allocates per viewer";
}

TEST(EngineAllocations, BroadcasterSteadyFramesAreAllocationFree) {
  // No audience: what runs is the frame source, the FIFO uplink, the
  // ingest's chunker and the session's keyframe and chunk ledgers. By
  // 100 s the ledgers hold ~100 keyframes and ~33 chunks, so their
  // vectors (capacity 128 and 64) do not grow again before 120 s.
  Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 300 * time::kSecond;
  cfg.rtmp_viewers = 0;
  cfg.hls_viewers = 0;
  cfg.seed = 11;
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run_until(100 * time::kSecond);
  const std::uint64_t frames_before = session.ingest().frames_ingested();
  const std::uint64_t chunks_before = session.chunk_completed_at().size();
  const std::uint64_t before = allocation_count();
  sim.run_until(120 * time::kSecond);
  const std::uint64_t window = allocation_count() - before;
  const std::uint64_t frames = session.ingest().frames_ingested() -
                               frames_before;
  EXPECT_GE(frames, 25u);
  EXPECT_GT(session.chunk_completed_at().size(), chunks_before);
  EXPECT_EQ(window, 0u) << "the broadcaster path allocated over " << frames
                        << " frames";
  sim.run();
}

TEST(EngineAllocations, SteadyRtmpPushAllocationsDoNotGrowWithViewers) {
  // Every frame schedules one push event per RTMP viewer; the push
  // captures the frame header, not the frame, so it stays inline.
  const std::uint64_t n = steady_window_allocations(0, 20);
  const std::uint64_t n2 = steady_window_allocations(0, 40);
  EXPECT_EQ(n, n2) << "RTMP push allocates per viewer";
}

}  // namespace
}  // namespace livesim::sim
