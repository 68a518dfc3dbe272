// Network link models.
//
// Link: memoryless one-way delay (propagation + serialization + jitter,
// optional loss) -- used for server<->server and download paths.
//
// FifoUplink: a stateful first-in-first-out uplink with transient outages,
// used for the broadcaster's last mile. Frames cannot overtake each other,
// so an outage makes queued frames arrive in a burst when connectivity
// returns -- the mechanism behind the paper's ~10% of broadcasts with >5 s
// client-side buffering delay (Fig 16b).
#ifndef LIVESIM_NET_LINK_H
#define LIVESIM_NET_LINK_H

#include <cstddef>

#include "livesim/sim/simulator.h"
#include "livesim/util/rng.h"
#include "livesim/util/time.h"

namespace livesim::net {

class Link {
 public:
  struct Params {
    DurationUs base_delay = 20 * time::kMillisecond;  // one-way propagation
    double jitter_fraction = 0.15;    // right-skewed multiplicative jitter
    double loss_rate = 0.0;           // per-message drop probability
    double bandwidth_bps = 20e6;      // serialization component
  };

  Link(sim::Simulator& sim, Params params, Rng rng)
      : sim_(sim), params_(params), rng_(rng) {}

  /// Samples the one-way delay for a message of `bytes`.
  DurationUs sample_delay(std::size_t bytes);

  /// Delivers `on_arrival` after a sampled delay; drops it (never calls)
  /// with probability loss_rate. Returns the scheduled delay, or -1 if
  /// the message was lost. The callback is scheduled as-is (no extra
  /// wrapper), so small captures ride the engine's allocation-free path.
  DurationUs send(std::size_t bytes, sim::EventFn on_arrival);

  const Params& params() const noexcept { return params_; }

 private:
  sim::Simulator& sim_;
  Params params_;
  Rng rng_;
};

class FifoUplink {
 public:
  /// Arrival callback. Sized so that the uplink's own [arrival time +
  /// callback] event fits the engine's 64-byte inline budget: the
  /// 40-byte buffer plus the vtable pointer is 48 bytes (16-byte
  /// aligned), and the 8-byte timestamp pads to 16 in front of it, so
  /// the event is exactly 64 (static_assert in link.cpp).
  using ArrivalFn = sim::InplaceFunction<void(TimeUs), 40>;

  struct Params {
    Link::Params link{};                      // per-message delay model
    double outage_rate_per_s = 0.0;           // Poisson outage arrivals
    DurationUs mean_outage = time::kSecond;   // exponential duration
    // Bandwidth ramp: effective bandwidth starts at
    // initial_bw_fraction * link.bandwidth_bps and grows linearly to the
    // full rate over ramp_duration. Models constrained cellular uplinks
    // whose early-broadcast backlog produces multi-second buffering
    // delays downstream (Fig 16b tail).
    double initial_bw_fraction = 1.0;
    DurationUs ramp_duration = 0;
    // Connection-establishment outage: the uplink is blocked for this long
    // at t=0 (captured frames queue and then flood out). Mean of an
    // exponential draw; 0 disables.
    DurationUs mean_initial_outage = 0;
  };

  FifoUplink(sim::Simulator& sim, Params params, Rng rng);

  /// Enqueues a message of `bytes` now; `on_arrival(arrival_time)` fires
  /// at the receiver. FIFO order is preserved. Returns the arrival time.
  TimeUs send(std::size_t bytes, ArrivalFn on_arrival);

  /// Blocks the uplink until now + `duration` (fault injection: a link
  /// partition with a known recovery point). Messages sent during the
  /// window queue behind it and flood out in FIFO order at recovery,
  /// exactly like a natural outage. Draws no randomness.
  void inject_outage(DurationUs duration);

  const Params& params() const noexcept { return params_; }

 private:
  void maybe_advance_outages(TimeUs until);
  double bandwidth_at(TimeUs t) const noexcept;

  sim::Simulator& sim_;
  Params params_;
  Rng rng_;
  TimeUs created_at_ = 0;         // ramp/outage clock origin
  TimeUs next_free_ = 0;          // uplink busy until here (FIFO)
  TimeUs last_arrival_ = 0;       // in-order delivery floor
  TimeUs next_outage_start_ = 0;  // lazily sampled outage process
  bool outages_enabled_;
};

/// Canned last-mile profiles roughly matching 2015 access networks.
struct LastMileProfiles {
  static Link::Params wired();
  static Link::Params wifi();
  static Link::Params lte();

  /// Broadcaster uplink variants: `stable` for the ~88% of broadcasts with
  /// smooth upload; `bursty` for the rest (per Fig 16b's tail).
  static FifoUplink::Params stable_uplink();
  static FifoUplink::Params bursty_uplink();
};

}  // namespace livesim::net

#endif  // LIVESIM_NET_LINK_H
