// Adaptive client buffering -- the optimization §6 closes with:
//
// "In cases when viewers have stable last-mile connection ... smaller
// buffer size could be applied to reduce the buffering delay. In other
// cases of bad connection, Periscope could always fall back to the
// default 9s buffer to provide smooth playback."
//
// AdaptivePlayback starts with an optimistic pre-buffer and re-anchors
// with a larger one whenever playback under-runs: stable viewers keep the
// low-delay schedule, unstable viewers converge to the conservative one.
#ifndef LIVESIM_CLIENT_ADAPTIVE_H
#define LIVESIM_CLIENT_ADAPTIVE_H

#include <cstdint>

#include "livesim/stats/accumulator.h"
#include "livesim/util/time.h"

namespace livesim::client {

class AdaptivePlayback {
 public:
  struct Params {
    DurationUs initial_pre_buffer = 6 * time::kSecond;
    DurationUs max_pre_buffer = 9 * time::kSecond;
    DurationUs grow_step = 1500 * time::kMillisecond;  // on each under-run
  };

  explicit AdaptivePlayback(Params params) : params_(params),
      current_target_(params.initial_pre_buffer) {}

  /// Same contract as PlaybackSchedule::on_arrival, but the schedule may
  /// re-anchor (rebuffer) after an under-run.
  void on_arrival(TimeUs arrival, DurationUs media_offset,
                  DurationUs duration);

  double stall_ratio() const noexcept;
  const stats::Accumulator& buffering_delay_s() const noexcept {
    return delay_;
  }
  DurationUs current_pre_buffer() const noexcept { return current_target_; }
  std::uint32_t rebuffer_events() const noexcept { return rebuffers_; }
  bool started() const noexcept { return started_; }

 private:
  void anchor(TimeUs arrival, DurationUs media_offset);

  Params params_;
  DurationUs current_target_;

  bool started_ = false;
  bool have_first_ = false;
  TimeUs first_arrival_ = 0;
  DurationUs buffered_media_ = 0;

  TimeUs start_wall_ = 0;
  DurationUs anchor_media_ = 0;

  DurationUs media_offered_ = 0;
  DurationUs stalled_ = 0;
  std::uint32_t rebuffers_ = 0;
  stats::Accumulator delay_;
};

}  // namespace livesim::client

#endif  // LIVESIM_CLIENT_ADAPTIVE_H
