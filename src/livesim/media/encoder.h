// Frame source: models the broadcaster's camera + encoder.
//
// Produces 25 fps frames with a keyframe cadence and realistic size
// variation. Frame *generation* is perfectly periodic; network burstiness
// is added by the uplink model, matching the paper's observation that 10%
// of broadcasts see >5 s buffering delay "caused by the bursty arrival of
// video frames during uploading from the broadcaster".
#ifndef LIVESIM_MEDIA_ENCODER_H
#define LIVESIM_MEDIA_ENCODER_H

#include <cstdint>

#include "livesim/media/frame.h"
#include "livesim/util/rng.h"

namespace livesim::media {

class FrameSource {
 public:
  struct Params {
    DurationUs frame_interval = 40 * time::kMillisecond;  // 25 fps
    std::uint32_t gop_frames = 25;            // keyframe every 1 s
    std::uint32_t mean_frame_bytes = 2000;    // ~400 kbps video
    double keyframe_multiplier = 8.0;
    double size_jitter = 0.25;                // lognormal-ish spread
  };

  FrameSource(Params params, Rng rng) : params_(params), rng_(rng) {}

  /// Produces the next frame; capture timestamps advance by exactly one
  /// frame interval per call, starting at `start`.
  FrameHeader next(TimeUs start = 0);

  const Params& params() const noexcept { return params_; }

 private:
  Params params_;
  Rng rng_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace livesim::media

#endif  // LIVESIM_MEDIA_ENCODER_H
