#include "livesim/media/encoder.h"

#include <algorithm>
#include <cmath>

namespace livesim::media {

FrameHeader FrameSource::next(TimeUs start) {
  FrameHeader f;
  f.seq = next_seq_++;
  f.capture_ts = start + static_cast<TimeUs>(f.seq) * params_.frame_interval;
  f.duration = params_.frame_interval;
  f.keyframe = (f.seq % params_.gop_frames) == 0;
  const double base = static_cast<double>(params_.mean_frame_bytes);
  const double mult = f.keyframe ? params_.keyframe_multiplier : 1.0;
  const double jitter = std::exp(rng_.normal(0.0, params_.size_jitter));
  // Non-key frames are smaller than the mean so that the GOP average
  // stays near mean_frame_bytes despite the large keyframes.
  const double gop = static_cast<double>(params_.gop_frames);
  const double nonkey_scale =
      gop / (gop - 1.0 + params_.keyframe_multiplier);
  f.size_bytes = static_cast<std::uint32_t>(std::max(
      64.0, base * nonkey_scale * mult * jitter));
  return f;
}

}  // namespace livesim::media
