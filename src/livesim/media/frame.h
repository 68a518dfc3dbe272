// Video frame and chunk value types.
//
// RTMP operates on individual ~40 ms frames; HLS groups them into ~3 s
// chunks (the paper: >85.9% of HLS broadcasts use 3 s chunks = 75 frames).
#ifndef LIVESIM_MEDIA_FRAME_H
#define LIVESIM_MEDIA_FRAME_H

#include <cstdint>
#include <type_traits>
#include <vector>

#include "livesim/util/time.h"

namespace livesim::media {

/// What the delay simulations need of a frame: a fixed, trivially
/// copyable header. Per-frame closures capture it by value without
/// leaving the engine's inline budget; the bytes, when a path needs
/// them, ride in VideoFrame.
struct FrameHeader {
  std::uint64_t seq = 0;
  TimeUs capture_ts = 0;        // stamped by the broadcaster device
  DurationUs duration = 40 * time::kMillisecond;
  std::uint32_t size_bytes = 0;
  bool keyframe = false;
};
static_assert(std::is_trivially_copyable_v<FrameHeader> &&
                  sizeof(FrameHeader) == 32,
              "FrameHeader is captured by value in per-frame closures");

/// A frame with its bytes: the byte-level (security, RTMP wire) paths.
struct VideoFrame : FrameHeader {
  VideoFrame() = default;
  /// A header (e.g. FrameSource::next()) becomes a frame with no bytes yet.
  VideoFrame(const FrameHeader& h)  // NOLINT(google-explicit-constructor)
      : FrameHeader(h) {}

  /// Optional payload bytes; populated only on the byte-level (security)
  /// code paths to keep the large-scale delay simulations lean.
  std::vector<std::uint8_t> payload;

  /// Optional authentication tag (see security::StreamSigner). Empty when
  /// the stream is unsigned -- which is exactly the paper's vulnerability.
  std::vector<std::uint8_t> signature;
};

struct Chunk {
  std::uint64_t seq = 0;             // media sequence number
  TimeUs first_capture_ts = 0;       // capture time of the first frame
  TimeUs completed_ts = 0;           // when the chunker sealed the chunk
  DurationUs duration = 0;           // sum of frame durations
  std::uint64_t first_frame_seq = 0;
  std::uint32_t frame_count = 0;
  std::uint64_t size_bytes = 0;
};

/// LL-HLS/CMAF partial segment: a sub-chunk slice published as soon as its
/// frames have arrived, without waiting for the parent chunk to seal. Parts
/// share the chunk sequence space conceptually but carry their own
/// monotonically increasing `seq` (the `_HLS_part` axis).
struct Part {
  std::uint64_t seq = 0;           // monotonic part index for the stream
  std::uint64_t chunk_seq = 0;     // parent chunk's media sequence
  TimeUs first_capture_ts = 0;     // capture time of the first frame
  TimeUs first_arrival_ts = 0;     // ingest arrival of the first frame
  TimeUs completed_ts = 0;         // when the part was sealed at ingest
  DurationUs duration = 0;         // sum of frame durations
  std::uint64_t size_bytes = 0;
};

/// HLS playlist: the window of chunks a viewer can currently fetch.
struct ChunkList {
  std::uint64_t version = 0;         // bumped on every new chunk
  DurationUs target_duration = 3 * time::kSecond;
  std::vector<Chunk> chunks;         // sliding window, oldest first

  /// Highest media sequence present, or -1 if empty.
  std::int64_t latest_seq() const noexcept {
    return chunks.empty() ? -1 : static_cast<std::int64_t>(chunks.back().seq);
  }
};

}  // namespace livesim::media

#endif  // LIVESIM_MEDIA_FRAME_H
