// Host speed reference for the benchmark runner.
//
// A shared host changes speed for minutes at a time: neighbours load the
// same cores, caches and memory. Timings taken at different times then
// differ by more than any change worth measuring. The reference kernel
// shares no code with livesim, so a change to livesim moves the
// workload's time and not the reference's; a change of host speed moves
// both. A host time divided by the reference time of its run, times
// kReferenceCallS, is that time at the reference speed: what it would
// have been on a host where one reference call takes kReferenceCallS.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace perfbench {

// Seconds of one reference call on the host the benchmark was tuned on
// (Intel Xeon, GCC 12, RelWithDebInfo) in a quiet stretch.
constexpr double kReferenceCallS = 0.006;

// Each call runs four parts of about equal length, each the kind of work
// the simulator does and each sensitive to a different shared resource:
//   * an event-heap hold model with exponential draws and hash lookups,
//     walking a 16 MB table (last-level cache and memory),
//   * the same over a 1 MB table (private caches),
//   * a dependent integer and floating-point chain (core clock),
//   * indirect calls into 1024 distinct functions (instruction cache and
//     branch predictors, which a simulator's event dispatch leans on).
class Reference {
 public:
  Reference();

  // Runs reference calls for at least `seconds` (and at least 4 calls)
  // and returns the mean seconds of one.
  double sample(double seconds);

  // Seconds of one call over every sample so far: four times the
  // geometric mean of the parts' mean times, so that no one part's
  // reaction to contention (the memory parts react most) dominates.
  double call_s() const;

  // Every call computes the same checksum; false if one differed.
  bool consistent() const { return consistent_; }

 private:
  std::uint64_t call();
  std::uint64_t hold(const std::vector<std::uint32_t>& table, int steps) const;

  std::vector<std::uint32_t> large_;
  std::vector<std::uint32_t> small_;
  std::vector<std::uint32_t> scratch_;
  std::unordered_map<std::uint32_t, std::uint32_t> map_;
  std::uint64_t checksum_ = 0;
  bool consistent_ = true;
  std::array<double, 4> part_s_{};
  long calls_ = 0;
};

}  // namespace perfbench
