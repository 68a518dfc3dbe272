// Word-at-a-time FNV-1a: the one determinism fingerprint.
//
// Every pinned fingerprint in the repo (crowd records, flash-crowd
// ledgers, delay breakdowns, bench determinism lines, test pins) is this
// mixer fed 64-bit words in a fixed order. Each word is folded in whole
// (xor, then multiply by the FNV prime), not byte by byte, so the chain
// is position-sensitive: any reordering or single-ULP drift changes it.
#ifndef LIVESIM_UTIL_FINGERPRINT_H
#define LIVESIM_UTIL_FINGERPRINT_H

#include <bit>
#include <cstdint>

namespace livesim {

class Fingerprint {
 public:
  static constexpr std::uint64_t kBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  constexpr Fingerprint& mix(std::uint64_t v) noexcept {
    h_ ^= v;
    h_ *= kPrime;
    return *this;
  }
  /// Mixes the IEEE-754 bit pattern, so -0.0 and 0.0 (or two NaNs with
  /// different payloads) fingerprint differently. A separate name, not a
  /// mix(double) overload, keeps mix(flag ? 1 : 0) unambiguous.
  constexpr Fingerprint& mix_double(double x) noexcept {
    return mix(std::bit_cast<std::uint64_t>(x));
  }

  constexpr std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = kBasis;
};

}  // namespace livesim

#endif  // LIVESIM_UTIL_FINGERPRINT_H
