#include "reference.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <functional>
#include <queue>
#include <utility>

namespace perfbench {
namespace {

constexpr int kFunctions = 1024;
constexpr std::uint32_t kScratchMask = 65535;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

std::vector<std::uint32_t> random_table(std::size_t n, std::uint64_t x) {
  std::vector<std::uint32_t> t(n);
  for (auto& v : t) v = static_cast<std::uint32_t>(xorshift(x));
  return t;
}

// One of kFunctions distinct functions: N changes its constants, so each
// instantiation is its own code.
template <int N>
__attribute__((noinline)) std::uint64_t step(std::uint64_t x,
                                             std::uint32_t* t) {
  x ^= x >> (N % 23 + 7);
  x *= 0x9E3779B97F4A7C15ULL + 2 * N;
  if ((x >> (N % 41 + 3)) & 1)
    t[(x >> 32) & kScratchMask] += N;
  else
    x += t[(x >> 20) & kScratchMask];
  return x + N;
}

using Step = std::uint64_t (*)(std::uint64_t, std::uint32_t*);

template <std::size_t... I>
constexpr std::array<Step, sizeof...(I)> steps(std::index_sequence<I...>) {
  return {&step<static_cast<int>(I)>...};
}

constexpr std::array<Step, kFunctions> kSteps =
    steps(std::make_index_sequence<kFunctions>{});

std::uint64_t chain(int steps) {
  std::uint64_t x = 12345;
  double d = 1.0;
  for (int i = 0; i < steps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    if ((x >> 60) == 3) d = std::sqrt(d + static_cast<double>(x >> 40));
  }
  return x + static_cast<std::uint64_t>(d);
}

}  // namespace

Reference::Reference()
    : large_(random_table(std::size_t{1} << 22, 0x9e3779b97f4a7c15ULL)),
      small_(random_table(std::size_t{1} << 18, 0x2545f4914f6cdd1dULL)),
      scratch_(kScratchMask + 1, 1) {
  for (std::uint32_t i = 0; i < 8192; ++i) map_[i * 2654435761u] = i;
}

std::uint64_t Reference::hold(const std::vector<std::uint32_t>& table,
                              int steps) const {
  using Ev = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Ev, std::vector<Ev>, std::greater<Ev>> heap;
  std::uint64_t x = 0x2545f4914f6cdd1dULL, sum = 0;
  for (std::uint32_t i = 0; i < 1024; ++i) heap.push({xorshift(x) % 100000, i});
  const std::size_t mask = table.size() - 1;
  std::uint32_t idx = 0;
  for (int i = 0; i < steps; ++i) {
    Ev e = heap.top();
    heap.pop();
    const double u = static_cast<double>(xorshift(x) >> 11) * 0x1.0p-53;
    e.first += static_cast<std::uint64_t>(-std::log(u + 1e-12) * 1000.0);
    heap.push(e);
    idx = table[(idx ^ e.second) & mask];
    const auto it = map_.find((idx & 8191) * 2654435761u);
    sum += e.first + idx + (it != map_.end() ? it->second : 0);
  }
  return sum;
}

std::uint64_t Reference::call() {
  double t = now_s();
  const auto lap = [&](std::size_t part) {
    const double end = now_s();
    part_s_[part] += end - t;
    t = end;
  };
  std::uint64_t sum = hold(large_, 8000);
  lap(0);
  sum += hold(small_, 12000);
  lap(1);
  sum += chain(650000);
  lap(2);
  std::fill(scratch_.begin(), scratch_.end(), 1u);
  std::uint64_t x = 7;
  for (int i = 0; i < 45000; ++i)
    x = kSteps[(x >> 13) % kFunctions](x, scratch_.data());
  lap(3);
  return sum ^ x;
}

double Reference::sample(double seconds) {
  const double t0 = now_s();
  int calls = 0;
  double t = 0.0;
  while (calls < 4 || t < seconds) {
    const std::uint64_t c = call();
    if (checksum_ == 0) checksum_ = c;
    if (c != checksum_) consistent_ = false;
    ++calls;
    t = now_s() - t0;
  }
  calls_ += calls;
  return t / calls;
}

double Reference::call_s() const {
  if (calls_ == 0) return 0.0;
  double log_sum = 0.0;
  for (double s : part_s_) log_sum += std::log(s / static_cast<double>(calls_));
  return 4.0 * std::exp(log_sum / 4.0);
}

}  // namespace perfbench
