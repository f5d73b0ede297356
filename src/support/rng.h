// Deterministic random number generation for reproducible tuning runs.
//
// All stochastic components (explorers, PPO initialization, workload sampling)
// take an explicit Rng so experiments are reproducible bit-for-bit given a
// seed, matching the reproducibility demands of the benchmark harness.

#ifndef ALT_SUPPORT_RNG_H_
#define ALT_SUPPORT_RNG_H_

#include <cstdint>
#include <vector>

#include "src/support/status.h"

namespace alt {

// xoshiro256** — small, fast, good statistical quality; independent of libc.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

  uint64_t NextU64();

  // Uniform in [0, n). n must be > 0.
  uint64_t NextBelow(uint64_t n);

  // Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // Standard normal via Box-Muller.
  double NextGaussian();

  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = NextBelow(i);
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace alt

#endif  // ALT_SUPPORT_RNG_H_
