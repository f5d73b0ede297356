// Deterministic fault injection for measurement robustness testing.
//
// Real tuning backends (RPC measurement workers, remote devices) fail
// transiently; the simulator never does. FaultInjector lets the measurement
// engine rehearse those failures: at a configured rate, a measurement attempt
// is declared failed before any work happens, exercising the retry /
// quarantine / penalty-reward machinery end to end.
//
// The decision for a given (site, attempt) pair is a PURE function of the
// injector's seed — no internal state is consumed. This is load-bearing
// twice over: worker threads can consult the injector concurrently without
// perturbing each other (trajectory determinism at any thread count), and a
// resumed tuning run that answers already-persisted measurements from the
// tuning database still sees exactly the same fault decisions on the
// continuation as an uninterrupted run would (resume determinism).

#ifndef ALT_SUPPORT_FAULT_INJECTION_H_
#define ALT_SUPPORT_FAULT_INJECTION_H_

#include <cstdint>

namespace alt {

class FaultInjector {
 public:
  struct Options {
    // Probability in [0, 1] that any single measurement attempt fails.
    double failure_rate = 0.0;
    uint64_t seed = 0;
    // Deterministic override for tests: attempts numbered below this value
    // fail at EVERY site regardless of rate (e.g. 1 = first attempt always
    // fails, retries succeed; a large value forces quarantine).
    int always_fail_first = 0;
  };

  FaultInjector() = default;
  explicit FaultInjector(const Options& options) : options_(options) {}

  bool enabled() const {
    return options_.failure_rate > 0.0 || options_.always_fail_first > 0;
  }

  const Options& options() const { return options_; }

  // Whether attempt number `attempt` (0-based) at `site` fails. `site` is a
  // stable fingerprint of the work item (e.g. Fnv1a64 of a measurement cache
  // key) so the same candidate sees the same fate in any run with this seed.
  bool ShouldFail(uint64_t site, int attempt) const;

 private:
  Options options_;
};

}  // namespace alt

#endif  // ALT_SUPPORT_FAULT_INJECTION_H_
