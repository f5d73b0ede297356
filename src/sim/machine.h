// Simulated machine profiles.
//
// The paper evaluates on Intel Xeon CPUs, NVIDIA GPUs and an ARM SoC. We
// cannot measure those here, so programs are costed on analytic machine
// models whose parameters (cache sizes, line size, next-N-line prefetcher,
// SIMD width, core count, bandwidth) capture exactly the effects the paper's
// layout analysis relies on (§5.1 observations 1-2, Table 2). Absolute
// latencies are model outputs, not silicon measurements; EXPERIMENTS.md
// discusses fidelity.

#ifndef ALT_SIM_MACHINE_H_
#define ALT_SIM_MACHINE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace alt::sim {

struct CacheLevel {
  int64_t size_bytes = 0;
  int line_bytes = 64;
  int associativity = 8;
  double hit_latency_cycles = 4;  // latency to THIS level on a miss above
};

struct Machine {
  std::string name;
  int cores = 1;
  int vector_lanes = 1;          // float32 SIMD lanes (warp size on GPU)
  double freq_ghz = 2.0;
  double dram_bw_gbps = 50.0;    // GB/s
  double dram_latency_cycles = 200.0;
  std::vector<CacheLevel> caches;  // L1 first
  int prefetch_lines = 4;        // next-N-line hardware prefetcher (Table 2)
  double fma_per_cycle = 2.0;    // vector FMA issue slots per core per cycle
  bool gpu_like = false;         // coalescing instead of prefetching
  double parallel_efficiency = 0.9;

  // 40-core Xeon-like profile (AVX-512: 16 fp32 lanes).
  static Machine IntelCpu();
  // V100-like profile (80 SMs, 32-wide warps, HBM bandwidth).
  static Machine NvidiaGpu();
  // Kirin 990-like big-core profile (NEON: 4 fp32 lanes, 4 big cores).
  static Machine ArmCpu();
  // Cortex-A76-like single-core profile used by the Table 2 experiment.
  static Machine CortexA76();

  // The profile named `name`, or nullptr when no profile has that name.
  static const Machine* Find(const std::string& name);
  // Find for a name the caller knows exists: aborts on an unknown name.
  static const Machine& ByName(const std::string& name);
};

}  // namespace alt::sim

#endif  // ALT_SIM_MACHINE_H_
