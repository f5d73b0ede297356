#include "src/sim/machine.h"

#include "src/support/status.h"

namespace alt::sim {

Machine Machine::IntelCpu() {
  Machine m;
  m.name = "intel-cpu";
  m.cores = 40;
  m.vector_lanes = 16;  // AVX-512 fp32
  m.freq_ghz = 2.5;
  m.dram_bw_gbps = 120.0;
  m.dram_latency_cycles = 220.0;
  m.caches = {
      {32 * 1024, 64, 8, 4},        // L1D
      {1024 * 1024, 64, 16, 14},    // L2
      {28 * 1024 * 1024, 64, 11, 50},  // L3 (shared; modeled per-core slice)
  };
  m.prefetch_lines = 4;
  m.fma_per_cycle = 2.0;
  return m;
}

Machine Machine::NvidiaGpu() {
  Machine m;
  m.name = "nvidia-gpu";
  m.cores = 80;  // SMs
  m.vector_lanes = 32;  // warp
  m.freq_ghz = 1.4;
  m.dram_bw_gbps = 900.0;
  m.dram_latency_cycles = 400.0;
  m.caches = {
      {128 * 1024, 128, 8, 28},        // unified L1/shared per SM
      {6 * 1024 * 1024, 128, 16, 190},  // L2
  };
  m.prefetch_lines = 1;  // no hardware stream prefetcher; coalescing instead
  m.fma_per_cycle = 2.0;
  m.gpu_like = true;
  m.parallel_efficiency = 0.85;
  return m;
}

Machine Machine::ArmCpu() {
  Machine m;
  m.name = "arm-cpu";
  m.cores = 4;
  m.vector_lanes = 4;  // NEON fp32
  m.freq_ghz = 2.6;
  m.dram_bw_gbps = 30.0;
  m.dram_latency_cycles = 180.0;
  m.caches = {
      {64 * 1024, 64, 4, 4},      // L1D
      {512 * 1024, 64, 8, 12},    // L2
      {4 * 1024 * 1024, 64, 16, 40},  // L3/DSU
  };
  m.prefetch_lines = 4;
  m.fma_per_cycle = 2.0;
  return m;
}

Machine Machine::CortexA76() {
  Machine m = ArmCpu();
  m.name = "cortex-a76";
  m.cores = 1;
  return m;
}

const Machine* Machine::Find(const std::string& name) {
  static const Machine kMachines[] = {IntelCpu(), NvidiaGpu(), ArmCpu(), CortexA76()};
  for (const Machine& m : kMachines) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

const Machine& Machine::ByName(const std::string& name) {
  const Machine* m = Find(name);
  ALT_CHECK_MSG(m != nullptr, "unknown machine " << name);
  return *m;
}

}  // namespace alt::sim
