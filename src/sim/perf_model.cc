#include "src/sim/perf_model.h"

#include <algorithm>
#include <cmath>

#include "src/support/metrics.h"

#include "src/ir/affine.h"
#include "src/ir/eval.h"

namespace alt::sim {

namespace {

struct LoopInfo {
  int var_id;
  int64_t extent;
  ir::ForKind kind;
};

struct AccessInfo {
  bool is_store = false;
  int64_t tensor_elems = 0;
  std::vector<int64_t> strides;  // per enclosing loop, in elements
  double selectivity = 1.0;      // fraction of iterations the access executes
};

struct LeafInfo {
  std::vector<LoopInfo> loops;  // outer -> inner
  std::vector<AccessInfo> accesses;
  double arith_ops = 0.0;       // arithmetic nodes per innermost iteration
  double store_selectivity = 1.0;
  int64_t trips = 1;
};

// Counts arithmetic nodes and collects loads of a value expression.
void AnalyzeVal(const ir::Val& v, double selectivity, double* arith,
                std::vector<std::pair<const ir::ValNode*, double>>* loads) {
  switch (v->kind) {
    case ir::ValKind::kImm:
      return;
    case ir::ValKind::kLoad:
      loads->push_back({v.get(), selectivity});
      return;
    case ir::ValKind::kSelect: {
      double inner = selectivity;
      for (const auto& c : v->conds) {
        if (c.modulus > 1) {
          inner /= static_cast<double>(c.modulus);
        }
      }
      *arith += static_cast<double>(v->conds.size()) * selectivity;
      AnalyzeVal(v->a, inner, arith, loads);
      if (v->b) {
        AnalyzeVal(v->b, selectivity - inner, arith, loads);
      }
      return;
    }
    default: {
      *arith += selectivity;
      if (v->a) {
        AnalyzeVal(v->a, selectivity, arith, loads);
      }
      if (v->b) {
        AnalyzeVal(v->b, selectivity, arith, loads);
      }
    }
  }
}

struct Collector {
  const ir::Program* program;
  std::vector<LoopInfo> stack;
  std::vector<LeafInfo> leaves;
  double loop_iterations = 0.0;   // total loop-header executions (overhead)
  double parallel_iters = 1.0;
  bool parallel_recorded = false;

  void Walk(const ir::Stmt& stmt, int64_t outer_trips) {
    switch (stmt->kind) {
      case ir::StmtKind::kFor: {
        if (stmt->for_kind != ir::ForKind::kVectorized &&
            stmt->for_kind != ir::ForKind::kUnrolled) {
          loop_iterations += static_cast<double>(outer_trips) * stmt->extent;
        }
        if (stmt->for_kind == ir::ForKind::kParallel) {
          parallel_iters *= stmt->extent;
        }
        stack.push_back({stmt->loop_var->var_id, stmt->extent, stmt->for_kind});
        Walk(stmt->body, outer_trips * stmt->extent);
        stack.pop_back();
        break;
      }
      case ir::StmtKind::kBlock: {
        for (const auto& s : stmt->stmts) {
          Walk(s, outer_trips);
        }
        break;
      }
      case ir::StmtKind::kStore: {
        LeafInfo leaf;
        leaf.loops = stack;
        leaf.trips = outer_trips;

        // Slot map over all loop vars in scope.
        ir::VarSlotMap slots;
        for (const auto& l : stack) {
          slots.AddVar(l.var_id);
        }
        std::vector<int64_t> env(slots.size(), 0);

        // Shared affine analysis (ir/affine.h): per-loop strides come straight
        // from the decomposed coefficients, with no probe evaluations. The
        // decomposition is exact over the iteration domain, and with every
        // extent >= 2 the probe points below lie inside that domain — so both
        // derivations provably agree; probing is kept for non-affine residue.
        std::vector<ir::AffineLoop> aloops;
        aloops.reserve(stack.size());
        bool probe_only = false;
        for (const auto& l : stack) {
          aloops.push_back({l.var_id, l.extent});
          if (l.extent < 2) {
            probe_only = true;  // unit loop: probe point leaves the domain
          }
        }
        ir::AffineAnalyzer analyzer(std::move(aloops));

        auto analyze_access = [&](int tensor_id, const std::vector<ir::Expr>& indices,
                                  bool is_store, double selectivity) {
          const ir::BufferDecl* decl = program->FindBuffer(tensor_id);
          if (decl == nullptr) {
            return;
          }
          auto buf_strides = ir::RowMajorStrides(decl->tensor.shape);
          ir::Expr linear = ir::Const(0);
          for (size_t d = 0; d < indices.size() && d < buf_strides.size(); ++d) {
            linear = ir::Add(linear, ir::Mul(indices[d], buf_strides[d]));
          }
          if (!probe_only) {
            if (auto form = analyzer.Decompose(linear)) {
              static Counter& affine_strides =
                  MetricsRegistry::Global().counter("sim.affine_strides");
              affine_strides.Add();
              AccessInfo info;
              info.is_store = is_store;
              info.tensor_elems = decl->tensor.NumElements();
              info.selectivity = selectivity;
              info.strides.assign(form->coeffs.begin(), form->coeffs.end());
              leaf.accesses.push_back(std::move(info));
              return;
            }
          }
          static Counter& probed_strides =
              MetricsRegistry::Global().counter("sim.probed_strides");
          probed_strides.Add();
          auto maybe_compiled = ir::CompiledExpr::Compile(linear, slots);
          if (!maybe_compiled.ok()) {
            // Access references a var outside the loop nest (malformed
            // program); skip it rather than crash — the candidate's estimate
            // degrades but the tuning process survives.
            return;
          }
          ir::CompiledExpr compiled = std::move(*maybe_compiled);
          AccessInfo info;
          info.is_store = is_store;
          info.tensor_elems = decl->tensor.NumElements();
          info.selectivity = selectivity;
          int64_t base = compiled.Eval(env.data());
          for (size_t i = 0; i < stack.size(); ++i) {
            int slot = slots.SlotOf(stack[i].var_id);
            env[slot] = 1;
            int64_t shifted = compiled.Eval(env.data());
            env[slot] = 0;
            info.strides.push_back(shifted - base);
          }
          leaf.accesses.push_back(std::move(info));
        };

        double arith = 0.0;
        std::vector<std::pair<const ir::ValNode*, double>> loads;
        AnalyzeVal(stmt->value, 1.0, &arith, &loads);
        if (stmt->mode == ir::StoreMode::kAccumulate) {
          arith += 1.0;  // the += itself
          // Accumulation re-reads the output.
          analyze_access(stmt->tensor_id, stmt->indices, false, 1.0);
        }
        leaf.arith_ops = arith;
        for (const auto& [load, sel] : loads) {
          analyze_access(load->tensor_id, load->indices, false, sel);
        }
        analyze_access(stmt->tensor_id, stmt->indices, true, 1.0);
        leaves.push_back(std::move(leaf));
        break;
      }
    }
  }
};

struct FootprintResult {
  double lines = 0.0;   // distinct cache lines touched
  double run_lines = 0.0;  // avg consecutive lines per contiguous run
};

// Distinct lines / contiguity of an access over the loops in [from, end).
FootprintResult Footprint(const LeafInfo& leaf, const AccessInfo& access, size_t from,
                          int line_elems) {
  double distinct = 1.0;
  double run = 1.0;  // contiguous run length in elements
  for (int i = static_cast<int>(leaf.loops.size()) - 1; i >= static_cast<int>(from); --i) {
    int64_t s = std::abs(access.strides[i]);
    int64_t e = leaf.loops[i].extent;
    if (s == 0) {
      continue;  // temporal reuse
    }
    if (static_cast<double>(s) == run) {
      run *= static_cast<double>(e);
      distinct *= static_cast<double>(e);
    } else {
      distinct *= static_cast<double>(e);
    }
  }
  distinct = std::min(distinct, static_cast<double>(access.tensor_elems));
  run = std::min(run, distinct);
  FootprintResult fr;
  fr.run_lines = std::ceil(run / line_elems);
  fr.lines = distinct / run * fr.run_lines;
  return fr;
}

}  // namespace

PerfCounters EstimateProgram(const ir::Program& program, const Machine& machine) {
  // Hottest call in a tuning run (once per candidate schedule); the counter
  // is one relaxed atomic add, cheap enough to keep always-on.
  static Counter& calls = MetricsRegistry::Global().counter("sim.estimate_program_calls");
  calls.Add();
  PerfCounters out;
  if (!program.root) {
    return out;
  }
  Collector collector;
  collector.program = &program;
  collector.Walk(program.root, 1);

  double compute_cycles = 0.0;
  double mem_stall_cycles = 0.0;

  for (const auto& leaf : collector.leaves) {
    double trips = static_cast<double>(leaf.trips);

    // Vectorization effectiveness: innermost loop vectorized and the store
    // has unit stride along it.
    double vec_eff = 1.0;
    double gather_penalty = 1.0;
    int inner = static_cast<int>(leaf.loops.size()) - 1;
    if (inner >= 0 && leaf.loops[inner].kind == ir::ForKind::kVectorized) {
      int64_t store_stride = 0;
      for (const auto& a : leaf.accesses) {
        if (a.is_store) {
          store_stride = a.strides[inner];
        }
      }
      if (store_stride == 1) {
        vec_eff = std::min<double>(leaf.loops[inner].extent, machine.vector_lanes);
        // Non-contiguous loads under a vector loop become gathers.
        for (const auto& a : leaf.accesses) {
          if (!a.is_store && a.strides[inner] != 0 && std::abs(a.strides[inner]) != 1) {
            gather_penalty += machine.gpu_like ? 0.75 : 0.25;
          }
        }
      }
    }

    // FLOPs and instruction counts.
    double flops = leaf.arith_ops * trips;
    out.flops += flops;
    double loads = 0.0;
    double stores = 0.0;
    for (const auto& a : leaf.accesses) {
      (a.is_store ? stores : loads) += trips * a.selectivity;
    }
    out.l1_loads += loads / vec_eff;
    out.l1_stores += stores / vec_eff;
    out.instructions += (flops + loads + stores) / vec_eff;

    compute_cycles += flops / (machine.fma_per_cycle * vec_eff) * gather_penalty;

    // Cache modeling per access and per level.
    for (const auto& a : leaf.accesses) {
      double reuse_misses_prev = -1.0;
      for (size_t level = 0; level < machine.caches.size(); ++level) {
        const CacheLevel& cache = machine.caches[level];
        int lelems = cache.line_bytes / 4;
        // Find the outermost loop level whose full-subtree footprint (all
        // accesses of this leaf) fits in this cache.
        size_t fit_level = leaf.loops.size();  // default: innermost only
        for (size_t k = 0; k <= leaf.loops.size(); ++k) {
          double bytes = 0.0;
          for (const auto& b : leaf.accesses) {
            bytes += Footprint(leaf, b, k, lelems).lines * cache.line_bytes;
          }
          if (bytes <= 0.75 * static_cast<double>(cache.size_bytes)) {
            fit_level = k;
            break;
          }
        }
        double outer_trips = 1.0;
        for (size_t i = 0; i < fit_level; ++i) {
          outer_trips *= static_cast<double>(leaf.loops[i].extent);
        }
        FootprintResult fr = Footprint(leaf, a, fit_level, lelems);
        double misses = outer_trips * fr.lines * a.selectivity;
        // Next-N-line prefetcher: within a contiguous run only every N-th
        // line actually stalls/counts (streaming detected).
        double prefetched = misses;
        if (!machine.gpu_like && machine.prefetch_lines > 1 && fr.run_lines > 1.0) {
          prefetched = misses *
                       std::ceil(fr.run_lines / machine.prefetch_lines) /
                       std::max(1.0, fr.run_lines);
        }
        // A lower level cannot miss more often than the level above hit.
        if (reuse_misses_prev >= 0.0) {
          prefetched = std::min(prefetched, reuse_misses_prev);
        }
        reuse_misses_prev = prefetched;
        double next_latency = (level + 1 < machine.caches.size())
                                  ? machine.caches[level + 1].hit_latency_cycles
                                  : machine.dram_latency_cycles;
        // Memory-level parallelism hides most miss latency.
        mem_stall_cycles += prefetched * next_latency * 0.25;
        if (level == 0) {
          out.l1_misses += prefetched;
        } else if (level == 1) {
          out.l2_misses += prefetched;
        }
        if (level + 1 == machine.caches.size()) {
          out.llc_misses += prefetched;
          out.dram_bytes += prefetched * cache.line_bytes;
        }
      }
    }
  }

  // Loop bookkeeping overhead.
  double overhead_cycles = collector.loop_iterations * 1.2;

  double speedup = std::min<double>(machine.cores, collector.parallel_iters) *
                   machine.parallel_efficiency;
  speedup = std::max(speedup, 1.0);

  double core_cycles = std::max(compute_cycles + overhead_cycles, mem_stall_cycles) +
                       0.2 * std::min(compute_cycles + overhead_cycles, mem_stall_cycles);
  double seconds = core_cycles / (machine.freq_ghz * 1e9) / speedup;
  double bw_seconds = out.dram_bytes / (machine.dram_bw_gbps * 1e9);
  out.latency_us = std::max(seconds, bw_seconds) * 1e6;
  // Fixed kernel-launch / dispatch overhead keeps tiny programs non-zero.
  out.latency_us += machine.gpu_like ? 3.0 : 0.5;
  return out;
}

PerfCounters EstimatePrograms(const std::vector<ir::Program>& programs,
                              const Machine& machine) {
  PerfCounters total;
  for (const auto& p : programs) {
    total += EstimateProgram(p, machine);
  }
  return total;
}

}  // namespace alt::sim
