// Affine access analysis shared by the execution engine and the perf model.
//
// After split/reorder/fuse/unfold/pad lowering, nearly every load/store offset
// in a Program is (quasi-)affine in the enclosing loop variables:
//
//   offset = base + sum_i coeff_i * loop_i,   loop_i in [0, extent_i)
//
// AffineAnalyzer::Decompose recovers that form symbolically, once per access,
// instead of re-evaluating the offset bytecode per element (interpreter) or
// re-probing it per statement (perf model). FloorDiv/Mod introduced by layout
// splits are resolved with a divisibility + range rule, and the Min/Max clamps
// of the unfold rewrite (paper Eq. (1)) are resolved by difference-range
// comparison; anything that does not resolve exactly is reported as non-affine
// residue so callers fall back to the generic per-element path. Every rule is
// EXACT over the declared iteration domain: when Decompose succeeds, the
// returned form evaluates to the same integer as the original expression at
// every point of the domain — this is what lets the interpreter's fast path
// stay bit-identical and the perf model's stride derivation stay unchanged.

#ifndef ALT_IR_AFFINE_H_
#define ALT_IR_AFFINE_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/ir/expr.h"
#include "src/ir/stmt.h"

namespace alt::ir {

// One enclosing loop of an access: the loop variable and its trip count.
// Loops are listed outermost first; a loop's iteration domain is [0, extent).
struct AffineLoop {
  int var_id = -1;
  int64_t extent = 0;
};

// base + sum coeffs[i] * loop_i, with coeffs parallel to the analyzer's loop
// vector (coeff 0 for loops the expression does not depend on).
struct AffineForm {
  int64_t base = 0;
  std::vector<int64_t> coeffs;

  // Value range over the box domain (every loop in [0, extent)).
  int64_t MinValue(const std::vector<AffineLoop>& loops) const;
  int64_t MaxValue(const std::vector<AffineLoop>& loops) const;
};

// Exact piecewise decomposition of the overlapped-tiling clamp. The layout
// relation's canonical-representative unfold rewrite (layout/relation.h,
// LayoutRelation::MapRead) emits accesses in a single-clamp normal form:
// the only non-affine residue is one shared node Min(g, c) with g affine over
// the loops and c a constant (the tile index clamped to tiles-1). Such an
// expression is affine on each side of the clamp boundary:
//
//   e == then_form   wherever g <= c   (clamp not binding)
//   e == else_form   wherever g >= c   (clamp binding: Min(g, c) == c)
//
// Both forms agree at g == c, so either branch may take the boundary; the
// split is EXACT over the declared domain, like every other analyzer rule.
struct ClampedForm {
  AffineForm then_form;
  AffineForm else_form;
  AffineForm guard;   // g
  int64_t bound = 0;  // c
};

class AffineAnalyzer {
 public:
  explicit AffineAnalyzer(std::vector<AffineLoop> loops);

  const std::vector<AffineLoop>& loops() const { return loops_; }

  // Decomposes `e` into an affine form over the analyzer's loops. Returns
  // nullopt when non-affine residue remains (unresolvable FloorDiv/Mod/Min/Max
  // or a variable that is not one of the loops).
  std::optional<AffineForm> Decompose(const Expr& e) const;

  // Piecewise fallback when Decompose fails: recovers the two-sided exact
  // form of an expression whose only residue is a single unfold clamp (see
  // ClampedForm above). Returns nullopt when there is no clamp, more than
  // one distinct clamp, or residue beyond the clamp.
  std::optional<ClampedForm> DecomposeClamped(const Expr& e) const;

 private:
  struct Ranged {
    AffineForm form;
    int64_t lo = 0;  // inclusive
    int64_t hi = 0;  // inclusive
  };
  std::optional<Ranged> Dec(const ExprNode* n) const;

  std::vector<AffineLoop> loops_;
  std::unordered_map<int, int> var_pos_;
};

// Guard-range splitting for an interval guard `lo <= e < hi` with
// `e == rem (mod modulus)`, where along the candidate loop `v in [0, extent)`
// the guard expression is e(v) = c0 + cv * v. Returns the contiguous subrange
// [begin, end) of v on which the guard holds (possibly empty: begin == end),
// or nullopt when the satisfied set is not contiguous (a modulus guard with
// cv % modulus != 0 selects a periodic subset — callers must evaluate such
// guards per element).
std::optional<std::pair<int64_t, int64_t>> GuardRange(int64_t c0, int64_t cv, int64_t lo,
                                                      int64_t hi, int64_t modulus,
                                                      int64_t rem, int64_t extent);

// Conservative cross-iteration disjointness proof for the program's
// outermost loop, the enabling analysis for intra-op sharding of a
// ForKind::kParallel root (runtime/interpreter.cc, codegen sliced kernels).
//
// Returns true when distinct iterations of the root loop provably touch
// disjoint elements of every tensor the program WRITES, so contiguous
// iteration shards may execute concurrently with bit-identical results.
// Every access (store or load — fused consumers re-read what the iteration
// wrote) of a written tensor counts, and either of two proofs suffices:
//   - flat: every access's linearized offset decomposes affinely over its
//     enclosing loops with one shared nonzero root-loop coefficient c0, and
//     the union of the footprints over the non-root loops spans fewer than
//     |c0| + 1 elements — the footprint then translates uniformly by c0 per
//     iteration and never overlaps itself;
//   - per dimension: some dimension d has index_d = c·i0 + r in every
//     access, with one shared nonzero c and max r − min r < |c|, and every
//     dimension index of every access stays inside [0, shape_d) over the
//     domain, so distinct multi-indices are distinct elements. This proves
//     tiled writes such as T[m][o*2 + i][..] under a parallel o, whose flat
//     residual spans far more than the flat root stride.
// Reads of tensors the program never writes (inputs, constants) are
// unconstrained. Anything unprovable — non-affine residue, mixed root
// strides, a root-invariant write — returns false and the caller degrades
// the loop to serial.
bool ParallelRootWritesDisjoint(const Program& program);

}  // namespace alt::ir

#endif  // ALT_IR_AFFINE_H_
