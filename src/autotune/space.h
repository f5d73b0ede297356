// Search spaces (paper §5.1).
//
// Points are vectors in [0,1)^k — the representation PPO actors emit (Eq. (2)
// maps an action in (0,1) to a split factor) and random explorers sample.
// Decoding is sequential and dependency-aware: each coordinate selects from
// the divisor set that remains valid given the previous choices.

#ifndef ALT_AUTOTUNE_SPACE_H_
#define ALT_AUTOTUNE_SPACE_H_

#include <string>
#include <vector>

#include "src/autotune/layout_templates.h"
#include "src/graph/graph.h"
#include "src/loop/lowering.h"
#include "src/loop/schedule.h"
#include "src/sim/machine.h"
#include "src/support/rng.h"

namespace alt::autotune {

using Point = std::vector<double>;

inline int PickIndex(double coord, int n) {
  int idx = static_cast<int>(coord * n);
  return idx < 0 ? 0 : (idx >= n ? n - 1 : idx);
}

// ---------------------------------------------------------------------------
// Layout space for one complex operator.
// ---------------------------------------------------------------------------

struct DecodedLayouts {
  layout::LayoutSeq output;  // GMM: C
  layout::LayoutSeq input;   // GMM: A
  layout::LayoutSeq weight;  // GMM: B
  // RL state (§5.2.1): concatenated relation-canonical states of all three
  // sequences (see RelationState below).
  std::vector<double> state;
  std::string desc;
};

// RL state of a decoded candidate: the concatenated
// layout::LayoutRelation::CanonicalState() of output/input/weight over the
// op's tensor shapes, so two primitive spellings of the same physical layout
// feed the agent identical states. A sequence inapplicable to its shape
// (which the templates never produce) contributes nothing.
std::vector<double> RelationState(const graph::Graph& graph, const graph::Op& op,
                                  const DecodedLayouts& d);

// Semantic identity key of the candidate's layout triple: the three relation
// fingerprints joined, or "" when any relation fails to build. Equal keys
// denote the same physical layouts, so the tuner shares one evaluation among
// all spellings (layout.relation_dedup).
std::string RelationKey(const graph::Graph& graph, const graph::Op& op,
                        const DecodedLayouts& d);

class LayoutSpace {
 public:
  static StatusOr<LayoutSpace> ForOp(const graph::Graph& graph, int op_id, bool two_level);

  int num_knobs() const { return static_cast<int>(knob_divisors_.size()); }
  // Log-scale size estimate of the layout space (for reporting).
  double NumPoints() const;

  StatusOr<DecodedLayouts> Decode(const graph::Graph& graph, const Point& point) const;

 private:
  int op_id_ = -1;
  bool is_gmm_ = false;
  bool two_level_ = false;
  int spatial_dims_ = 0;
  // Divisor choices per knob, in decode order.
  std::vector<std::vector<int64_t>> knob_divisors_;
};

// ---------------------------------------------------------------------------
// Loop space for one fused group.
// ---------------------------------------------------------------------------

class LoopSpace {
 public:
  // `restricted` models the AutoTVM-style small template space (fewer knobs:
  // no mid level, no rotation).
  static LoopSpace ForSignature(const loop::LoopNestSignature& sig,
                                const sim::Machine& machine, bool restricted = false);

  int num_knobs() const { return num_knobs_; }
  double NumPoints() const;

  loop::LoopSchedule Decode(const Point& point) const;

  // Heuristic non-tuned schedule (vendor baseline, untuned groups).
  static loop::LoopSchedule Default(const loop::LoopNestSignature& sig,
                                    const sim::Machine& machine);

 private:
  loop::LoopNestSignature sig_;
  int lanes_ = 1;
  bool restricted_ = false;
  int num_knobs_ = 0;
};

// Uniformly random point of dimension `dim`.
Point RandomPoint(int dim, Rng& rng);
// Random-walk neighbour: perturbs one coordinate.
Point NeighbourPoint(const Point& p, Rng& rng);

}  // namespace alt::autotune

#endif  // ALT_AUTOTUNE_SPACE_H_
