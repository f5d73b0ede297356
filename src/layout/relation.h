// First-class layout relations (layout algebra v2).
//
// A LayoutRelation is the semantic object a primitive sequence (§4.1) merely
// spells: an invertible index relation between a tensor's canonical
// (logical) coordinates and its physical (laid-out) coordinates. Where
// LayoutSeq is syntax — an ordered list of rewrite steps — the relation is
// the function those steps denote, normalized so two sequences denoting the
// same relation compare equal (`Fingerprint()`), compose (`Compose`), invert
// (`Inverse`), and answer divisibility queries (`DigitExtents`) without
// primitive-kind dispatch.
//
// Canonical form. The inverse map physical → canonical of every primitive
// sequence is a pure quasi-affine function (only the *forward* unfold rewrite
// needs a Min clamp), so the relation is normalized into a mixed-radix "digit
// form": each physical dimension carries an ordered digit list, each digit
// extracting floor(value / radix) % extent and contributing
// `extent × stride` canonical units of one canonical dimension, plus a
// per-canonical-dimension offset (padding shift). Under this form:
//
//   * split-then-fuse cancels, split(d,{a,b,c}) == split(d,{a,bc});split(...)
//     and identity reorders vanish — adjacent digits with matching strides
//     merge and unit digits drop;
//   * bijectivity is a radix check (every canonical dim exactly tiled, no
//     offsets, no data expansion), and `Inverse` is a digit transpose;
//   * composition substitutes one relation's digit decomposition into the
//     other's extractions, splitting digits at aligned radix boundaries.
//
// Sequences the digit form cannot express — a split that cuts a fused
// dimension between its digits, or an advanced primitive on a dimension that
// is not a single merged digit (e.g. pad after an interleaving fuse) — fall
// back to an *opaque* relation: access maps, shape transforms and
// data-expansion flags stay exact, but the fingerprint hashes the step
// serialization instead of the digit form, so only textually identical
// sequences deduplicate.
//
// Access maps (MapRead / MapInverse) are emitted by walking the relation's
// originating steps, not from the digit form: a fuse followed by a split,
// unfold or pad that cuts across the fused digits (the paper's own §4.1.1
// spatial-packing example) has no digit form, yet must still lower. The
// randomized differential corpus in layout_relation_test checks the walk
// pointwise against an independent numeric simulator. The normalized form
// feeds the algebra: Compose / Inverse / Fingerprint / DigitExtents /
// CanonicalState.

#ifndef ALT_LAYOUT_RELATION_H_
#define ALT_LAYOUT_RELATION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/layout/primitive.h"

namespace alt::layout {

class LayoutRelation {
 public:
  // One mixed-radix digit of a physical dimension: selects
  // floor(canonical[target] / stride) mod extent (reading the relation
  // inversely: contributes digit_value * stride to canonical[target]).
  struct Digit {
    int target = -1;
    int64_t extent = 1;
    int64_t stride = 1;
  };

  struct PhysDim {
    int64_t extent = 1;
    std::vector<Digit> digits;  // outer-to-inner mixed radix; empty: constant
  };

  // Builds the relation denoted by `seq` over `canonical_shape`. Fails
  // exactly when the sequence is inapplicable to the shape (same statuses as
  // LayoutSeq::ApplyToShape).
  static StatusOr<LayoutRelation> FromSeq(const LayoutSeq& seq,
                                          std::vector<int64_t> canonical_shape);

  static LayoutRelation Identity(std::vector<int64_t> shape);

  const std::vector<int64_t>& canonical_shape() const { return canonical_shape_; }
  const std::vector<int64_t>& physical_shape() const { return physical_shape_; }
  // The originating primitive steps (provenance; drives access-map emission).
  const LayoutSeq& steps() const { return steps_; }

  // Forward shape transform: the canonical shape mapped through the relation.
  const std::vector<int64_t>& ApplyToShape() const { return physical_shape_; }

  // Forward access rewrite: given the indices a consumer uses against the
  // canonical layout (optionally annotated with window patterns, parallel to
  // the index vector), returns indices into the physical layout. Unfold reads
  // take the Eq. (1) window form when a pattern allows it, otherwise the
  // canonical representative Min(FloorDiv(e, S), tiles - 1).
  StatusOr<std::vector<ir::Expr>> MapRead(
      const std::vector<ir::Expr>& indices,
      const std::vector<std::optional<WindowPattern>>& patterns = {}) const;
  // Inverse access map: reconstructs canonical indices from physical ones
  // (unfold inverts as tile * S + offset, so every duplicate maps back to the
  // same canonical element).
  StatusOr<std::vector<ir::Expr>> MapInverse(
      const std::vector<ir::Expr>& physical_indices) const;

  // True when the normalized digit form represents the relation exactly;
  // false for opaque fallbacks (advanced primitive on a compound dimension).
  bool exact() const { return !opaque_; }

  // Data expansion (paper §4.2 constraint 1): overlapping unfold (S < B),
  // nonzero pad, or store_at duplicates/extends data, so propagation must
  // stop. True iff some step IsNontrivialAdvanced().
  bool ExpandsData() const { return expands_data_; }

  // True when the relation is a bijection between canonical and physical
  // index space: every canonical dimension is exactly tiled by its digits,
  // no offsets, no data expansion. Bijective relations invert.
  bool IsBijective() const;

  bool IsIdentity() const;

  // The inverse relation (physical → canonical). Defined iff IsBijective();
  // the result carries a synthesized primitive realization so its access
  // maps emit through the same step walk.
  StatusOr<LayoutRelation> Inverse() const;

  // Relation composition: `second ∘ first` — `first` maps canonical → mid,
  // `second` maps mid → physical (second.canonical_shape() must equal
  // first.physical_shape()). Exact when second's digit boundaries align with
  // first's radix decomposition; otherwise the result is the step
  // concatenation with an opaque semantic core.
  static StatusOr<LayoutRelation> Compose(const LayoutRelation& second,
                                          const LayoutRelation& first);

  // Stable 64-bit fingerprint of the normalized relation: equal for any two
  // primitive sequences denoting the same relation (exact case), equal only
  // for identical step serializations in the opaque case. Includes the
  // canonical shape (parameters are shape-dependent).
  uint64_t Fingerprint() const;

  // The factors canonical dimension `dim` is partitioned into, innermost
  // first (the divisibility structure a vectorizer / tiler must respect).
  // Empty for opaque relations.
  std::vector<int64_t> DigitExtents(int dim) const;

  // Relation-derived RL state (paper §5.2.1), the PPO agent's input. For a
  // bijective relation: the per-primitive encoding of its canonical
  // synthesized sequence; for another exact relation: a flat encoding of
  // the digit form. Either way any two sequences denoting the same relation
  // feed the agent identical states. Opaque relations encode their steps.
  std::vector<double> CanonicalState() const;

  std::string ToString() const;

 private:
  LayoutRelation() = default;

  // Synthesizes a primitive sequence realizing the normalized digit form
  // (bijective relations only): per-dim splits, one reorder, per-dim fuses.
  StatusOr<LayoutSeq> SynthesizeSteps() const;

  std::vector<int64_t> canonical_shape_;
  std::vector<int64_t> physical_shape_;
  LayoutSeq steps_;

  std::vector<PhysDim> dims_;     // normalized digit form (exact case)
  std::vector<int64_t> offsets_;  // per canonical dim: canonical = Σ digits − offset
  bool opaque_ = false;
  bool expands_data_ = false;
};

}  // namespace alt::layout

#endif  // ALT_LAYOUT_RELATION_H_
