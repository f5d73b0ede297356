// Layout transformation primitives (paper §4.1, Table 1).
//
// Basic primitives: split, reorder, fuse. Advanced primitives: unfold
// (overlapped tiling, Fig. 2 / Eq. (1)), pad, store_at. A LayoutSeq is the
// syntax of a layout: the ordered primitive steps applied to one tensor, plus
// the forward shape transform. What the steps denote — the access rewrite,
// its inverse (the S^-1 of paper §6), equality, composition — lives in
// layout::LayoutRelation (layout/relation.h).

#ifndef ALT_LAYOUT_PRIMITIVE_H_
#define ALT_LAYOUT_PRIMITIVE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/ir/expr.h"
#include "src/support/status.h"

namespace alt::layout {

enum class PrimitiveKind { kSplit, kReorder, kFuse, kUnfold, kPad, kStoreAt };

// A sliding-window access decomposition: index = stride * base + window,
// where `window` ranges over [0, window_size). Convolution lowerings pass
// these so unfold can apply the Eq. (1) window-aware rewrite instead of the
// canonical-representative rewrite.
struct WindowPattern {
  ir::Expr base;          // the window position iterator (e.g. output row)
  int64_t stride = 1;     // convolutional stride V
  ir::Expr window;        // the intra-window offset iterator (e.g. rh)
  int64_t window_size = 1;  // M: extent of `window`
};

struct Primitive {
  PrimitiveKind kind;

  // kSplit: splits dimension `dim` into factors (product must equal the old
  // extent). kFuse: fuses `num_dims` dims starting at `dim`. kUnfold / kPad
  // target `dim`.
  int dim = 0;
  std::vector<int64_t> factors;  // kSplit: new sub-extents, outer first
  std::vector<int> perm;         // kReorder: new dim d reads old dim perm[d]
  int num_dims = 0;              // kFuse
  int64_t tile_size = 0;         // kUnfold: B
  int64_t stride = 0;            // kUnfold: S (requires S <= B)
  int64_t pad_before = 0;        // kPad
  int64_t pad_after = 0;         // kPad
  int store_src_tensor = -1;     // kStoreAt: tensor attached into `dim`

  static Primitive Split(int dim, std::vector<int64_t> factors);
  static Primitive Reorder(std::vector<int> perm);
  static Primitive Fuse(int dim, int num_dims);
  static Primitive Unfold(int dim, int64_t tile_size, int64_t stride);
  static Primitive Pad(int dim, int64_t before, int64_t after);
  static Primitive StoreAt(int src_tensor, int dim);

  // True for advanced primitives that duplicate or extend data (paper §4.2:
  // propagation stops at "non-trivial advanced primitives").
  bool IsNontrivialAdvanced() const;

  std::string ToString() const;
};

// An ordered sequence of primitives applied to one tensor.
class LayoutSeq {
 public:
  LayoutSeq() = default;

  LayoutSeq& Append(Primitive p) {
    prims_.push_back(std::move(p));
    return *this;
  }

  bool empty() const { return prims_.empty(); }
  size_t size() const { return prims_.size(); }
  const std::vector<Primitive>& primitives() const { return prims_; }

  // Applies the sequence to a shape. Fails when a primitive is inapplicable
  // (e.g. split factors do not divide the extent).
  Status ApplyToShape(std::vector<int64_t>& shape) const;

  std::string ToString() const;

 private:
  std::vector<Primitive> prims_;
};

// store_at hosting (paper §4.1.2): a tensor whose sequence is exactly
// [store_at(src, dim)] carries tensor `src` in the slice appended to `dim`,
// at index extent_dim. Returns that primitive, or nullptr for any other
// sequence. Lowering redirects loads of `src` into the slice and the runtime
// fills it, both by this one rule.
const Primitive* HostedStoreAt(const LayoutSeq& seq);

}  // namespace alt::layout

#endif  // ALT_LAYOUT_PRIMITIVE_H_
