// Gradient-boosted regression trees — the cost model family the paper uses
// (an XGBoost ensemble, §5.2.3). Trained online on measured points to rank
// candidate programs so only the predicted top-k get "measured".
//
// Fit is XGBoost's exact greedy algorithm over column blocks sorted once per
// fit (Chen & Guestrin, KDD 2016), with ties within a column broken by
// residual: a node's split search is one linear pass per column, and the
// trees equal, bit for bit, those of a per-node sort of (value, residual)
// pairs (DESIGN.md §9).

#ifndef ALT_AUTOTUNE_GBT_H_
#define ALT_AUTOTUNE_GBT_H_

#include <cstdint>
#include <vector>

namespace alt::autotune {

class GradientBoostedTrees {
 public:
  // Fits on (features, targets); squared loss, exact greedy splits. Every
  // row has the same width. A pure function of its rows: refitting the same
  // rows yields the same model.
  void Fit(const std::vector<std::vector<double>>& x, const std::vector<double>& y);

  double Predict(const std::vector<double>& x) const;

  bool trained() const { return !trees_.empty(); }

 private:
  struct Node {
    int feature = -1;      // -1: leaf
    double threshold = 0.0;
    double value = 0.0;    // leaf prediction
    int left = -1;
    int right = -1;
  };
  struct Tree {
    std::vector<Node> nodes;
    double Predict(const std::vector<double>& x) const;
  };
  // One Fit's presorted columns, reused across its trees (gbt.cc).
  class TreeBuilder;

  double base_ = 0.0;
  std::vector<Tree> trees_;
};

}  // namespace alt::autotune

#endif  // ALT_AUTOTUNE_GBT_H_
