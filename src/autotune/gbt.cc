#include "src/autotune/gbt.h"

#include <algorithm>
#include <numeric>

#include "src/support/metrics.h"
#include "src/support/status.h"
#include "src/support/trace.h"

namespace alt::autotune {

namespace {

constexpr int kNumTrees = 40;
constexpr int kMaxDepth = 4;
constexpr double kLearningRate = 0.3;
constexpr int kMinSamplesLeaf = 4;

// Whether a node of `count` rows at `depth` looks for a split at all.
bool SearchesSplit(int count, int depth) {
  return depth < kMaxDepth && count >= 2 * kMinSamplesLeaf;
}

}  // namespace

// Exact greedy split search over columns sorted once per fit. A node covers
// the range [begin, end) of `indices_` and of every column's `order`:
// `indices_` holds the node's rows in the order its sum adds them, and each
// `order` holds the same rows sorted by (value, residual) — exactly the order
// a per-node sort of (value, residual) pairs yields, so each candidate
// split's left sum adds the same residuals in the same order and every tree
// is bit-identical to the sort-per-node algorithm. Rows tied in both value
// and residual are interchangeable: they add the same number.
class GradientBoostedTrees::TreeBuilder {
 public:
  // Buckets every non-constant column of `x` on its distinct values; a
  // constant column offers no split.
  explicit TreeBuilder(const std::vector<std::vector<double>>& x) : x_(x) {
    const int n = static_cast<int>(x.size());
    const size_t width = x[0].size();
    for (const auto& row : x) {
      ALT_CHECK_MSG(row.size() == width, "GBT rows differ in width");
    }
    std::vector<double> values(n);
    for (size_t f = 0; f < width; ++f) {
      for (int row = 0; row < n; ++row) {
        values[row] = x[row][f];
      }
      std::sort(values.begin(), values.end());
      auto distinct_end = std::unique(values.begin(), values.end());
      const int distinct = static_cast<int>(distinct_end - values.begin());
      if (distinct < 2) {
        continue;
      }
      Column column{static_cast<int>(f), distinct, std::vector<int>(n), std::vector<int>(n)};
      for (int row = 0; row < n; ++row) {
        column.bucket[row] = static_cast<int>(
            std::lower_bound(values.begin(), distinct_end, x[row][f]) - values.begin());
      }
      columns_.push_back(std::move(column));
    }
    indices_.resize(n);
    by_residual_.resize(n);
    right_.resize(n);
    goes_left_.resize(n);
  }

  // Grows one tree on `residual`: sorts the rows by residual once, then
  // counting-sorts every column by bucket, stably, so each column is ordered
  // by (value, residual).
  Tree Build(const std::vector<double>& residual) {
    std::iota(by_residual_.begin(), by_residual_.end(), 0);
    std::sort(by_residual_.begin(), by_residual_.end(),
              [&](int a, int b) { return residual[a] < residual[b]; });
    for (Column& column : columns_) {
      starts_.assign(column.buckets + 1, 0);
      for (int b : column.bucket) {
        ++starts_[b + 1];
      }
      std::partial_sum(starts_.begin(), starts_.end(), starts_.begin());
      for (int row : by_residual_) {
        column.order[starts_[column.bucket[row]]++] = row;
      }
    }
    std::iota(indices_.begin(), indices_.end(), 0);
    Tree tree;
    tree.nodes.push_back(Node{});
    Split(tree, residual, 0, 0, static_cast<int>(indices_.size()), 0);
    return tree;
  }

 private:
  struct Column {
    int feature;
    int buckets;              // distinct values
    std::vector<int> bucket;  // per row: rank of its value among the distinct
    std::vector<int> order;   // rows, by (value, residual) within each node
  };

  void Split(Tree& tree, const std::vector<double>& residual, int node_id, int begin, int end,
             int depth) {
    int count = end - begin;
    double sum = 0.0;
    for (int i = begin; i < end; ++i) {
      sum += residual[indices_[i]];
    }
    double mean = count > 0 ? sum / count : 0.0;
    tree.nodes[node_id].value = mean;
    if (!SearchesSplit(count, depth)) {
      return;
    }

    double best_gain = 1e-12;
    int best_feature = -1;
    double best_threshold = 0.0;
    for (const Column& column : columns_) {
      const int* order = column.order.data() + begin;
      const int* bucket = column.bucket.data();
      double left_sum = 0.0;
      for (int i = 0; i + 1 < count; ++i) {
        left_sum += residual[order[i]];
        if (bucket[order[i]] == bucket[order[i + 1]]) {
          continue;
        }
        int nl = i + 1;
        int nr = count - nl;
        if (nl < kMinSamplesLeaf || nr < kMinSamplesLeaf) {
          continue;
        }
        double right_sum = sum - left_sum;
        double gain = left_sum * left_sum / nl + right_sum * right_sum / nr - sum * sum / count;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = column.feature;
          best_threshold =
              0.5 * (x_[order[i]][column.feature] + x_[order[i + 1]][column.feature]);
        }
      }
    }
    if (best_feature < 0) {
      return;
    }

    auto mid_it = std::partition(indices_.begin() + begin, indices_.begin() + end,
                                 [&](int idx) { return x_[idx][best_feature] <= best_threshold; });
    int mid = static_cast<int>(mid_it - indices_.begin());
    if (mid == begin || mid == end) {
      return;
    }
    if (SearchesSplit(mid - begin, depth + 1) || SearchesSplit(end - mid, depth + 1)) {
      PartitionColumns(begin, mid, end);
    }
    tree.nodes[node_id].feature = best_feature;
    tree.nodes[node_id].threshold = best_threshold;
    int left = static_cast<int>(tree.nodes.size());
    tree.nodes.push_back(Node{});
    int right = static_cast<int>(tree.nodes.size());
    tree.nodes.push_back(Node{});
    tree.nodes[node_id].left = left;
    tree.nodes[node_id].right = right;
    Split(tree, residual, left, begin, mid, depth + 1);
    Split(tree, residual, right, mid, end, depth + 1);
  }

  // Stable-partitions every column's [begin, end) into the rows `indices_`
  // sent left ([begin, mid)) and right ([mid, end)), keeping each side in
  // (value, residual) order.
  void PartitionColumns(int begin, int mid, int end) {
    for (int i = begin; i < end; ++i) {
      goes_left_[indices_[i]] = i < mid;
    }
    for (Column& column : columns_) {
      int* order = column.order.data();
      int left = begin;
      int right = 0;
      for (int i = begin; i < end; ++i) {
        const int row = order[i];
        if (goes_left_[row]) {
          order[left++] = row;
        } else {
          right_[right++] = row;
        }
      }
      std::copy(right_.begin(), right_.begin() + right, order + mid);
    }
  }

  const std::vector<std::vector<double>>& x_;
  std::vector<Column> columns_;
  std::vector<int> indices_;      // node partition, in the order node sums add
  std::vector<int> by_residual_;  // rows by residual (per tree)
  std::vector<int> starts_;       // counting-sort bucket starts
  std::vector<int> right_;        // stable-partition scratch
  std::vector<char> goes_left_;   // per row, for the split being applied
};

double GradientBoostedTrees::Tree::Predict(const std::vector<double>& x) const {
  int node = 0;
  while (nodes[node].feature >= 0) {
    const Node& n = nodes[node];
    double v = n.feature < static_cast<int>(x.size()) ? x[n.feature] : 0.0;
    node = v <= n.threshold ? n.left : n.right;
  }
  return nodes[node].value;
}

void GradientBoostedTrees::Fit(const std::vector<std::vector<double>>& x,
                               const std::vector<double>& y) {
  static Counter& fits = MetricsRegistry::Global().counter("autotune.fits");
  static Histogram& fit_us = MetricsRegistry::Global().histogram("autotune.fit_us");
  fits.Add();
  const int64_t start_ns = TraceRecorder::NowNs();
  ALT_CHECK(x.size() == y.size());
  trees_.clear();
  base_ = 0.0;
  if (!x.empty()) {
    base_ = std::accumulate(y.begin(), y.end(), 0.0) / y.size();
    std::vector<double> pred(y.size(), base_);
    std::vector<double> residual(y.size());
    TreeBuilder builder(x);
    for (int t = 0; t < kNumTrees; ++t) {
      for (size_t i = 0; i < y.size(); ++i) {
        residual[i] = y[i] - pred[i];
      }
      Tree tree = builder.Build(residual);
      for (size_t i = 0; i < y.size(); ++i) {
        pred[i] += kLearningRate * tree.Predict(x[i]);
      }
      trees_.push_back(std::move(tree));
    }
  }
  fit_us.Observe(static_cast<double>(TraceRecorder::NowNs() - start_ns) * 1e-3);
}

double GradientBoostedTrees::Predict(const std::vector<double>& x) const {
  double out = base_;
  for (const auto& tree : trees_) {
    out += kLearningRate * tree.Predict(x);
  }
  return out;
}

}  // namespace alt::autotune
