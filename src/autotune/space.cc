#include "src/autotune/space.h"

#include <cmath>
#include <sstream>

#include "src/layout/relation.h"
#include "src/support/string_util.h"

namespace alt::autotune {

using graph::OpKind;

// ---------------------------------------------------------------------------
// LayoutSpace
// ---------------------------------------------------------------------------

StatusOr<LayoutSpace> LayoutSpace::ForOp(const graph::Graph& graph, int op_id, bool two_level) {
  const graph::Op& op = graph.op(op_id);
  if (!graph::IsComplex(op.kind)) {
    return Status::InvalidArgument("layout spaces exist only for complex operators");
  }
  LayoutSpace space;
  space.op_id_ = op_id;
  space.two_level_ = two_level;
  if (op.kind == OpKind::kMatmul) {
    space.is_gmm_ = true;
    const auto& sa = graph.tensor(op.inputs[0]).shape;
    const auto& sb = graph.tensor(op.inputs[1]).shape;
    space.knob_divisors_.push_back(Divisors(sa[0]));  // mt
    space.knob_divisors_.push_back(Divisors(sb[1]));  // nt
    space.knob_divisors_.push_back(Divisors(sa[1]));  // kt
    return space;
  }
  const auto& out_shape = graph.tensor(op.output).shape;
  const auto& in_shape = graph.tensor(op.inputs[0]).shape;
  const auto& w_shape = graph.tensor(op.inputs[1]).shape;
  space.spatial_dims_ = op.conv.spatial_dims;
  for (int d = 0; d < space.spatial_dims_; ++d) {
    space.knob_divisors_.push_back(Divisors(out_shape[2 + d]));
  }
  space.knob_divisors_.push_back(Divisors(out_shape[1]));  // ot
  space.knob_divisors_.push_back(Divisors(in_shape[1]));   // it
  space.knob_divisors_.push_back(Divisors(w_shape[1]));    // w it'
  space.knob_divisors_.push_back(Divisors(w_shape[0]));    // w ot'
  if (two_level) {
    space.knob_divisors_.push_back(Divisors(out_shape[1]));  // ot2 (validated on decode)
  }
  return space;
}

double LayoutSpace::NumPoints() const {
  double n = 1.0;
  for (const auto& d : knob_divisors_) {
    n *= static_cast<double>(d.size());
  }
  return n;
}

StatusOr<DecodedLayouts> LayoutSpace::Decode(const graph::Graph& graph,
                                             const Point& point) const {
  if (static_cast<int>(point.size()) < num_knobs()) {
    return Status::InvalidArgument("layout point dimension too small");
  }
  const graph::Op& op = graph.op(op_id_);
  DecodedLayouts out;
  if (is_gmm_) {
    GmmLayoutParams params;
    params.mt = knob_divisors_[0][PickIndex(point[0], knob_divisors_[0].size())];
    params.nt = knob_divisors_[1][PickIndex(point[1], knob_divisors_[1].size())];
    params.kt = knob_divisors_[2][PickIndex(point[2], knob_divisors_[2].size())];
    auto layouts = MakeGmmTemplates(graph, op, params);
    if (!layouts.ok()) {
      return layouts.status();
    }
    out.output = layouts->c;
    out.input = layouts->a;
    out.weight = layouts->b;
    std::ostringstream oss;
    oss << "gmm(mt=" << params.mt << ", nt=" << params.nt << ", kt=" << params.kt << ")";
    out.desc = oss.str();
  } else {
    ConvLayoutParams params;
    int k = 0;
    for (int d = 0; d < spatial_dims_; ++d, ++k) {
      params.spatial_tiles.push_back(
          knob_divisors_[k][PickIndex(point[k], knob_divisors_[k].size())]);
    }
    params.out_tile = knob_divisors_[k][PickIndex(point[k], knob_divisors_[k].size())];
    ++k;
    params.in_tile = knob_divisors_[k][PickIndex(point[k], knob_divisors_[k].size())];
    ++k;
    params.w_in_tile = knob_divisors_[k][PickIndex(point[k], knob_divisors_[k].size())];
    ++k;
    params.w_out_tile = knob_divisors_[k][PickIndex(point[k], knob_divisors_[k].size())];
    ++k;
    if (two_level_) {
      // ot2 must divide O/ot; remap the coordinate over the valid divisors.
      int64_t remaining = graph.tensor(op.output).shape[1] / params.out_tile;
      auto divs = Divisors(remaining);
      params.out_tile2 = divs[PickIndex(point[k], divs.size())];
      ++k;
    }
    auto layouts = MakeConvTemplates(graph, op, params);
    if (!layouts.ok()) {
      return layouts.status();
    }
    out.output = layouts->output;
    out.input = layouts->input;
    out.weight = layouts->weight;
    std::ostringstream oss;
    oss << "conv(spatial=[" << Join(params.spatial_tiles, ",") << "], ot=" << params.out_tile;
    if (two_level_) {
      oss << "x" << params.out_tile2;
    }
    oss << ", it=" << params.in_tile << ", w=" << params.w_in_tile << "/" << params.w_out_tile
        << ")";
    out.desc = oss.str();
  }
  out.state = RelationState(graph, op, out);
  return out;
}

std::vector<double> RelationState(const graph::Graph& graph, const graph::Op& op,
                                  const DecodedLayouts& d) {
  auto one = [&](const layout::LayoutSeq& seq, int tensor_id) {
    auto rel = layout::LayoutRelation::FromSeq(seq, graph.tensor(tensor_id).shape);
    return rel.ok() ? rel->CanonicalState() : std::vector<double>();
  };
  std::vector<double> state = one(d.output, op.output);
  auto si = one(d.input, op.inputs[0]);
  auto sw = one(d.weight, op.inputs[1]);
  state.insert(state.end(), si.begin(), si.end());
  state.insert(state.end(), sw.begin(), sw.end());
  return state;
}

std::string RelationKey(const graph::Graph& graph, const graph::Op& op,
                        const DecodedLayouts& d) {
  auto one = [&](const layout::LayoutSeq& seq, int tensor_id) -> std::string {
    auto rel = layout::LayoutRelation::FromSeq(seq, graph.tensor(tensor_id).shape);
    return rel.ok() ? std::to_string(rel->Fingerprint()) : std::string();
  };
  std::string o = one(d.output, op.output);
  std::string i = one(d.input, op.inputs[0]);
  std::string w = one(d.weight, op.inputs[1]);
  if (o.empty() || i.empty() || w.empty()) {
    return std::string();
  }
  return o + "|" + i + "|" + w;
}

// ---------------------------------------------------------------------------
// LoopSpace
// ---------------------------------------------------------------------------

LoopSpace LoopSpace::ForSignature(const loop::LoopNestSignature& sig,
                                  const sim::Machine& machine, bool restricted) {
  LoopSpace space;
  space.sig_ = sig;
  space.lanes_ = machine.vector_lanes;
  space.restricted_ = restricted;
  int ns = static_cast<int>(sig.spatial_extents.size());
  int nr = static_cast<int>(sig.reduction_extents.size());
  // vec (last axis) + per-axis inner (+ mid) + per-reduction inner
  // + parallel depth + rotation + unroll.
  space.num_knobs_ = 1 + ns * (restricted ? 1 : 2) + nr + (restricted ? 1 : 3);
  return space;
}

double LoopSpace::NumPoints() const {
  double n = 1.0;
  for (int64_t e : sig_.spatial_extents) {
    double d = static_cast<double>(Divisors(e).size());
    n *= restricted_ ? d : d * d;
  }
  for (int64_t e : sig_.reduction_extents) {
    n *= static_cast<double>(Divisors(e).size());
  }
  return n * 8.0;
}

loop::LoopSchedule LoopSpace::Decode(const Point& point) const {
  loop::LoopSchedule sched;
  int ns = static_cast<int>(sig_.spatial_extents.size());
  int nr = static_cast<int>(sig_.reduction_extents.size());
  size_t k = 0;
  auto next = [&]() -> double {
    double v = k < point.size() ? point[k] : 0.0;
    ++k;
    return v;
  };

  // Vector split on the last axis, choosing among divisors up to the lanes.
  int64_t vec = 1;
  {
    double coord = next();
    if (ns > 0) {
      std::vector<int64_t> choices;
      for (int64_t d : Divisors(sig_.spatial_extents[ns - 1])) {
        if (d <= lanes_) {
          choices.push_back(d);
        }
      }
      vec = choices[PickIndex(coord, static_cast<int>(choices.size()))];
    }
  }

  for (int j = 0; j < ns; ++j) {
    loop::SpatialAxisSchedule axis;
    int64_t extent = sig_.spatial_extents[j];
    if (j == ns - 1) {
      axis.vec = vec;
      extent /= vec;
    }
    auto inner_divs = Divisors(extent);
    axis.inner = inner_divs[PickIndex(next(), static_cast<int>(inner_divs.size()))];
    extent /= axis.inner;
    if (!restricted_) {
      auto mid_divs = Divisors(extent);
      axis.mid = mid_divs[PickIndex(next(), static_cast<int>(mid_divs.size()))];
      extent /= axis.mid;
    }
    axis.outer = extent;
    sched.spatial.push_back(axis);
  }
  for (int r = 0; r < nr; ++r) {
    loop::ReductionAxisSchedule axis;
    auto divs = Divisors(sig_.reduction_extents[r]);
    axis.inner = divs[PickIndex(next(), static_cast<int>(divs.size()))];
    axis.outer = sig_.reduction_extents[r] / axis.inner;
    sched.reduction.push_back(axis);
  }
  if (restricted_) {
    sched.parallel_axes = ns > 0 ? 1 : 0;
    sched.inner_order_rotation = 0;
    sched.unroll_inner_reduction = PickIndex(next(), 2) == 1;
  } else {
    sched.parallel_axes = ns > 0 ? 1 + PickIndex(next(), std::min(ns, 3)) : 0;
    sched.inner_order_rotation = ns > 0 ? PickIndex(next(), ns) : 0;
    sched.unroll_inner_reduction = PickIndex(next(), 2) == 1;
  }
  return sched;
}

loop::LoopSchedule LoopSpace::Default(const loop::LoopNestSignature& sig,
                                      const sim::Machine& machine) {
  loop::LoopSchedule sched =
      loop::LoopSchedule::Naive(sig.spatial_extents, sig.reduction_extents);
  int ns = static_cast<int>(sched.spatial.size());
  if (ns > 0) {
    auto& last = sched.spatial[ns - 1];
    int64_t extent = sig.spatial_extents[ns - 1];
    for (int64_t v = machine.vector_lanes; v > 1; v /= 2) {
      if (extent % v == 0) {
        last.vec = v;
        last.outer = extent / v;
        break;
      }
    }
    // Modest inner tile on the second-to-last axis for locality.
    if (ns >= 2) {
      auto& axis = sched.spatial[ns - 2];
      int64_t e = sig.spatial_extents[ns - 2];
      for (int64_t t : {8, 4, 2}) {
        if (e % t == 0) {
          axis.inner = t;
          axis.outer = e / t;
          break;
        }
      }
    }
    sched.parallel_axes = std::min(ns, 2);
  }
  for (size_t r = 0; r < sched.reduction.size(); ++r) {
    int64_t e = sig.reduction_extents[r];
    for (int64_t t : {4, 2}) {
      if (e % t == 0) {
        sched.reduction[r].inner = t;
        sched.reduction[r].outer = e / t;
        break;
      }
    }
  }
  sched.unroll_inner_reduction = true;
  return sched;
}

Point RandomPoint(int dim, Rng& rng) {
  Point p(dim);
  for (auto& v : p) {
    v = rng.NextDouble();
  }
  return p;
}

Point NeighbourPoint(const Point& p, Rng& rng) {
  Point out = p;
  if (out.empty()) {
    return out;
  }
  size_t i = rng.NextBelow(out.size());
  out[i] += rng.NextGaussian() * 0.15;
  out[i] = std::min(0.999999, std::max(0.0, out[i]));
  return out;
}

}  // namespace alt::autotune
