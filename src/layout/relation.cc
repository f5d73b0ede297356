#include "src/layout/relation.h"

#include <algorithm>
#include <sstream>

#include "src/support/crc32.h"
#include "src/support/string_util.h"

namespace alt::layout {

using ir::Expr;

namespace detail {
int64_t UnfoldTiles(int64_t extent, int64_t tile, int64_t stride);
Status ApplyPrimitiveToShape(const Primitive& p, std::vector<int64_t>& shape);
}  // namespace detail

namespace {

using Digit = LayoutRelation::Digit;
using PhysDim = LayoutRelation::PhysDim;

// Merges adjacent digits forming one contiguous radix of the same canonical
// dim and drops unit digits — the normalization that makes split∘fuse cancel
// and equivalent factorizations coincide.
void NormalizeDim(PhysDim& dim) {
  std::vector<Digit> out;
  for (const Digit& d : dim.digits) {
    if (d.extent == 1) {
      continue;
    }
    if (!out.empty() && out.back().target == d.target &&
        out.back().stride == d.stride * d.extent) {
      out.back().extent *= d.extent;
      out.back().stride = d.stride;
    } else {
      out.push_back(d);
    }
  }
  dim.digits = std::move(out);
}

// Repartitions a dimension's digit list along `factors` (outer first), each
// part taking a whole number of radix positions; a digit straddling a factor
// boundary is split in two when the boundary divides it. Returns nullopt when
// a boundary falls strictly inside a digit at a non-divisible position (the
// factorization interleaves canonical dims — relation goes opaque).
std::optional<std::vector<PhysDim>> SplitDigits(const PhysDim& dim,
                                                const std::vector<int64_t>& factors) {
  std::vector<Digit> pool(dim.digits.rbegin(), dim.digits.rend());  // inner first
  int m = static_cast<int>(factors.size());
  std::vector<PhysDim> out(m);
  for (int k = m - 1; k >= 0; --k) {
    int64_t need = factors[k];
    std::vector<Digit> got;  // inner first
    while (need > 1) {
      if (pool.empty()) {
        return std::nullopt;
      }
      Digit d = pool.front();
      pool.erase(pool.begin());
      if (d.extent <= need) {
        if (need % d.extent != 0) {
          return std::nullopt;
        }
        got.push_back(d);
        need /= d.extent;
      } else {
        if (d.extent % need != 0) {
          return std::nullopt;
        }
        got.push_back({d.target, need, d.stride});
        pool.insert(pool.begin(), {d.target, d.extent / need, d.stride * need});
        need = 1;
      }
    }
    out[k].extent = factors[k];
    out[k].digits.assign(got.rbegin(), got.rend());
  }
  return out;
}

// Per-primitive RL encoding (kind, dim, then the kind's parameters),
// concatenated over the steps. CanonicalState applies it to synthesized and
// opaque step lists; the PPO agent consumes exactly these numbers, so any
// change here alters every tuning trajectory.
std::vector<double> StepState(const LayoutSeq& seq) {
  std::vector<double> s;
  for (const Primitive& p : seq.primitives()) {
    s.push_back(static_cast<double>(p.kind));
    s.push_back(p.dim);
    switch (p.kind) {
      case PrimitiveKind::kSplit:
        for (int64_t f : p.factors) {
          s.push_back(static_cast<double>(f));
        }
        break;
      case PrimitiveKind::kReorder:
        for (int d : p.perm) {
          s.push_back(d);
        }
        break;
      case PrimitiveKind::kFuse:
        s.push_back(p.num_dims);
        break;
      case PrimitiveKind::kUnfold:
        s.push_back(static_cast<double>(p.tile_size));
        s.push_back(static_cast<double>(p.stride));
        break;
      case PrimitiveKind::kPad:
        s.push_back(static_cast<double>(p.pad_before));
        s.push_back(static_cast<double>(p.pad_after));
        break;
      case PrimitiveKind::kStoreAt:
        s.push_back(p.store_src_tensor);
        break;
    }
  }
  return s;
}

// The FNV-1a basis relation fingerprints have always used: the standard one
// (14695981039346656037) missing its last decimal digit. Fingerprints seed
// the joint stage's per-candidate generators, so another basis would change
// every tuning trajectory.
constexpr uint64_t kFingerprintBasis = 1469598103934665603ull;

}  // namespace

StatusOr<LayoutRelation> LayoutRelation::FromSeq(const LayoutSeq& seq,
                                                 std::vector<int64_t> canonical_shape) {
  LayoutRelation r;
  r.canonical_shape_ = canonical_shape;
  r.steps_ = seq;
  r.offsets_.assign(canonical_shape.size(), 0);
  for (size_t i = 0; i < canonical_shape.size(); ++i) {
    PhysDim d;
    d.extent = canonical_shape[i];
    if (canonical_shape[i] > 1) {
      d.digits.push_back({static_cast<int>(i), canonical_shape[i], 1});
    }
    r.dims_.push_back(std::move(d));
  }

  std::vector<int64_t> shape = std::move(canonical_shape);
  for (const Primitive& p : seq.primitives()) {
    // Shape validation first (identical statuses to LayoutSeq::ApplyToShape);
    // the digit update below may then index freely.
    ALT_RETURN_IF_ERROR(detail::ApplyPrimitiveToShape(p, shape));
    r.expands_data_ = r.expands_data_ || p.IsNontrivialAdvanced();
    if (r.opaque_) {
      continue;
    }
    switch (p.kind) {
      case PrimitiveKind::kSplit: {
        auto parts = SplitDigits(r.dims_[p.dim], p.factors);
        if (!parts) {
          r.opaque_ = true;
          break;
        }
        r.dims_.erase(r.dims_.begin() + p.dim);
        r.dims_.insert(r.dims_.begin() + p.dim, parts->begin(), parts->end());
        break;
      }
      case PrimitiveKind::kReorder: {
        int rank = static_cast<int>(p.perm.size());
        std::vector<PhysDim> out(rank);
        for (int d = 0; d < rank; ++d) {
          out[d] = std::move(r.dims_[p.perm[d]]);
        }
        r.dims_ = std::move(out);
        break;
      }
      case PrimitiveKind::kFuse: {
        PhysDim fused;
        fused.extent = 1;
        for (int i = 0; i < p.num_dims; ++i) {
          const PhysDim& part = r.dims_[p.dim + i];
          fused.extent *= part.extent;
          fused.digits.insert(fused.digits.end(), part.digits.begin(), part.digits.end());
        }
        r.dims_.erase(r.dims_.begin() + p.dim, r.dims_.begin() + p.dim + p.num_dims);
        r.dims_.insert(r.dims_.begin() + p.dim, std::move(fused));
        break;
      }
      case PrimitiveKind::kUnfold: {
        NormalizeDim(r.dims_[p.dim]);
        if (r.dims_[p.dim].digits.size() > 1 ||
            (r.dims_[p.dim].digits.empty() && r.dims_[p.dim].extent > 1)) {
          r.opaque_ = true;
          break;
        }
        int64_t extent = r.dims_[p.dim].extent;
        int64_t tiles = detail::UnfoldTiles(extent, p.tile_size, p.stride);
        PhysDim tile, off;
        tile.extent = tiles;
        off.extent = p.tile_size;
        if (!r.dims_[p.dim].digits.empty()) {
          Digit base = r.dims_[p.dim].digits[0];
          tile.digits.push_back({base.target, tiles, p.stride * base.stride});
          off.digits.push_back({base.target, p.tile_size, base.stride});
        }
        r.dims_.erase(r.dims_.begin() + p.dim);
        r.dims_.insert(r.dims_.begin() + p.dim, {std::move(tile), std::move(off)});
        break;
      }
      case PrimitiveKind::kPad: {
        NormalizeDim(r.dims_[p.dim]);
        if (r.dims_[p.dim].digits.size() != 1 && (p.pad_before != 0 || p.pad_after != 0)) {
          r.opaque_ = true;
          break;
        }
        r.dims_[p.dim].extent += p.pad_before + p.pad_after;
        if (!r.dims_[p.dim].digits.empty()) {
          Digit& d = r.dims_[p.dim].digits[0];
          d.extent += p.pad_before + p.pad_after;
          r.offsets_[d.target] += p.pad_before * d.stride;
        }
        break;
      }
      case PrimitiveKind::kStoreAt: {
        // The attached slice holds foreign data; no digit form describes it.
        r.dims_[p.dim].extent += 1;
        r.opaque_ = true;
        break;
      }
    }
  }
  r.physical_shape_ = std::move(shape);
  for (PhysDim& d : r.dims_) {
    NormalizeDim(d);
  }
  if (r.opaque_) {
    r.dims_.clear();
  }
  return r;
}

LayoutRelation LayoutRelation::Identity(std::vector<int64_t> shape) {
  auto r = FromSeq(LayoutSeq(), std::move(shape));
  ALT_CHECK(r.ok());
  return *std::move(r);
}

bool LayoutRelation::IsBijective() const {
  if (opaque_ || expands_data_) {
    return false;
  }
  for (int64_t off : offsets_) {
    if (off != 0) {
      return false;
    }
  }
  int crank = static_cast<int>(canonical_shape_.size());
  std::vector<std::vector<Digit>> per_dim(crank);
  for (const PhysDim& d : dims_) {
    for (const Digit& g : d.digits) {
      if (g.target < 0 || g.target >= crank) {
        return false;
      }
      per_dim[g.target].push_back(g);
    }
  }
  for (int c = 0; c < crank; ++c) {
    auto& digits = per_dim[c];
    std::sort(digits.begin(), digits.end(),
              [](const Digit& a, const Digit& b) { return a.stride < b.stride; });
    int64_t radix = 1;
    for (const Digit& g : digits) {
      if (g.stride != radix) {
        return false;
      }
      radix *= g.extent;
    }
    if (radix != canonical_shape_[c]) {
      return false;
    }
  }
  return true;
}

bool LayoutRelation::IsIdentity() const {
  if (opaque_ || expands_data_ || physical_shape_ != canonical_shape_) {
    return false;
  }
  for (size_t i = 0; i < dims_.size(); ++i) {
    const PhysDim& d = dims_[i];
    if (d.digits.empty()) {
      if (d.extent != 1) {
        return false;
      }
      continue;
    }
    if (d.digits.size() != 1 || d.digits[0].target != static_cast<int>(i) ||
        d.digits[0].stride != 1 || d.digits[0].extent != d.extent) {
      return false;
    }
  }
  return true;
}

StatusOr<LayoutSeq> LayoutRelation::SynthesizeSteps() const {
  if (opaque_ || !IsBijective()) {
    return Status::InvalidArgument("synthesis requires an exact bijective relation");
  }
  int crank = static_cast<int>(canonical_shape_.size());
  if (crank == 0) {
    return LayoutSeq();
  }
  // Entry: one intermediate dim produced by splitting a canonical dim. Digits
  // keyed by (phys dim, digit index); pseudo entries carry {-1, -1}.
  struct Entry {
    int64_t extent;
    int phys = -1, digit = -1;
    int64_t stride = 0;
  };
  std::vector<std::vector<Entry>> ext(crank);  // outer first per canonical dim
  for (size_t p = 0; p < dims_.size(); ++p) {
    for (size_t j = 0; j < dims_[p].digits.size(); ++j) {
      const Digit& g = dims_[p].digits[j];
      ext[g.target].push_back(
          {g.extent, static_cast<int>(p), static_cast<int>(j), g.stride});
    }
  }
  for (auto& list : ext) {
    std::sort(list.begin(), list.end(),
              [](const Entry& a, const Entry& b) { return a.stride > b.stride; });
  }
  // Unit physical dims consume pseudo unit entries split off canonical dim 0.
  std::vector<int> unit_phys;
  for (size_t p = 0; p < dims_.size(); ++p) {
    if (dims_[p].digits.empty()) {
      unit_phys.push_back(static_cast<int>(p));
    }
  }
  for (size_t u = 0; u < unit_phys.size(); ++u) {
    ext[0].push_back({1, unit_phys[u], -1, 0});
  }

  LayoutSeq seq;
  // Split phase: intermediate slot ids in canonical order.
  struct Slot {
    int phys, digit;
  };
  std::vector<Slot> slots;
  int extra = 0;
  for (int c = 0; c < crank; ++c) {
    if (ext[c].empty()) {
      // Unit canonical dim nothing consumes: fuse it into physical dim 0.
      slots.push_back({0, -2});
      continue;
    }
    if (ext[c].size() >= 2) {
      std::vector<int64_t> factors;
      for (const Entry& e : ext[c]) {
        factors.push_back(e.extent);
      }
      seq.Append(Primitive::Split(c + extra, std::move(factors)));
    }
    for (const Entry& e : ext[c]) {
      slots.push_back({e.phys, e.digit == -1 ? -1 : e.digit});
    }
    extra += static_cast<int>(ext[c].size()) - 1;
  }
  // Reorder phase: physical consumption order over the intermediate slots.
  std::vector<int> perm;
  std::vector<int> group(dims_.size(), 0);
  for (size_t p = 0; p < dims_.size(); ++p) {
    // Real digits fuse outer-to-inner, i.e. by digit index — a dim's outer
    // digit can sit at a later slot than its inner one when the two target
    // different canonical dims, so slot order is not the consumption order.
    // Trailing unit slots (pseudo digits, leftover unit canonical dims) fuse
    // innermost — their value is always zero, so placement is free; dim 0
    // hosts the leftovers.
    for (size_t j = 0; j < dims_[p].digits.size(); ++j) {
      for (size_t s = 0; s < slots.size(); ++s) {
        if (slots[s].phys == static_cast<int>(p) &&
            slots[s].digit == static_cast<int>(j)) {
          perm.push_back(static_cast<int>(s));
          ++group[p];
        }
      }
    }
    for (size_t s = 0; s < slots.size(); ++s) {
      bool pseudo_here = slots[s].phys == static_cast<int>(p) && slots[s].digit == -1;
      bool leftover_here = p == 0 && slots[s].digit == -2;
      if (pseudo_here || leftover_here) {
        perm.push_back(static_cast<int>(s));
        ++group[p];
      }
    }
  }
  bool identity = true;
  for (size_t i = 0; i < perm.size(); ++i) {
    identity = identity && perm[i] == static_cast<int>(i);
  }
  if (!identity) {
    seq.Append(Primitive::Reorder(perm));
  }
  // Fuse phase.
  int pos = 0;
  for (size_t p = 0; p < dims_.size(); ++p) {
    if (group[p] >= 2) {
      seq.Append(Primitive::Fuse(pos, group[p]));
    }
    ++pos;
  }
  return seq;
}

StatusOr<LayoutRelation> LayoutRelation::Inverse() const {
  if (!IsBijective()) {
    return Status::InvalidArgument("Inverse: relation is not bijective");
  }
  LayoutRelation inv;
  inv.canonical_shape_ = physical_shape_;
  inv.physical_shape_ = canonical_shape_;
  inv.offsets_.assign(physical_shape_.size(), 0);
  int crank = static_cast<int>(canonical_shape_.size());
  inv.dims_.resize(crank);
  for (int c = 0; c < crank; ++c) {
    inv.dims_[c].extent = canonical_shape_[c];
  }
  // A digit at radix position `pos` of old physical dim p becomes, in the
  // inverse, a digit extracting floor(phys[p] / pos) — the transpose.
  struct Placed {
    Digit digit;
    int64_t old_stride;
  };
  std::vector<std::vector<Placed>> per_dim(crank);
  for (size_t p = 0; p < dims_.size(); ++p) {
    int64_t pos = 1;
    for (int j = static_cast<int>(dims_[p].digits.size()) - 1; j >= 0; --j) {
      const Digit& g = dims_[p].digits[j];
      per_dim[g.target].push_back({{static_cast<int>(p), g.extent, pos}, g.stride});
      pos *= g.extent;
    }
  }
  for (int c = 0; c < crank; ++c) {
    std::sort(per_dim[c].begin(), per_dim[c].end(),
              [](const Placed& a, const Placed& b) { return a.old_stride > b.old_stride; });
    for (const Placed& pl : per_dim[c]) {
      inv.dims_[c].digits.push_back(pl.digit);
    }
    NormalizeDim(inv.dims_[c]);
  }
  auto steps = inv.SynthesizeSteps();
  ALT_RETURN_IF_ERROR(steps.status());
  inv.steps_ = *std::move(steps);
  return inv;
}

StatusOr<LayoutRelation> LayoutRelation::Compose(const LayoutRelation& second,
                                                 const LayoutRelation& first) {
  if (second.canonical_shape() != first.physical_shape()) {
    return Status::InvalidArgument("Compose: shape mismatch between relations");
  }
  // Relation construction is itself a fold of per-primitive compositions, so
  // composing is replaying both step lists over the first canonical shape —
  // exact wherever the digit rules align, opaque otherwise.
  LayoutSeq combined = first.steps();
  for (const Primitive& p : second.steps().primitives()) {
    combined.Append(p);
  }
  return FromSeq(combined, first.canonical_shape());
}

uint64_t LayoutRelation::Fingerprint() const {
  std::ostringstream oss;
  if (opaque_) {
    oss << "O|c=" << Join(canonical_shape_, ",") << "|" << steps_.ToString();
    return Fnv1a64(oss.str(), kFingerprintBasis);
  }
  oss << "R|c=" << Join(canonical_shape_, ",") << "|";
  for (const PhysDim& d : dims_) {
    oss << "d" << d.extent << ":";
    for (const Digit& g : d.digits) {
      oss << "(" << g.target << "," << g.extent << "," << g.stride << ")";
    }
    oss << "|";
  }
  oss << "o=" << Join(offsets_, ",");
  if (expands_data_) {
    oss << "|x";
  }
  return Fnv1a64(oss.str(), kFingerprintBasis);
}

std::vector<int64_t> LayoutRelation::DigitExtents(int dim) const {
  std::vector<Digit> digits;
  for (const PhysDim& d : dims_) {
    for (const Digit& g : d.digits) {
      if (g.target == dim) {
        digits.push_back(g);
      }
    }
  }
  std::sort(digits.begin(), digits.end(),
            [](const Digit& a, const Digit& b) { return a.stride < b.stride; });
  std::vector<int64_t> out;
  for (const Digit& g : digits) {
    out.push_back(g.extent);
  }
  return out;
}

std::vector<double> LayoutRelation::CanonicalState() const {
  if (!opaque_ && IsBijective()) {
    auto steps = SynthesizeSteps();
    if (steps.ok()) {
      return StepState(*steps);
    }
  }
  if (!opaque_) {
    // Flat numeric encoding of the normalized form: identical for any two
    // sequences denoting this relation.
    std::vector<double> s;
    for (const PhysDim& d : dims_) {
      s.push_back(static_cast<double>(d.extent));
      s.push_back(static_cast<double>(d.digits.size()));
      for (const Digit& g : d.digits) {
        s.push_back(g.target);
        s.push_back(static_cast<double>(g.extent));
        s.push_back(static_cast<double>(g.stride));
      }
    }
    s.push_back(-1.0);
    for (int64_t off : offsets_) {
      s.push_back(static_cast<double>(off));
    }
    return s;
  }
  return StepState(steps_);
}

std::string LayoutRelation::ToString() const {
  std::ostringstream oss;
  oss << "(" << Join(canonical_shape_, "x") << ") -> (" << Join(physical_shape_, "x")
      << ")";
  if (opaque_) {
    oss << " opaque{" << steps_.ToString() << "}";
    return oss.str();
  }
  for (const PhysDim& d : dims_) {
    oss << " [";
    for (size_t j = 0; j < d.digits.size(); ++j) {
      const Digit& g = d.digits[j];
      oss << (j > 0 ? " " : "") << "c" << g.target << "/" << g.stride << "%" << g.extent;
    }
    oss << "]";
  }
  for (size_t c = 0; c < offsets_.size(); ++c) {
    if (offsets_[c] != 0) {
      oss << " off(c" << c << ")=" << offsets_[c];
    }
  }
  return oss.str();
}

// ---------------------------------------------------------------------------
// Access-map emission: a walk over the originating steps. The digit form
// cannot stand in for it — relations it cannot express (fuse then a
// misaligned split, unfold or pad, as in the §4.1.1 spatial-packing
// example) still lower here. Every emitted expression feeds the programs'
// kernel sources, and so their kernel-cache keys, and their perf estimates,
// so a change to these walks is a change to every tuned program.
// ---------------------------------------------------------------------------

StatusOr<std::vector<Expr>> LayoutRelation::MapRead(
    const std::vector<Expr>& indices,
    const std::vector<std::optional<WindowPattern>>& patterns) const {
  std::vector<int64_t> shape = canonical_shape_;
  std::vector<Expr> idx = indices;
  std::vector<std::optional<WindowPattern>> pat = patterns;
  pat.resize(idx.size());

  for (const auto& p : steps_.primitives()) {
    int rank = static_cast<int>(shape.size());
    switch (p.kind) {
      case PrimitiveKind::kSplit: {
        Expr e = idx[p.dim];
        std::vector<Expr> parts;
        int m = static_cast<int>(p.factors.size());
        int64_t inner = 1;
        for (int l = 1; l < m; ++l) {
          inner *= p.factors[l];
        }
        for (int l = 0; l < m; ++l) {
          Expr part = ir::FloorDiv(e, inner);
          if (l > 0) {
            part = ir::Mod(part, p.factors[l]);
          }
          parts.push_back(part);
          if (l + 1 < m) {
            inner /= p.factors[l + 1];
          }
        }
        idx.erase(idx.begin() + p.dim);
        idx.insert(idx.begin() + p.dim, parts.begin(), parts.end());
        pat.erase(pat.begin() + p.dim);
        pat.insert(pat.begin() + p.dim, static_cast<size_t>(m), std::nullopt);
        break;
      }
      case PrimitiveKind::kReorder: {
        std::vector<Expr> out(rank);
        std::vector<std::optional<WindowPattern>> pout(rank);
        for (int d = 0; d < rank; ++d) {
          out[d] = idx[p.perm[d]];
          pout[d] = pat[p.perm[d]];
        }
        idx = std::move(out);
        pat = std::move(pout);
        break;
      }
      case PrimitiveKind::kFuse: {
        Expr fused = idx[p.dim];
        for (int i = 1; i < p.num_dims; ++i) {
          fused = ir::Add(ir::Mul(fused, shape[p.dim + i]), idx[p.dim + i]);
        }
        idx.erase(idx.begin() + p.dim, idx.begin() + p.dim + p.num_dims);
        idx.insert(idx.begin() + p.dim, fused);
        pat.erase(pat.begin() + p.dim, pat.begin() + p.dim + p.num_dims);
        pat.insert(pat.begin() + p.dim, std::nullopt);
        break;
      }
      case PrimitiveKind::kUnfold: {
        int64_t extent = shape[p.dim];
        int64_t tiles = detail::UnfoldTiles(extent, p.tile_size, p.stride);
        Expr tile;
        Expr offset;
        const auto& wp = pat[p.dim];
        bool window_form = false;
        if (wp.has_value() && (p.tile_size - wp->window_size) % wp->stride == 0) {
          // Eq. (1): windows per tile; valid when tiles advance by whole
          // windows so a window never straddles tiles.
          int64_t wpt = (p.tile_size - wp->window_size) / wp->stride + 1;
          if (p.stride == wp->stride * wpt) {
            tile = ir::FloorDiv(wp->base, wpt);
            offset = ir::Add(ir::Mul(ir::Mod(wp->base, wpt), wp->stride), wp->window);
            window_form = true;
          }
        }
        if (!window_form) {
          // Canonical representative: the copy in the last tile containing
          // the element with the smallest tile index.
          Expr e = idx[p.dim];
          tile = ir::Min(ir::FloorDiv(e, p.stride), ir::Const(tiles - 1));
          offset = ir::Sub(e, ir::Mul(tile, p.stride));
        }
        idx[p.dim] = tile;
        idx.insert(idx.begin() + p.dim + 1, offset);
        pat[p.dim] = std::nullopt;
        pat.insert(pat.begin() + p.dim + 1, std::nullopt);
        break;
      }
      case PrimitiveKind::kPad: {
        idx[p.dim] = ir::Add(idx[p.dim], p.pad_before);
        if (pat[p.dim].has_value()) {
          // Shifting the base keeps the window decomposition valid.
          auto wp = *pat[p.dim];
          if (p.pad_before % wp.stride == 0) {
            wp.base = ir::Add(wp.base, p.pad_before / wp.stride);
            pat[p.dim] = wp;
          } else {
            pat[p.dim] = std::nullopt;
          }
        }
        break;
      }
      case PrimitiveKind::kStoreAt: {
        // Reads of the destination tensor are unchanged; the attached source
        // occupies the extra trailing slice and is rewritten by the lowering.
        break;
      }
    }
    ALT_RETURN_IF_ERROR(detail::ApplyPrimitiveToShape(p, shape));
  }
  return idx;
}

StatusOr<std::vector<Expr>> LayoutRelation::MapInverse(
    const std::vector<Expr>& physical_indices) const {
  // Record the shape before each primitive.
  std::vector<std::vector<int64_t>> shapes;
  std::vector<int64_t> shape = canonical_shape_;
  for (const auto& p : steps_.primitives()) {
    shapes.push_back(shape);
    ALT_RETURN_IF_ERROR(detail::ApplyPrimitiveToShape(p, shape));
  }

  std::vector<Expr> idx = physical_indices;
  for (int pi = static_cast<int>(steps_.size()) - 1; pi >= 0; --pi) {
    const Primitive& p = steps_.primitives()[pi];
    const std::vector<int64_t>& before = shapes[pi];
    switch (p.kind) {
      case PrimitiveKind::kSplit: {
        int m = static_cast<int>(p.factors.size());
        Expr combined = idx[p.dim];
        for (int l = 1; l < m; ++l) {
          combined = ir::Add(ir::Mul(combined, p.factors[l]), idx[p.dim + l]);
        }
        idx.erase(idx.begin() + p.dim, idx.begin() + p.dim + m);
        idx.insert(idx.begin() + p.dim, combined);
        break;
      }
      case PrimitiveKind::kReorder: {
        int rank = static_cast<int>(p.perm.size());
        std::vector<Expr> out(rank);
        for (int d = 0; d < rank; ++d) {
          out[p.perm[d]] = idx[d];
        }
        idx = std::move(out);
        break;
      }
      case PrimitiveKind::kFuse: {
        Expr fused = idx[p.dim];
        std::vector<Expr> parts(p.num_dims);
        int64_t inner = 1;
        for (int i = 1; i < p.num_dims; ++i) {
          inner *= before[p.dim + i];
        }
        for (int i = 0; i < p.num_dims; ++i) {
          Expr part = ir::FloorDiv(fused, inner);
          if (i > 0) {
            part = ir::Mod(part, before[p.dim + i]);
          }
          parts[i] = part;
          if (i + 1 < p.num_dims) {
            inner /= before[p.dim + i + 1];
          }
        }
        idx.erase(idx.begin() + p.dim);
        idx.insert(idx.begin() + p.dim, parts.begin(), parts.end());
        break;
      }
      case PrimitiveKind::kUnfold: {
        Expr original = ir::Add(ir::Mul(idx[p.dim], p.stride), idx[p.dim + 1]);
        idx.erase(idx.begin() + p.dim, idx.begin() + p.dim + 2);
        idx.insert(idx.begin() + p.dim, original);
        break;
      }
      case PrimitiveKind::kPad: {
        idx[p.dim] = ir::Sub(idx[p.dim], p.pad_before);
        break;
      }
      case PrimitiveKind::kStoreAt:
        break;
    }
  }
  return idx;
}

}  // namespace alt::layout
