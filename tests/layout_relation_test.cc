// Tests for the first-class layout relation (layout/relation.h).
//
// The centerpiece is a randomized differential corpus: random shapes crossed
// with random primitive sequences (including unfold+pad chains), checked
// against independent ground truth —
//   1. evaluating the emitted MapRead expressions pointwise matches a
//      per-primitive numeric index simulator reimplemented here from the
//      paper's §4.1 semantics (no shared code with the production mapping),
//      and the shape transform and data-expansion flag match the steps;
//   2. bijective relations round-trip: MapInverse ∘ MapRead == identity and
//      Compose(Inverse(R), R) == Identity by fingerprint.
// Plus: fingerprint equality across equivalent spellings, divisibility
// queries, the relation-derived RL state, and the exactness of
// ir::AffineAnalyzer::DecomposeClamped on the unfold clamp.

#include <algorithm>
#include <random>
#include <unordered_map>

#include <gtest/gtest.h>

#include "src/ir/affine.h"
#include "src/ir/expr.h"
#include "src/layout/primitive.h"
#include "src/layout/relation.h"

namespace alt::layout {
namespace {

using ir::Const;
using ir::Eval;
using ir::Expr;
using ir::MakeVar;

std::vector<Expr> MakeVars(int n, std::vector<int>* ids) {
  std::vector<Expr> vars;
  for (int i = 0; i < n; ++i) {
    Expr v = MakeVar("v" + std::to_string(i));
    ids->push_back(v->var_id);
    vars.push_back(v);
  }
  return vars;
}

// ---------------------------------------------------------------------------
// Independent numeric simulator of the §4.1 index semantics, primitive by
// primitive. Intentionally reimplemented (divide/mod arithmetic on concrete
// integers) so a bug in the production expression emission cannot hide.
// ---------------------------------------------------------------------------

int64_t SimUnfoldTiles(int64_t extent, int64_t tile, int64_t stride) {
  int64_t n = (extent - tile + stride - 1) / stride + 1;
  return n < 1 ? 1 : n;
}

std::vector<int64_t> SimMapIndex(const LayoutSeq& seq, std::vector<int64_t> shape,
                                 std::vector<int64_t> idx) {
  for (const Primitive& p : seq.primitives()) {
    switch (p.kind) {
      case PrimitiveKind::kSplit: {
        int64_t v = idx[p.dim];
        std::vector<int64_t> digits(p.factors.size());
        for (int i = static_cast<int>(p.factors.size()) - 1; i >= 0; --i) {
          digits[i] = v % p.factors[i];
          v /= p.factors[i];
        }
        idx.erase(idx.begin() + p.dim);
        idx.insert(idx.begin() + p.dim, digits.begin(), digits.end());
        shape.erase(shape.begin() + p.dim);
        shape.insert(shape.begin() + p.dim, p.factors.begin(), p.factors.end());
        break;
      }
      case PrimitiveKind::kReorder: {
        std::vector<int64_t> ni(idx.size()), ns(shape.size());
        for (size_t d = 0; d < idx.size(); ++d) {
          ni[d] = idx[p.perm[d]];
          ns[d] = shape[p.perm[d]];
        }
        idx = std::move(ni);
        shape = std::move(ns);
        break;
      }
      case PrimitiveKind::kFuse: {
        int64_t v = 0, ext = 1;
        for (int i = 0; i < p.num_dims; ++i) {
          v = v * shape[p.dim + i] + idx[p.dim + i];
          ext *= shape[p.dim + i];
        }
        idx.erase(idx.begin() + p.dim, idx.begin() + p.dim + p.num_dims);
        idx.insert(idx.begin() + p.dim, v);
        shape.erase(shape.begin() + p.dim, shape.begin() + p.dim + p.num_dims);
        shape.insert(shape.begin() + p.dim, ext);
        break;
      }
      case PrimitiveKind::kUnfold: {
        // Canonical representative of a duplicated element: the latest tile
        // containing it, clamped to the last tile.
        int64_t tiles = SimUnfoldTiles(shape[p.dim], p.tile_size, p.stride);
        int64_t v = idx[p.dim];
        int64_t tile = std::min(v / p.stride, tiles - 1);
        idx[p.dim] = tile;
        idx.insert(idx.begin() + p.dim + 1, v - tile * p.stride);
        shape[p.dim] = tiles;
        shape.insert(shape.begin() + p.dim + 1, p.tile_size);
        break;
      }
      case PrimitiveKind::kPad: {
        idx[p.dim] += p.pad_before;
        shape[p.dim] += p.pad_before + p.pad_after;
        break;
      }
      case PrimitiveKind::kStoreAt: {
        ADD_FAILURE() << "store_at not supported by the numeric simulator";
        break;
      }
    }
  }
  return idx;
}

// ---------------------------------------------------------------------------
// Randomized corpus generation.
// ---------------------------------------------------------------------------

struct CorpusCase {
  std::vector<int64_t> shape;
  LayoutSeq seq;
};

std::vector<int64_t> RandomFactorization(int64_t n, int parts, std::mt19937_64& rng) {
  std::vector<int64_t> factors(parts, 1);
  for (int i = 0; i < parts - 1; ++i) {
    std::vector<int64_t> divs;
    for (int64_t d = 1; d <= n; ++d) {
      if (n % d == 0) {
        divs.push_back(d);
      }
    }
    int64_t f = divs[rng() % divs.size()];
    factors[i] = f;
    n /= f;
  }
  factors[parts - 1] = n;
  return factors;
}

CorpusCase RandomCase(std::mt19937_64& rng, bool allow_advanced) {
  CorpusCase c;
  int rank = 1 + static_cast<int>(rng() % 3);
  const int64_t extents[] = {2, 3, 4, 6, 8, 12};
  for (int d = 0; d < rank; ++d) {
    c.shape.push_back(extents[rng() % 6]);
  }
  std::vector<int64_t> cur = c.shape;
  int steps = 1 + static_cast<int>(rng() % 4);
  for (int s = 0; s < steps; ++s) {
    int kind = static_cast<int>(rng() % (allow_advanced ? 5 : 3));
    int r = static_cast<int>(cur.size());
    Primitive p = Primitive::Reorder({});
    switch (kind) {
      case 0: {  // split a composite dim
        int dim = static_cast<int>(rng() % r);
        if (cur[dim] < 4) {
          continue;
        }
        int parts = 2 + static_cast<int>(rng() % 2);
        p = Primitive::Split(dim, RandomFactorization(cur[dim], parts, rng));
        break;
      }
      case 1: {  // random permutation
        std::vector<int> perm(r);
        for (int i = 0; i < r; ++i) {
          perm[i] = i;
        }
        std::shuffle(perm.begin(), perm.end(), rng);
        p = Primitive::Reorder(perm);
        break;
      }
      case 2: {  // fuse an adjacent range
        if (r < 2) {
          continue;
        }
        int n = 2 + static_cast<int>(rng() % std::min(r - 1, 2));
        int dim = static_cast<int>(rng() % (r - n + 1));
        p = Primitive::Fuse(dim, n);
        break;
      }
      case 3: {  // unfold (possibly overlapped)
        int dim = static_cast<int>(rng() % r);
        if (cur[dim] < 3) {
          continue;
        }
        int64_t tile = 2 + static_cast<int64_t>(rng() % std::min<int64_t>(cur[dim] - 1, 4));
        int64_t stride = 1 + static_cast<int64_t>(rng() % tile);
        p = Primitive::Unfold(dim, tile, stride);
        break;
      }
      default: {  // pad
        int dim = static_cast<int>(rng() % r);
        p = Primitive::Pad(dim, static_cast<int64_t>(rng() % 3),
                           static_cast<int64_t>(rng() % 3));
        break;
      }
    }
    std::vector<int64_t> next = cur;
    LayoutSeq one;
    one.Append(p);
    if (!one.ApplyToShape(next).ok()) {
      continue;
    }
    c.seq.Append(p);
    cur = std::move(next);
  }
  return c;
}

// Enumerates up to `cap` points of the canonical domain (all of it when it is
// small enough), invoking fn(point).
template <typename Fn>
void ForSampledPoints(const std::vector<int64_t>& shape, int cap, std::mt19937_64& rng,
                      Fn&& fn) {
  int64_t total = 1;
  for (int64_t d : shape) {
    total *= d;
  }
  if (total <= cap) {
    std::vector<int64_t> point(shape.size(), 0);
    for (;;) {
      fn(point);
      int d = static_cast<int>(point.size()) - 1;
      while (d >= 0 && ++point[d] == shape[d]) {
        point[d--] = 0;
      }
      if (d < 0) {
        return;
      }
    }
  }
  for (int i = 0; i < cap; ++i) {
    std::vector<int64_t> point(shape.size());
    for (size_t d = 0; d < shape.size(); ++d) {
      point[d] = static_cast<int64_t>(rng() % shape[d]);
    }
    fn(point);
  }
}

// ---------------------------------------------------------------------------
// The differential corpus.
// ---------------------------------------------------------------------------

TEST(RelationDifferentialTest, MapReadMatchesNumericSimulator) {
  std::mt19937_64 rng(20230415);
  for (int iter = 0; iter < 200; ++iter) {
    CorpusCase c = RandomCase(rng, /*allow_advanced=*/true);
    auto rel = LayoutRelation::FromSeq(c.seq, c.shape);
    ASSERT_TRUE(rel.ok()) << c.seq.ToString();

    std::vector<int> ids;
    auto vars = MakeVars(static_cast<int>(c.shape.size()), &ids);
    auto mapped = rel->MapRead(vars);
    ASSERT_TRUE(mapped.ok()) << c.seq.ToString();

    // Shape and data-expansion agreement with the steps.
    std::vector<int64_t> seq_shape = c.shape;
    ASSERT_TRUE(c.seq.ApplyToShape(seq_shape).ok());
    EXPECT_EQ(rel->ApplyToShape(), seq_shape) << c.seq.ToString();
    bool expands = false;
    for (const Primitive& p : c.seq.primitives()) {
      expands = expands || p.IsNontrivialAdvanced();
    }
    EXPECT_EQ(rel->ExpandsData(), expands) << c.seq.ToString();

    // Pointwise differential against the numeric simulator.
    const auto& phys_shape = rel->ApplyToShape();
    ForSampledPoints(c.shape, 128, rng, [&](const std::vector<int64_t>& point) {
      std::unordered_map<int, int64_t> env;
      for (size_t d = 0; d < point.size(); ++d) {
        env[ids[d]] = point[d];
      }
      std::vector<int64_t> expect = SimMapIndex(c.seq, c.shape, point);
      ASSERT_EQ(expect.size(), mapped->size());
      for (size_t d = 0; d < mapped->size(); ++d) {
        int64_t got = Eval((*mapped)[d], env);
        EXPECT_EQ(got, expect[d]) << c.seq.ToString() << " dim " << d;
        EXPECT_GE(got, 0) << c.seq.ToString();
        EXPECT_LT(got, phys_shape[d]) << c.seq.ToString();
      }
    });
  }
}

TEST(RelationDifferentialTest, BijectiveRelationsRoundTrip) {
  std::mt19937_64 rng(777);
  int bijective_seen = 0;
  for (int iter = 0; iter < 200; ++iter) {
    CorpusCase c = RandomCase(rng, /*allow_advanced=*/true);
    auto rel = LayoutRelation::FromSeq(c.seq, c.shape);
    ASSERT_TRUE(rel.ok());
    if (!rel->IsBijective()) {
      continue;
    }
    ++bijective_seen;

    // MapInverse ∘ MapRead == identity.
    std::vector<int> ids;
    auto vars = MakeVars(static_cast<int>(c.shape.size()), &ids);
    auto fwd = rel->MapRead(vars);
    ASSERT_TRUE(fwd.ok()) << c.seq.ToString();
    auto back = rel->MapInverse(*fwd);
    ASSERT_TRUE(back.ok()) << c.seq.ToString();
    ASSERT_EQ(back->size(), c.shape.size());
    ForSampledPoints(c.shape, 64, rng, [&](const std::vector<int64_t>& point) {
      std::unordered_map<int, int64_t> env;
      for (size_t d = 0; d < point.size(); ++d) {
        env[ids[d]] = point[d];
      }
      for (size_t d = 0; d < back->size(); ++d) {
        EXPECT_EQ(Eval((*back)[d], env), point[d]) << c.seq.ToString() << " dim " << d;
      }
    });

    // Compose(Inverse(R), R) == Identity, by flag and by fingerprint.
    auto inv = rel->Inverse();
    ASSERT_TRUE(inv.ok()) << c.seq.ToString();
    auto round = LayoutRelation::Compose(*inv, *rel);
    ASSERT_TRUE(round.ok()) << c.seq.ToString();
    EXPECT_TRUE(round->IsIdentity()) << c.seq.ToString() << " -> " << round->ToString();
    EXPECT_EQ(round->Fingerprint(), LayoutRelation::Identity(c.shape).Fingerprint())
        << c.seq.ToString();
  }
  // The corpus must actually exercise the property.
  EXPECT_GT(bijective_seen, 20);
}

TEST(RelationDifferentialTest, UnfoldPadWindowChainsMatchClosedForm) {
  // Sliding-window access x = V*i + r through pad-then-unfold chains: the
  // window form (Eq. (1)) must place every access inside one tile and
  // reconstruct the padded coordinate exactly.
  struct Cfg {
    int64_t V, M, ht, pad;
  };
  for (const Cfg& cfg : std::vector<Cfg>{{1, 3, 4, 0}, {1, 3, 4, 1}, {2, 3, 2, 0},
                                         {2, 5, 3, 2}, {3, 4, 2, 3}}) {
    const int64_t out_extent = 10;
    const int64_t D = cfg.V * (out_extent - 1) + cfg.M;
    const int64_t B = cfg.V * (cfg.ht - 1) + cfg.M;
    const int64_t S = cfg.V * cfg.ht;
    std::vector<int64_t> shape{D};
    LayoutSeq seq;
    if (cfg.pad > 0) {
      seq.Append(Primitive::Pad(0, cfg.pad, cfg.pad));
    }
    seq.Append(Primitive::Unfold(0, B, S));
    auto rel = LayoutRelation::FromSeq(seq, shape);
    ASSERT_TRUE(rel.ok());

    Expr i = MakeVar("i");
    Expr r = MakeVar("r");
    Expr x = ir::Add(ir::Mul(i, cfg.V), r);
    WindowPattern wp{i, cfg.V, r, cfg.M};
    auto mapped = rel->MapRead({x}, {wp});
    ASSERT_TRUE(mapped.ok());

    for (int64_t vi = 0; vi * cfg.V + cfg.M <= D + 2 * cfg.pad; ++vi) {
      for (int64_t vr = 0; vr < cfg.M; ++vr) {
        std::unordered_map<int, int64_t> env{{i->var_id, vi}, {r->var_id, vr}};
        int64_t tile = Eval((*mapped)[0], env);
        int64_t off = Eval((*mapped)[1], env);
        EXPECT_EQ(tile * S + off, cfg.V * vi + vr + cfg.pad)
            << "V=" << cfg.V << " M=" << cfg.M << " ht=" << cfg.ht << " pad=" << cfg.pad;
        EXPECT_GE(off, 0);
        EXPECT_LT(off, B);  // the window never straddles tiles
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Canonical form: equivalent spellings coincide.
// ---------------------------------------------------------------------------

TEST(RelationFingerprintTest, EquivalentSpellingsCoincide) {
  // fuse ∘ split cancels.
  {
    LayoutSeq seq;
    seq.Append(Primitive::Fuse(0, 2));
    seq.Append(Primitive::Split(0, {4, 6}));
    auto rel = LayoutRelation::FromSeq(seq, {4, 6});
    ASSERT_TRUE(rel.ok());
    EXPECT_TRUE(rel->IsIdentity());
    EXPECT_EQ(rel->Fingerprint(), LayoutRelation::Identity({4, 6}).Fingerprint());
  }
  // Nested splits == one flat split.
  {
    LayoutSeq nested;
    nested.Append(Primitive::Split(0, {4, 6}));
    nested.Append(Primitive::Split(1, {2, 3}));
    LayoutSeq flat;
    flat.Append(Primitive::Split(0, {4, 2, 3}));
    auto rn = LayoutRelation::FromSeq(nested, {24});
    auto rf = LayoutRelation::FromSeq(flat, {24});
    ASSERT_TRUE(rn.ok() && rf.ok());
    EXPECT_EQ(rn->Fingerprint(), rf->Fingerprint());
  }
  // Two spellings of blocked NCHWc.
  {
    LayoutSeq a;
    a.Append(Primitive::Split(1, {4, 8}));
    a.Append(Primitive::Reorder({0, 1, 3, 4, 2}));
    LayoutSeq b;
    b.Append(Primitive::Split(1, {4, 2, 4}));
    b.Append(Primitive::Fuse(2, 2));
    b.Append(Primitive::Reorder({0, 1, 3, 4, 2}));
    auto ra = LayoutRelation::FromSeq(a, {1, 32, 14, 14});
    auto rb = LayoutRelation::FromSeq(b, {1, 32, 14, 14});
    ASSERT_TRUE(ra.ok() && rb.ok());
    EXPECT_EQ(ra->Fingerprint(), rb->Fingerprint());
    EXPECT_EQ(ra->CanonicalState(), rb->CanonicalState());
  }
  // Non-overlapping unfold that exactly tiles == split.
  {
    LayoutSeq unfold;
    unfold.Append(Primitive::Unfold(0, 4, 4));
    LayoutSeq split;
    split.Append(Primitive::Split(0, {3, 4}));
    auto ru = LayoutRelation::FromSeq(unfold, {12});
    auto rs = LayoutRelation::FromSeq(split, {12});
    ASSERT_TRUE(ru.ok() && rs.ok());
    EXPECT_EQ(ru->Fingerprint(), rs->Fingerprint());
  }
  // Two pads == one combined pad.
  {
    LayoutSeq two;
    two.Append(Primitive::Pad(0, 1, 0));
    two.Append(Primitive::Pad(0, 0, 1));
    LayoutSeq one;
    one.Append(Primitive::Pad(0, 1, 1));
    auto rt = LayoutRelation::FromSeq(two, {5});
    auto ro = LayoutRelation::FromSeq(one, {5});
    ASSERT_TRUE(rt.ok() && ro.ok());
    EXPECT_EQ(rt->Fingerprint(), ro->Fingerprint());
  }
}

TEST(RelationFingerprintTest, DistinctLayoutsDiffer) {
  LayoutSeq a;
  a.Append(Primitive::Split(0, {4, 6}));
  LayoutSeq b;
  b.Append(Primitive::Split(0, {6, 4}));
  auto ra = LayoutRelation::FromSeq(a, {24});
  auto rb = LayoutRelation::FromSeq(b, {24});
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_NE(ra->Fingerprint(), rb->Fingerprint());
  // Shape is part of the identity: the same steps over another shape differ.
  auto rc = LayoutRelation::FromSeq(a, {24, 2});
  ASSERT_TRUE(rc.ok());
  EXPECT_NE(ra->Fingerprint(), rc->Fingerprint());
  // And a layout is never the identity fingerprint unless it is the identity.
  EXPECT_NE(ra->Fingerprint(), LayoutRelation::Identity({24}).Fingerprint());
}

// ---------------------------------------------------------------------------
// Queries.
// ---------------------------------------------------------------------------

TEST(RelationQueryTest, BlockedLayoutStridesAndDigits) {
  // NOHW {1,32,14,14} -> N O/8 H W 8: canonical dim 1 (O) is split 4x8 with
  // the 8-block innermost and physically unit-stride.
  LayoutSeq seq;
  seq.Append(Primitive::Split(1, {4, 8}));
  seq.Append(Primitive::Reorder({0, 1, 3, 4, 2}));
  auto rel = LayoutRelation::FromSeq(seq, {1, 32, 14, 14});
  ASSERT_TRUE(rel.ok());
  EXPECT_TRUE(rel->exact());
  EXPECT_TRUE(rel->IsBijective());
  EXPECT_EQ(rel->DigitExtents(1), (std::vector<int64_t>{8, 4}));  // innermost first
}

TEST(RelationQueryTest, IdentityDigitsAreWholeDims) {
  auto rel = LayoutRelation::Identity({4, 6});
  EXPECT_TRUE(rel.IsIdentity());
  EXPECT_EQ(rel.DigitExtents(0), (std::vector<int64_t>{4}));
  EXPECT_EQ(rel.DigitExtents(1), (std::vector<int64_t>{6}));
}

TEST(RelationQueryTest, OverlappedUnfoldExpandsData) {
  LayoutSeq seq;
  seq.Append(Primitive::Unfold(0, 5, 3));
  auto rel = LayoutRelation::FromSeq(seq, {11});
  ASSERT_TRUE(rel.ok());
  EXPECT_TRUE(rel->exact());
  EXPECT_TRUE(rel->ExpandsData());
  EXPECT_FALSE(rel->IsBijective());
  // Offset digit (5, stride 1) inside tile digit (3 tiles, stride S = 3).
  EXPECT_EQ(rel->DigitExtents(0), (std::vector<int64_t>{5, 3}));
}

// ---------------------------------------------------------------------------
// Relation-derived RL state.
// ---------------------------------------------------------------------------

TEST(RelationStateTest, CanonicalSpellingEncodesItsOwnSteps) {
  // For a sequence already in canonical spelling, the relation state is the
  // per-primitive encoding of that same spelling: kind, dim, factors.
  LayoutSeq seq;
  seq.Append(Primitive::Split(0, {4, 6}));
  auto rel = LayoutRelation::FromSeq(seq, {24});
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->CanonicalState(), (std::vector<double>{0, 0, 4, 6}));
}

TEST(RelationStateTest, OpaqueRelationsEncodeTheirSteps) {
  // Per-primitive encodings (kind, dim, then the kind's parameters)
  // concatenated in step order, one step of every kind. The encoding is the
  // PPO agent's input, so the values are pinned.
  LayoutSeq seq;
  seq.Append(Primitive::Split(1, {4, 8}));                // {64, 4, 8}
  seq.Append(Primitive::Reorder({0, 2, 1}));              // {64, 8, 4}
  seq.Append(Primitive::Fuse(1, 2));                      // {64, 32}
  seq.Append(Primitive::Unfold(0, 6, 4));                 // {17, 6, 32}
  seq.Append(Primitive::Pad(2, 1, 1));                    // {17, 6, 34}
  seq.Append(Primitive::StoreAt(/*src_tensor=*/7, /*dim=*/0));
  auto rel = LayoutRelation::FromSeq(seq, {64, 32});
  ASSERT_TRUE(rel.ok());
  EXPECT_FALSE(rel->exact());
  EXPECT_EQ(rel->ApplyToShape(), (std::vector<int64_t>{17, 6, 34}));
  EXPECT_EQ(rel->CanonicalState(), (std::vector<double>{
                                       0, 1, 4, 8,     // split: factors
                                       1, 0, 0, 2, 1,  // reorder: perm
                                       2, 1, 2,        // fuse: num_dims
                                       3, 0, 6, 4,     // unfold: tile, stride
                                       4, 2, 1, 1,     // pad: before, after
                                       5, 0, 7,        // store_at: source tensor
                                   }));
}

TEST(RelationStateTest, EquivalentSpellingsFeedIdenticalStates) {
  std::mt19937_64 rng(99);
  int checked = 0;
  for (int iter = 0; iter < 100 && checked < 20; ++iter) {
    CorpusCase c = RandomCase(rng, /*allow_advanced=*/false);
    auto rel = LayoutRelation::FromSeq(c.seq, c.shape);
    ASSERT_TRUE(rel.ok());
    if (!rel->IsBijective()) {
      continue;
    }
    // Re-spell: append a split+fuse no-op on some dim, state must not change.
    std::vector<int64_t> phys = rel->ApplyToShape();
    int dim = -1;
    for (size_t d = 0; d < phys.size(); ++d) {
      if (phys[d] >= 4 && phys[d] % 2 == 0) {
        dim = static_cast<int>(d);
      }
    }
    if (dim < 0) {
      continue;
    }
    LayoutSeq respelled = c.seq;
    respelled.Append(Primitive::Split(dim, {phys[dim] / 2, 2}));
    respelled.Append(Primitive::Fuse(dim, 2));
    auto rel2 = LayoutRelation::FromSeq(respelled, c.shape);
    ASSERT_TRUE(rel2.ok());
    EXPECT_EQ(rel->Fingerprint(), rel2->Fingerprint()) << c.seq.ToString();
    EXPECT_EQ(rel->CanonicalState(), rel2->CanonicalState()) << c.seq.ToString();
    ++checked;
  }
  EXPECT_GE(checked, 10);
}

// ---------------------------------------------------------------------------
// The unfold clamp split (ir::AffineAnalyzer::DecomposeClamped).
// ---------------------------------------------------------------------------

TEST(DecomposeClampedTest, SplitsSingleClampExactly) {
  Expr x = MakeVar("x");
  Expr y = MakeVar("y");
  ir::AffineAnalyzer az({{x->var_id, 4}, {y->var_id, 4}});
  // e = Min(2x + 1, 5) * 4 + y: affine except for the clamp, which is range-
  // indefinite over x in [0,4) (2x+1 spans [1,7] around the bound 5).
  Expr guard = ir::Add(ir::Mul(x, 2), Const(1));
  Expr e = ir::Add(ir::Mul(ir::Min(guard, Const(5)), 4), y);
  EXPECT_FALSE(az.Decompose(e).has_value());
  auto cf = az.DecomposeClamped(e);
  ASSERT_TRUE(cf.has_value());
  EXPECT_EQ(cf->bound, 5);
  for (int64_t vx = 0; vx < 4; ++vx) {
    for (int64_t vy = 0; vy < 4; ++vy) {
      std::unordered_map<int, int64_t> env{{x->var_id, vx}, {y->var_id, vy}};
      int64_t want = Eval(e, env);
      int64_t g = cf->guard.base + cf->guard.coeffs[0] * vx + cf->guard.coeffs[1] * vy;
      EXPECT_EQ(g, 2 * vx + 1);
      const ir::AffineForm& side = g <= cf->bound ? cf->then_form : cf->else_form;
      EXPECT_EQ(side.base + side.coeffs[0] * vx + side.coeffs[1] * vy, want);
    }
  }
}

TEST(DecomposeClampedTest, RejectsPlainAffineAndMultipleClamps) {
  Expr x = MakeVar("x");
  ir::AffineAnalyzer az({{x->var_id, 4}});
  // Plain affine: no clamp to split.
  EXPECT_FALSE(az.DecomposeClamped(ir::Mul(x, 3)).has_value());
  // Two distinct clamps: ambiguous, refused.
  Expr c1 = ir::Min(ir::Add(ir::Mul(x, 2), Const(1)), Const(5));
  Expr c2 = ir::Min(ir::Add(ir::Mul(x, 3), Const(1)), Const(7));
  EXPECT_FALSE(az.DecomposeClamped(ir::Add(c1, c2)).has_value());
}

TEST(DecomposeClampedTest, UnfoldAlignedNestSplitsTheEmittedAccess) {
  // The real thing: the canonical-representative rewrite of an overlapped
  // unfold (D=10, B=4, S=3 -> tiles=3) read under an aligned loop nest
  // e = eo*3 + ei. FloorDiv resolves to eo; the remaining residue is exactly
  // the clamp Min(eo, 2), range-indefinite because eo runs to 3.
  LayoutSeq seq;
  seq.Append(Primitive::Unfold(0, 4, 3));
  std::vector<int64_t> shape{10};
  auto rel = LayoutRelation::FromSeq(seq, shape);
  ASSERT_TRUE(rel.ok());
  Expr eo = MakeVar("eo");
  Expr ei = MakeVar("ei");
  Expr x = ir::Add(ir::Mul(eo, 3), ei);
  auto mapped = rel->MapRead({x});
  ASSERT_TRUE(mapped.ok());
  // Linearized physical offset over the 3x4 physical shape.
  Expr offset = ir::Add(ir::Mul((*mapped)[0], 4), (*mapped)[1]);
  ir::AffineAnalyzer az({{eo->var_id, 4}, {ei->var_id, 3}});
  EXPECT_FALSE(az.Decompose(offset).has_value());
  auto cf = az.DecomposeClamped(offset);
  ASSERT_TRUE(cf.has_value());
  for (int64_t vo = 0; vo < 4; ++vo) {
    for (int64_t vi = 0; vi < 3; ++vi) {
      std::unordered_map<int, int64_t> env{{eo->var_id, vo}, {ei->var_id, vi}};
      int64_t want = Eval(offset, env);
      int64_t g = cf->guard.base + cf->guard.coeffs[0] * vo + cf->guard.coeffs[1] * vi;
      const ir::AffineForm& side = g <= cf->bound ? cf->then_form : cf->else_form;
      EXPECT_EQ(side.base + side.coeffs[0] * vo + side.coeffs[1] * vi, want);
    }
  }
}

// ---------------------------------------------------------------------------
// Composition beyond round trips.
// ---------------------------------------------------------------------------

TEST(RelationComposeTest, ComposeMatchesSequentialConstruction) {
  std::mt19937_64 rng(424242);
  int checked = 0;
  for (int iter = 0; iter < 60 && checked < 25; ++iter) {
    CorpusCase a = RandomCase(rng, /*allow_advanced=*/true);
    auto ra = LayoutRelation::FromSeq(a.seq, a.shape);
    ASSERT_TRUE(ra.ok());
    CorpusCase b = RandomCase(rng, /*allow_advanced=*/true);
    // Rebuild b's sequence over a's physical shape; skip when inapplicable.
    std::vector<int64_t> mid = ra->ApplyToShape();
    std::vector<int64_t> probe = mid;
    if (!b.seq.ApplyToShape(probe).ok()) {
      continue;
    }
    auto rb = LayoutRelation::FromSeq(b.seq, mid);
    ASSERT_TRUE(rb.ok());
    auto composed = LayoutRelation::Compose(*rb, *ra);
    ASSERT_TRUE(composed.ok());
    // Composition == running both step lists from scratch.
    LayoutSeq both = a.seq;
    for (const Primitive& p : b.seq.primitives()) {
      both.Append(p);
    }
    auto direct = LayoutRelation::FromSeq(both, a.shape);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(composed->Fingerprint(), direct->Fingerprint());
    EXPECT_EQ(composed->ApplyToShape(), probe);
    ++checked;
  }
  EXPECT_GE(checked, 10);
}

TEST(RelationComposeTest, ShapeMismatchRejected) {
  auto a = LayoutRelation::Identity({4, 6});
  auto b = LayoutRelation::Identity({6, 4});
  EXPECT_FALSE(LayoutRelation::Compose(b, a).ok());
}

}  // namespace
}  // namespace alt::layout
