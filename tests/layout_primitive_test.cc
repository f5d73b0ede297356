// Tests for layout primitives: shape transforms, the read-access rewriting
// of the relations they denote, and the round-trip property
// MapInverse ∘ MapRead == identity on canonical indices (the foundation of
// the §6 compilation pass).

#include <unordered_map>

#include <gtest/gtest.h>

#include "src/ir/expr.h"
#include "src/layout/primitive.h"
#include "src/layout/relation.h"

namespace alt::layout {
namespace {

using ir::Const;
using ir::Eval;
using ir::Expr;
using ir::MakeVar;

// The relation `seq` denotes over `shape` (the sequences here all apply).
LayoutRelation Rel(const LayoutSeq& seq, const std::vector<int64_t>& shape) {
  auto rel = LayoutRelation::FromSeq(seq, shape);
  EXPECT_TRUE(rel.ok()) << seq.ToString() << ": " << rel.status().ToString();
  return rel.ok() ? *std::move(rel) : LayoutRelation::Identity(shape);
}

std::vector<Expr> MakeVars(int n, std::vector<int>* ids) {
  std::vector<Expr> vars;
  for (int i = 0; i < n; ++i) {
    Expr v = MakeVar("v" + std::to_string(i));
    ids->push_back(v->var_id);
    vars.push_back(v);
  }
  return vars;
}

TEST(LayoutShapeTest, SplitReorderMatchesPaperExample) {
  // NOHW -> N O/ot H W ot (paper §4.1.1, ot = 8).
  std::vector<int64_t> shape{1, 32, 14, 14};
  LayoutSeq seq;
  seq.Append(Primitive::Split(1, {4, 8}));
  seq.Append(Primitive::Reorder({0, 1, 3, 4, 2}));
  ASSERT_TRUE(seq.ApplyToShape(shape).ok());
  EXPECT_EQ(shape, (std::vector<int64_t>{1, 4, 14, 14, 8}));
}

TEST(LayoutShapeTest, FuseSplitReorderSpatialPacking) {
  // NHWO -> N (HWO) -> N (O/4) 4 (HW) -> N (O/4) (HW) 4 (paper §4.1.1).
  std::vector<int64_t> shape{1, 6, 5, 8};
  LayoutSeq seq;
  seq.Append(Primitive::Fuse(1, 3));
  seq.Append(Primitive::Split(1, {2, 4, 30}));
  seq.Append(Primitive::Reorder({0, 1, 3, 2}));
  ASSERT_TRUE(seq.ApplyToShape(shape).ok());
  EXPECT_EQ(shape, (std::vector<int64_t>{1, 2, 30, 4}));
}

TEST(LayoutShapeTest, UnfoldShape) {
  // Array of 5 unfolded with B=3, S=2 -> {{1,2,3},{3,4,5}} (paper §4.1.2).
  std::vector<int64_t> shape{5};
  LayoutSeq seq;
  seq.Append(Primitive::Unfold(0, 3, 2));
  ASSERT_TRUE(seq.ApplyToShape(shape).ok());
  EXPECT_EQ(shape, (std::vector<int64_t>{2, 3}));
}

TEST(LayoutShapeTest, PadShape) {
  std::vector<int64_t> shape{4, 6};
  LayoutSeq seq;
  seq.Append(Primitive::Pad(1, 1, 1));
  ASSERT_TRUE(seq.ApplyToShape(shape).ok());
  EXPECT_EQ(shape, (std::vector<int64_t>{4, 8}));
}

TEST(LayoutShapeTest, SplitRejectsNonDividingFactors) {
  std::vector<int64_t> shape{10};
  LayoutSeq seq;
  seq.Append(Primitive::Split(0, {3, 3}));
  EXPECT_FALSE(seq.ApplyToShape(shape).ok());
}

TEST(LayoutShapeTest, UnfoldRejectsGapStride) {
  std::vector<int64_t> shape{10};
  LayoutSeq seq;
  seq.Append(Primitive::Unfold(0, 2, 3));  // stride > tile would lose elements
  EXPECT_FALSE(seq.ApplyToShape(shape).ok());
}

TEST(LayoutAccessTest, PaperAccessRewriteExample) {
  // Paper §4.1.1 walk-through: NHWO with H=3,W=4,O=8, primitives
  // fuse([1,2,3]); split(1,[O/4=2,4,HW=12]); reorder([0,1,3,2]).
  // Original access T[n][h][w][o]; the example derives
  // T[n][e/(HW*4)][e mod HW][(e/HW) mod 4] with e = h*W*O + w*O + o.
  std::vector<int64_t> shape{2, 3, 4, 8};
  LayoutSeq seq;
  seq.Append(Primitive::Fuse(1, 3));
  seq.Append(Primitive::Split(1, {2, 4, 12}));
  seq.Append(Primitive::Reorder({0, 1, 3, 2}));

  // The split regroups the fused H*W*O dim as 2*4*12, cutting across its
  // digits (the innermost, O = 8, does not divide 12): no digit form
  // expresses this relation, which is why access maps walk the steps.
  LayoutRelation rel = Rel(seq, shape);
  EXPECT_FALSE(rel.exact());

  std::vector<int> ids;
  auto vars = MakeVars(4, &ids);
  auto mapped = rel.MapRead(vars);
  ASSERT_TRUE(mapped.ok());
  ASSERT_EQ(mapped->size(), 4u);

  // Validate numerically against the closed form from the paper.
  for (int64_t n = 0; n < 2; ++n) {
    for (int64_t h = 0; h < 3; ++h) {
      for (int64_t w = 0; w < 4; ++w) {
        for (int64_t o = 0; o < 8; ++o) {
          std::unordered_map<int, int64_t> env{
              {ids[0], n}, {ids[1], h}, {ids[2], w}, {ids[3], o}};
          int64_t e = h * 4 * 8 + w * 8 + o;
          EXPECT_EQ(Eval((*mapped)[0], env), n);
          EXPECT_EQ(Eval((*mapped)[1], env), e / 48);
          EXPECT_EQ(Eval((*mapped)[2], env), e % 12);
          EXPECT_EQ(Eval((*mapped)[3], env), (e / 12) % 4);
        }
      }
    }
  }
}

TEST(LayoutAccessTest, UnfoldCanonicalRepresentativeCoversAllElements) {
  // {1,2,3,4,5} with B=3,S=2: element x lives at (tile, offset) and
  // tile*S+offset must reconstruct x.
  std::vector<int64_t> shape{5};
  LayoutSeq seq;
  seq.Append(Primitive::Unfold(0, 3, 2));
  std::vector<int> ids;
  auto vars = MakeVars(1, &ids);
  auto mapped = Rel(seq, shape).MapRead(vars);
  ASSERT_TRUE(mapped.ok());
  for (int64_t x = 0; x < 5; ++x) {
    std::unordered_map<int, int64_t> env{{ids[0], x}};
    int64_t tile = Eval((*mapped)[0], env);
    int64_t off = Eval((*mapped)[1], env);
    EXPECT_GE(tile, 0);
    EXPECT_LT(tile, 2);
    EXPECT_GE(off, 0);
    EXPECT_LT(off, 3);
    EXPECT_EQ(tile * 2 + off, x);
  }
}

TEST(LayoutAccessTest, UnfoldWindowFormMatchesEquationOne) {
  // Sliding window access x = V*i + r over a dim of extent D. After unfold
  // with B = V*(ht-1) + M and S = V*ht, Eq. (1) maps (i, r) to
  // (i / ht, V*(i mod ht) + r), and tile*S + offset must equal x.
  const int64_t V = 2;
  const int64_t M = 3;   // window size (e.g. KH)
  const int64_t ht = 4;  // output rows per tile
  const int64_t out_extent = 12;
  const int64_t D = V * (out_extent - 1) + M;
  const int64_t B = V * (ht - 1) + M;
  const int64_t S = V * ht;

  std::vector<int64_t> shape{D};
  LayoutSeq seq;
  seq.Append(Primitive::Unfold(0, B, S));

  Expr i = MakeVar("i");
  Expr r = MakeVar("r");
  Expr x = ir::Add(ir::Mul(i, V), r);
  WindowPattern wp{i, V, r, M};
  auto mapped = Rel(seq, shape).MapRead({x}, {wp});
  ASSERT_TRUE(mapped.ok());

  for (int64_t vi = 0; vi < out_extent; ++vi) {
    for (int64_t vr = 0; vr < M; ++vr) {
      std::unordered_map<int, int64_t> env{{i->var_id, vi}, {r->var_id, vr}};
      int64_t tile = Eval((*mapped)[0], env);
      int64_t off = Eval((*mapped)[1], env);
      EXPECT_EQ(tile, vi / ht);
      EXPECT_EQ(off, V * (vi % ht) + vr);
      EXPECT_EQ(tile * S + off, V * vi + vr);  // same element
      EXPECT_GE(off, 0);
      EXPECT_LT(off, B);  // window never straddles tiles
    }
  }
}

// Property: for any primitive sequence without data duplication, MapInverse
// of fresh new-layout vars composed with MapRead is the identity.
struct SeqCase {
  std::string name;
  std::vector<int64_t> shape;
  LayoutSeq seq;
};

class LayoutRoundTripTest : public ::testing::TestWithParam<int> {
 public:
  static std::vector<SeqCase> Cases() {
    std::vector<SeqCase> cases;
    {
      SeqCase c;
      c.name = "split";
      c.shape = {6, 8};
      c.seq.Append(Primitive::Split(1, {2, 4}));
      cases.push_back(c);
    }
    {
      SeqCase c;
      c.name = "split3";
      c.shape = {24};
      c.seq.Append(Primitive::Split(0, {2, 3, 4}));
      cases.push_back(c);
    }
    {
      SeqCase c;
      c.name = "reorder";
      c.shape = {2, 3, 4};
      c.seq.Append(Primitive::Reorder({2, 0, 1}));
      cases.push_back(c);
    }
    {
      SeqCase c;
      c.name = "fuse";
      c.shape = {2, 3, 4};
      c.seq.Append(Primitive::Fuse(0, 3));
      cases.push_back(c);
    }
    {
      SeqCase c;
      c.name = "pad";
      c.shape = {5};
      c.seq.Append(Primitive::Pad(0, 2, 1));
      cases.push_back(c);
    }
    {
      SeqCase c;
      c.name = "nchw_to_blocked";
      c.shape = {1, 32, 7, 7};
      c.seq.Append(Primitive::Split(1, {4, 8}));
      c.seq.Append(Primitive::Reorder({0, 1, 3, 4, 2}));
      cases.push_back(c);
    }
    {
      SeqCase c;
      c.name = "alt_c2d_template";
      // N H/ht W/wt O/ot ht wt ot with ht=2, wt=2, ot=8.
      c.shape = {1, 8, 8, 32};
      c.seq.Append(Primitive::Split(1, {4, 2}));
      c.seq.Append(Primitive::Split(3, {4, 2}));
      c.seq.Append(Primitive::Split(5, {4, 8}));
      c.seq.Append(Primitive::Reorder({0, 1, 3, 5, 2, 4, 6}));
      cases.push_back(c);
    }
    {
      SeqCase c;
      c.name = "fuse_then_split";
      c.shape = {4, 6};
      c.seq.Append(Primitive::Fuse(0, 2));
      c.seq.Append(Primitive::Split(0, {3, 8}));
      cases.push_back(c);
    }
    {
      SeqCase c;
      c.name = "unfold_no_overlap";
      c.shape = {12};
      c.seq.Append(Primitive::Unfold(0, 3, 3));
      cases.push_back(c);
    }
    {
      SeqCase c;
      c.name = "unfold_overlap";
      c.shape = {11};
      c.seq.Append(Primitive::Unfold(0, 5, 3));
      cases.push_back(c);
    }
    return cases;
  }
};

TEST_P(LayoutRoundTripTest, InverseOfReadIsIdentity) {
  SeqCase c = Cases()[GetParam()];
  std::vector<int64_t> new_shape = c.shape;
  ASSERT_TRUE(c.seq.ApplyToShape(new_shape).ok()) << c.name;

  // Canonical vars -> new indices -> back through inverse.
  std::vector<int> ids;
  auto vars = MakeVars(static_cast<int>(c.shape.size()), &ids);
  LayoutRelation rel = Rel(c.seq, c.shape);
  auto fwd = rel.MapRead(vars);
  ASSERT_TRUE(fwd.ok()) << c.name;
  auto back = rel.MapInverse(*fwd);
  ASSERT_TRUE(back.ok()) << c.name;
  ASSERT_EQ(back->size(), c.shape.size()) << c.name;

  // Enumerate the whole canonical domain and check identity.
  std::vector<int64_t> point(c.shape.size(), 0);
  for (;;) {
    std::unordered_map<int, int64_t> env;
    for (size_t d = 0; d < point.size(); ++d) {
      env[ids[d]] = point[d];
    }
    for (size_t d = 0; d < point.size(); ++d) {
      EXPECT_EQ(Eval((*back)[d], env), point[d]) << c.name << " dim " << d;
    }
    // Also: forward indices must be in-bounds of the new shape.
    for (size_t d = 0; d < new_shape.size(); ++d) {
      int64_t v = Eval((*fwd)[d], env);
      EXPECT_GE(v, 0) << c.name;
      EXPECT_LT(v, new_shape[d]) << c.name;
    }
    int d = static_cast<int>(point.size()) - 1;
    while (d >= 0 && ++point[d] == c.shape[d]) {
      point[d--] = 0;
    }
    if (d < 0) {
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSequences, LayoutRoundTripTest,
                         ::testing::Range(0, static_cast<int>(10)));

TEST(LayoutSeqTest, NontrivialAdvancedDetection) {
  LayoutSeq basic;
  basic.Append(Primitive::Split(0, {2, 2}));
  basic.Append(Primitive::Reorder({1, 0, 2}));
  EXPECT_FALSE(Rel(basic, {4, 3}).ExpandsData());

  LayoutSeq overlap;
  overlap.Append(Primitive::Unfold(0, 4, 2));
  EXPECT_TRUE(Rel(overlap, {10}).ExpandsData());

  LayoutSeq tiled;  // non-overlapping unfold behaves like a split
  tiled.Append(Primitive::Unfold(0, 4, 4));
  EXPECT_FALSE(Rel(tiled, {12}).ExpandsData());

  LayoutSeq padded;
  padded.Append(Primitive::Pad(0, 1, 1));
  EXPECT_TRUE(Rel(padded, {5}).ExpandsData());
}

TEST(LayoutSeqTest, ToStringIsReadable) {
  LayoutSeq seq;
  seq.Append(Primitive::Split(1, {2, 16}));
  seq.Append(Primitive::Reorder({0, 1, 3, 4, 2}));
  std::string s = seq.ToString();
  EXPECT_NE(s.find("split"), std::string::npos);
  EXPECT_NE(s.find("reorder"), std::string::npos);
}

TEST(LayoutShapeTest, PaddingWithWindowPatternShiftsBase) {
  // Pad then unfold with a window pattern: pad by a multiple of the stride
  // keeps the Eq. (1) form valid.
  const int64_t V = 1;
  const int64_t M = 3;
  const int64_t ht = 4;
  const int64_t D = 14;  // unpadded input extent
  std::vector<int64_t> shape{D};
  LayoutSeq seq;
  seq.Append(Primitive::Pad(0, 1, 1));
  seq.Append(Primitive::Unfold(0, ht + M - 1, ht));

  Expr i = MakeVar("i");
  Expr r = MakeVar("r");
  // Canonical access into the unpadded tensor: i + r - 1 would be the usual
  // padded conv pattern, but here we access x = i*V + r directly.
  Expr x = ir::Add(ir::Mul(i, V), r);
  WindowPattern wp{i, V, r, M};
  auto mapped = Rel(seq, shape).MapRead({x}, {wp});
  ASSERT_TRUE(mapped.ok());
  std::vector<int64_t> new_shape{D};
  ASSERT_TRUE(seq.ApplyToShape(new_shape).ok());
  // All accesses must stay in bounds and reconstruct x + pad.
  for (int64_t vi = 0; vi + M <= D + 2 && vi < 12; ++vi) {
    for (int64_t vr = 0; vr < M; ++vr) {
      std::unordered_map<int, int64_t> env{{i->var_id, vi}, {r->var_id, vr}};
      int64_t tile = Eval((*mapped)[0], env);
      int64_t off = Eval((*mapped)[1], env);
      EXPECT_EQ(tile * ht + off, vi + vr + 1);
      EXPECT_GE(off, 0);
      EXPECT_LT(off, ht + M - 1);
    }
  }
}

}  // namespace
}  // namespace alt::layout
