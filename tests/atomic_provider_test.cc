// Tests for single-factor approximation with SITs (Section 3.3).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "condsel/common/numeric.h"
#include "condsel/common/rng.h"
#include "condsel/histogram/builders.h"
#include "condsel/histogram/histogram_join.h"
#include "condsel/histogram/histogram_merge.h"
#include "condsel/selectivity/atomic_provider.h"
#include "condsel/sit/sit_builder.h"
#include "test_util.h"

namespace condsel {
namespace {

ColumnRef Ra() { return {0, 0}; }
ColumnRef Rx() { return {0, 1}; }
ColumnRef Sy() { return {1, 0}; }
ColumnRef Sb() { return {1, 1}; }
ColumnRef Tz() { return {2, 0}; }
ColumnRef Tc() { return {2, 1}; }

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

class FactorApproxTest : public ::testing::Test {
 protected:
  FactorApproxTest()
      : catalog_(test::MakeTinyCatalog()),
        eval_(&catalog_, &cache_),
        builder_(&eval_, {HistogramType::kMaxDiff, 64}),
        query_({Predicate::Filter(Ra(), 1, 5),      // 0
                Predicate::Join(Rx(), Sy()),        // 1
                Predicate::Join(Sb(), Tz()),        // 2
                Predicate::Filter(Tc(), 1, 3)}),    // 3
        matcher_(&pool_) {}

  void UseJ0Pool() {
    pool_.Add(builder_.Build(Ra(), {}));
    pool_.Add(builder_.Build(Rx(), {}));
    pool_.Add(builder_.Build(Sy(), {}));
    pool_.Add(builder_.Build(Sb(), {}));
    pool_.Add(builder_.Build(Tz(), {}));
    pool_.Add(builder_.Build(Tc(), {}));
    matcher_.BindQuery(&query_);
  }

  void AddJoinSit() {
    pool_.Add(builder_.Build(Ra(), {query_.predicate(1)}));
    matcher_.BindQuery(&query_);
  }

  // Base SITs over R.x (split into three parts of different sizes) and
  // S.y (one flat histogram), built from seeded random columns. Returns
  // the R.x pieces.
  std::vector<Histogram> UsePartitionedJoinPool() {
    Rng rng(97);
    std::vector<Histogram> pieces;
    Sit rx;
    rx.attr = Rx();
    for (int part = 0; part < 3; ++part) {
      std::vector<int64_t> values(200 + 150 * part);
      for (auto& v : values) v = rng.NextInRange(5 * part, 60 + 20 * part);
      SitPart piece;
      piece.part = part;
      piece.generation = 1;
      piece.histogram = BuildMaxDiff(
          values, static_cast<double>(values.size()), 12 + 4 * part);
      pieces.push_back(piece.histogram);
      rx.parts.push_back(std::move(piece));
    }
    std::vector<const Histogram*> ptrs;
    for (const Histogram& h : pieces) ptrs.push_back(&h);
    rx.histogram = MergeHistograms(ptrs, 64);
    std::vector<int64_t> ys(900);
    for (auto& v : ys) v = rng.NextInRange(0, 90);
    Sit sy;
    sy.attr = Sy();
    sy.histogram = BuildEquiDepth(ys, 1000.0, 20);
    pool_.Add(std::move(rx));
    pool_.Add(std::move(sy));
    return pieces;
  }

  Catalog catalog_;
  CardinalityCache cache_;
  Evaluator eval_;
  SitBuilder builder_;
  Query query_;
  SitPool pool_;
  SitMatcher matcher_;
  NIndError n_ind_;
};

TEST_F(FactorApproxTest, SupportedShapes) {
  UseJ0Pool();
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  EXPECT_TRUE(fa.SupportedShape(query_, 0b0001));  // one filter
  EXPECT_TRUE(fa.SupportedShape(query_, 0b0010));  // one join
  EXPECT_FALSE(fa.SupportedShape(query_, 0));
  // Two filters: structurally supported (needs a multidimensional SIT to
  // actually be feasible; Score() returns infeasible without one).
  EXPECT_TRUE(fa.SupportedShape(query_, 0b1001));
  EXPECT_FALSE(fa.SupportedShape(query_, 0b0110));  // two joins
  // Join + filter on a non-join column: unsupported.
  EXPECT_FALSE(fa.SupportedShape(query_, 0b0011));
  // Two filters without a covering 2-d SIT: not feasible.
  EXPECT_FALSE(fa.Score(query_, 0b1001, 0).feasible);
}

TEST_F(FactorApproxTest, JoinPlusFilterOnJoinColumnSupported) {
  // Filter on R.x (the join column) + join R.x = S.y: Example 3's shape.
  const Query q({Predicate::Filter(Rx(), 10, 20),
                 Predicate::Join(Rx(), Sy())});
  UseJ0Pool();
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  EXPECT_TRUE(fa.SupportedShape(q, 0b11));
}

TEST_F(FactorApproxTest, FilterFactorExactWithFineBaseHistogram) {
  UseJ0Pool();
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  FactorChoice c = fa.Score(query_, 0b0001, 0);
  ASSERT_TRUE(c.feasible);
  // R.a in [1,5] on 10 distinct values: 0.5 exactly.
  EXPECT_NEAR(fa.Estimate(query_, 0b0001, c), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(c.error, 0.0);  // nInd with empty Q
}

TEST_F(FactorApproxTest, JoinFactorUsesTwoBaseSits) {
  UseJ0Pool();
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  FactorChoice c = fa.Score(query_, 0b0010, 0);
  ASSERT_TRUE(c.feasible);
  ASSERT_EQ(c.sits.size(), 2u);
  // Exact join selectivity is 10 / 80 = 0.125; per-value buckets make
  // the histogram join exact.
  EXPECT_NEAR(fa.Estimate(query_, 0b0010, c), 0.125, 1e-12);
}

TEST_F(FactorApproxTest, InfeasibleWithoutAnySit) {
  // Empty pool: nothing to match.
  matcher_.BindQuery(&query_);
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  const FactorChoice c = fa.Score(query_, 0b0001, 0);
  EXPECT_FALSE(c.feasible);
  EXPECT_EQ(c.error, kInfiniteError);
}

TEST_F(FactorApproxTest, PrefersSitWithLargerExpression) {
  UseJ0Pool();
  AddJoinSit();
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  // Sel(p0 | p1): SIT(R.a|p1) has nInd error 0; base would give 1. The
  // matcher's maximality already removes the base here, but the choice
  // must carry the join SIT.
  FactorChoice c = fa.Score(query_, 0b0001, 0b0010);
  ASSERT_TRUE(c.feasible);
  ASSERT_EQ(c.sits.size(), 1u);
  EXPECT_FALSE(c.sits[0].sit->is_base());
  EXPECT_DOUBLE_EQ(c.error, 0.0);
}

TEST_F(FactorApproxTest, ConditionalEstimateUsesSitDistribution) {
  UseJ0Pool();
  AddJoinSit();
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  FactorChoice c = fa.Score(query_, 0b0001, 0b0010);
  ASSERT_TRUE(c.feasible);
  // Exact Sel(R.a in [1,5] | R join S): of the 10 join tuples, those with
  // a in {1,2,3,4,5} number 2+2+1+1+1 = 7 -> 0.7. The SIT has per-value
  // buckets, so the estimate is exact.
  EXPECT_NEAR(fa.Estimate(query_, 0b0001, c), 0.7, 1e-12);
  // The base histogram would have said 0.5 — the SIT corrects the
  // dependence between the filter and the join.
  EXPECT_NEAR(eval_.TrueConditionalSelectivity(query_, 0b0001, 0b0010), 0.7,
              1e-12);
}

TEST_F(FactorApproxTest, OptErrorPicksMostAccurateCandidate) {
  UseJ0Pool();
  AddJoinSit();
  OptError opt(&eval_);
  AtomicSelectivityProvider fa(&matcher_, &opt);
  FactorChoice c = fa.Score(query_, 0b0001, 0b0010);
  ASSERT_TRUE(c.feasible);
  // The join SIT estimates Sel(p0|p1) exactly, so Opt error must be ~0.
  EXPECT_NEAR(c.error, 0.0, 1e-12);
  EXPECT_NEAR(c.estimate, 0.7, 1e-12);
}

TEST_F(FactorApproxTest, JoinPlusFilterEstimate) {
  // Example 3 end-to-end: Sel(R.x=S.y, R.x in [10,20]).
  const Query q({Predicate::Join(Rx(), Sy()),
                 Predicate::Filter(Rx(), 10, 20)});
  pool_.Add(builder_.Build(Rx(), {}));
  pool_.Add(builder_.Build(Sy(), {}));
  matcher_.BindQuery(&q);
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  ASSERT_TRUE(fa.SupportedShape(q, 0b11));
  FactorChoice c = fa.Score(q, 0b11, 0);
  ASSERT_TRUE(c.feasible);
  const double est = fa.Estimate(q, 0b11, c);
  // Exact: matches with x in [10,20]: x=10 (2*2) + x=20 (3*1) = 7 of 80.
  const double exact = 7.0 / 80.0;
  // Histogram join result distribution is exact per-value here; accept
  // small slack from sub-bucket alignment.
  EXPECT_NEAR(est, exact, 0.02);
  // One flat pair of weight 1.0: exactly the materialized join's
  // selectivity times its result histogram's range selectivity.
  const JoinEstimate je = JoinHistograms(c.sits[0].sit->histogram,
                                         c.sits[1].sit->histogram);
  const double pair_sel =
      je.selectivity * je.result.RangeSelectivity(10, 20);
  EXPECT_EQ(Bits(est), Bits(SanitizeSelectivity(pair_sel)));
}

TEST_F(FactorApproxTest, PartitionedJoinIsWeightedSumOfPairJoins) {
  // |R ⋈ S| = Σ_p |R_p ⋈ S|: a partitioned × unpartitioned join factor
  // is the cardinality-weighted sum of the per-piece joins, added in part
  // order — bit for bit, though the provider's filter-free path uses the
  // selectivity-only kernel and this reference materializes every join.
  const std::vector<Histogram> pieces = UsePartitionedJoinPool();
  const Query q({Predicate::Join(Rx(), Sy())});
  matcher_.BindQuery(&q);
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  const FactorChoice c = fa.Score(q, 0b1, 0);
  ASSERT_TRUE(c.feasible);
  ASSERT_EQ(c.sits.size(), 2u);
  const Histogram& hy = pool_.FindBase(Sy())->histogram;
  double total = 0.0;
  for (const Histogram& h : pieces) total += h.source_cardinality();
  double expected = 0.0;
  for (const Histogram& h : pieces) {
    const double w = h.source_cardinality() / total;
    expected += w * 1.0 * JoinHistograms(h, hy).selectivity;
  }
  EXPECT_GT(expected, 0.0);
  EXPECT_EQ(Bits(fa.Estimate(q, 0b1, c)),
            Bits(SanitizeSelectivity(expected)));
}

TEST_F(FactorApproxTest, JoinPlusFilterUsesMaterializedJoinResult) {
  // Example 3's shape: the filter over the join column is estimated on
  // each pair's join-result histogram, so this path keeps materializing
  // the join (JoinHistograms), per piece pair.
  const std::vector<Histogram> pieces = UsePartitionedJoinPool();
  const Query q({Predicate::Join(Rx(), Sy()),
                 Predicate::Filter(Rx(), 10, 30)});
  matcher_.BindQuery(&q);
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  const FactorChoice c = fa.Score(q, 0b11, 0);
  ASSERT_TRUE(c.feasible);
  const Histogram& hy = pool_.FindBase(Sy())->histogram;
  double total = 0.0;
  for (const Histogram& h : pieces) total += h.source_cardinality();
  double expected = 0.0;
  for (const Histogram& h : pieces) {
    const double w = h.source_cardinality() / total;
    const JoinEstimate je = JoinHistograms(h, hy);
    expected += w * 1.0 *
                (je.selectivity * je.result.RangeSelectivity(10, 30));
  }
  const double est = fa.Estimate(q, 0b11, c);
  EXPECT_EQ(Bits(est), Bits(SanitizeSelectivity(expected)));
  // The filter matters: the estimate is not the bare join selectivity.
  EXPECT_LT(est, fa.Estimate(q, 0b1, fa.Score(q, 0b1, 0)));
}

}  // namespace
}  // namespace condsel
