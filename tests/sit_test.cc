// Tests for SIT construction and the J_i pool generator.

#include <gtest/gtest.h>

#include "condsel/exec/evaluator.h"
#include "condsel/sit/sit_builder.h"
#include "condsel/sit/sit_pool.h"
#include "test_util.h"

namespace condsel {
namespace {

ColumnRef Ra() { return {0, 0}; }
ColumnRef Rx() { return {0, 1}; }
ColumnRef Sy() { return {1, 0}; }
ColumnRef Sb() { return {1, 1}; }
ColumnRef Tz() { return {2, 0}; }
ColumnRef Tc() { return {2, 1}; }

class SitTest : public ::testing::Test {
 protected:
  SitTest()
      : catalog_(test::MakeTinyCatalog()),
        eval_(&catalog_, &cache_),
        builder_(&eval_, {HistogramType::kMaxDiff, 64}) {}

  Catalog catalog_;
  CardinalityCache cache_;
  Evaluator eval_;
  SitBuilder builder_;
};

TEST_F(SitTest, BaseHistogramHasZeroDiff) {
  const Sit sit = builder_.Build(Ra(), {});
  EXPECT_TRUE(sit.is_base());
  EXPECT_DOUBLE_EQ(sit.diff, 0.0);
  EXPECT_DOUBLE_EQ(sit.histogram.source_cardinality(), 10.0);
  // R.a is 1..10: exact per-value buckets at 64 buckets.
  EXPECT_NEAR(sit.histogram.RangeSelectivity(1, 5), 0.5, 1e-12);
}

TEST_F(SitTest, SitOverJoinReflectsJoinDistribution) {
  // SIT(R.a | R join S): the join keeps a in {1,2,3,4,5,6,7,8} with
  // multiplicities {2,2,1,1,1,1,1,1} (10 tuples). Values 9,10 drop out.
  const Sit sit = builder_.Build(Ra(), {Predicate::Join(Rx(), Sy())});
  EXPECT_FALSE(sit.is_base());
  EXPECT_DOUBLE_EQ(sit.histogram.source_cardinality(), 10.0);
  EXPECT_NEAR(sit.histogram.RangeSelectivity(1, 2), 0.4, 1e-12);
  EXPECT_NEAR(sit.histogram.RangeSelectivity(9, 10), 0.0, 1e-12);
  // diff: base is uniform 1/10 over 1..10; join gives 2/10 on {1,2},
  // 1/10 on 3..8, 0 on {9,10}. L1 = 2*(0.1) + 0 + 2*(0.1) = 0.4 ->
  // diff = 0.2.
  EXPECT_NEAR(sit.diff, 0.2, 1e-12);
}

TEST_F(SitTest, ExpressionIsCanonicalized) {
  const Predicate j1 = Predicate::Join(Rx(), Sy());
  const Predicate j2 = Predicate::Join(Sb(), Tz());
  const Sit s1 = builder_.Build(Ra(), {j1, j2});
  const Sit s2 = builder_.Build(Ra(), {j2, j1});
  EXPECT_EQ(s1.expression, s2.expression);
}

TEST_F(SitTest, BuildManyMatchesSingleBuilds) {
  const std::vector<Predicate> expr = {Predicate::Join(Rx(), Sy())};
  const auto many = builder_.BuildMany({Ra(), Sb()}, expr);
  ASSERT_EQ(many.size(), 2u);
  const Sit lone_a = builder_.Build(Ra(), expr);
  const Sit lone_b = builder_.Build(Sb(), expr);
  EXPECT_DOUBLE_EQ(many[0].diff, lone_a.diff);
  EXPECT_DOUBLE_EQ(many[1].diff, lone_b.diff);
  EXPECT_NEAR(many[0].histogram.RangeSelectivity(1, 2),
              lone_a.histogram.RangeSelectivity(1, 2), 1e-12);
}

void ExpectSameSit(const Sit& got, const Sit& want) {
  EXPECT_EQ(got.attr, want.attr);
  EXPECT_EQ(got.expression, want.expression);
  EXPECT_EQ(got.diff, want.diff);
  const Histogram& g = got.histogram;
  const Histogram& w = want.histogram;
  EXPECT_EQ(g.source_cardinality(), w.source_cardinality());
  ASSERT_EQ(g.num_buckets(), w.num_buckets());
  for (size_t b = 0; b < g.num_buckets(); ++b) {
    EXPECT_EQ(g.buckets()[b].lo, w.buckets()[b].lo);
    EXPECT_EQ(g.buckets()[b].hi, w.buckets()[b].hi);
    EXPECT_EQ(g.buckets()[b].frequency, w.buckets()[b].frequency);
    EXPECT_EQ(g.buckets()[b].distinct, w.buckets()[b].distinct);
  }
}

TEST_F(SitTest, FullRangeRestrictionMatchesUnrestrictedBuild) {
  // Restricting the owning table to all of its rows is no restriction:
  // base histograms, single SITs and shared-expression builds all
  // reproduce the unrestricted statistics bit for bit.
  const RowRestriction all_r{0, 0, catalog_.table(0).num_rows()};
  const RowRestriction all_s{1, 0, catalog_.table(1).num_rows()};
  ExpectSameSit(builder_.Build(Ra(), {}, &all_r), builder_.Build(Ra(), {}));
  ExpectSameSit(builder_.Build(Sb(), {}, &all_s), builder_.Build(Sb(), {}));

  const std::vector<Predicate> expr = {Predicate::Join(Rx(), Sy()),
                                       Predicate::Join(Sb(), Tz())};
  ExpectSameSit(builder_.Build(Ra(), expr, &all_r),
                builder_.Build(Ra(), expr));
  ExpectSameSit(builder_.Build(Sb(), expr, &all_s),
                builder_.Build(Sb(), expr));

  const std::vector<Sit> restricted =
      builder_.BuildMany({Ra(), Rx()}, expr, &all_r);
  const std::vector<Sit> unrestricted = builder_.BuildMany({Ra(), Rx()}, expr);
  ASSERT_EQ(restricted.size(), 2u);
  ASSERT_EQ(unrestricted.size(), 2u);
  for (size_t i = 0; i < restricted.size(); ++i) {
    ExpectSameSit(restricted[i], unrestricted[i]);
  }
}

TEST_F(SitTest, PoolDeduplicates) {
  SitPool pool;
  const SitId id1 = pool.Add(builder_.Build(Ra(), {}));
  const SitId id2 = pool.Add(builder_.Build(Ra(), {}));
  EXPECT_EQ(id1, id2);
  EXPECT_EQ(pool.size(), 1);
}

TEST_F(SitTest, PoolBaseLookup) {
  SitPool pool;
  pool.Add(builder_.Build(Ra(), {}));
  pool.Add(builder_.Build(Ra(), {Predicate::Join(Rx(), Sy())}));
  const Sit* base = pool.FindBase(Ra());
  ASSERT_NE(base, nullptr);
  EXPECT_TRUE(base->is_base());
  EXPECT_EQ(pool.FindBase(Sb()), nullptr);
}

TEST_F(SitTest, GenerateJ0PoolIsBasesOnly) {
  const Query q({Predicate::Filter(Ra(), 1, 5), Predicate::Join(Rx(), Sy()),
                 Predicate::Filter(Sb(), 100, 200)});
  const SitPool pool = GenerateSitPool({q}, 0, builder_);
  // Base histograms for every referenced column: R.a, R.x, S.y, S.b.
  EXPECT_EQ(pool.size(), 4);
  for (const Sit& s : pool.sits()) EXPECT_TRUE(s.is_base());
}

TEST_F(SitTest, GenerateJ1PoolAddsJoinSits) {
  const Query q({Predicate::Filter(Ra(), 1, 5), Predicate::Join(Rx(), Sy()),
                 Predicate::Filter(Sb(), 100, 200),
                 Predicate::Join(Sb(), Tz()), Predicate::Filter(Tc(), 1, 3)});
  const SitPool j0 = GenerateSitPool({q}, 0, builder_);
  const SitPool j1 = GenerateSitPool({q}, 1, builder_);
  const SitPool j2 = GenerateSitPool({q}, 2, builder_);
  EXPECT_GT(j1.size(), j0.size());
  EXPECT_GT(j2.size(), j1.size());
  // J1: single-join expressions only.
  for (const Sit& s : j1.sits()) {
    EXPECT_LE(s.expression.size(), 1u);
  }
  // Every SIT's attribute table must appear in its expression.
  for (const Sit& s : j2.sits()) {
    if (s.is_base()) continue;
    TableSet tables = 0;
    for (const Predicate& p : s.expression) tables |= p.tables();
    EXPECT_TRUE(Contains(tables, s.attr.table)) << s.ToString(catalog_);
  }
}

TEST_F(SitTest, GenerateJ2PoolContainsTwoWayJoinSit) {
  const Query q({Predicate::Filter(Ra(), 1, 5), Predicate::Join(Rx(), Sy()),
                 Predicate::Join(Sb(), Tz()), Predicate::Filter(Tc(), 1, 3)});
  const SitPool pool = GenerateSitPool({q}, 2, builder_);
  EXPECT_TRUE(pool.Has(
      Ra(), {Predicate::Join(Rx(), Sy()), Predicate::Join(Sb(), Tz())}));
  // Disconnected expressions must not appear: {S.b=T.z} alone does not
  // reach R, so SIT(R.a | S join T) is not generated.
  EXPECT_FALSE(pool.Has(Ra(), {Predicate::Join(Sb(), Tz())}));
}

TEST_F(SitTest, FkJoinPreservingDistributionHasNearZeroDiff) {
  // Example 4's scenario: when every R row matches exactly one S row
  // (key-foreign key with full referential integrity), the distribution
  // of R.a over the join equals the base distribution -> diff ~ 0.
  Catalog c;
  c.AddTable(test::MakeTable("F", {"fa", "fk"},
                             {{1, 0}, {2, 1}, {3, 2}, {4, 0}, {5, 1}}));
  c.AddTable(test::MakeTable("D", {"pk"}, {{0}, {1}, {2}}));
  CardinalityCache cache;
  Evaluator ev(&c, &cache);
  SitBuilder b(&ev, {HistogramType::kMaxDiff, 32});
  const Sit sit = b.Build({0, 0}, {Predicate::Join({0, 1}, {1, 0})});
  EXPECT_NEAR(sit.diff, 0.0, 1e-12);
}

}  // namespace
}  // namespace condsel
