// Parameterized end-to-end sweeps: the full pipeline (generate DB,
// generate workload, build pools, estimate with every technique) must
// uphold its invariants across join counts, pool sizes, skew levels, and
// error functions.

#include <gtest/gtest.h>

#include <cmath>

#include "condsel/datagen/snowflake.h"
#include "condsel/datagen/workload.h"
#include "condsel/harness/metrics.h"
#include "condsel/harness/runner.h"
#include "condsel/selectivity/exhaustive.h"
#include "condsel/selectivity/get_selectivity.h"
#include "condsel/sit/sit_builder.h"
#include "condsel/sit/sit_pool.h"

namespace condsel {
namespace {

struct SweepParam {
  int num_joins;
  int pool_j;
  double zipf_theta;
};

class PipelineSweepTest : public ::testing::TestWithParam<SweepParam> {
 protected:
  void Build() {
    SnowflakeOptions opt;
    opt.scale = 0.002;
    opt.zipf_theta = GetParam().zipf_theta;
    catalog_ = std::make_unique<Catalog>(BuildSnowflake(opt));
    eval_ = std::make_unique<Evaluator>(catalog_.get(), &cache_);
    WorkloadOptions wopt;
    wopt.num_queries = 4;
    wopt.num_joins = GetParam().num_joins;
    workload_ = GenerateWorkload(*catalog_, eval_.get(), wopt);
    SitBuilder builder(eval_.get(), SitBuildOptions{});
    pool_ = GenerateSitPool(workload_, GetParam().pool_j, builder);
  }

  CardinalityCache cache_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<Evaluator> eval_;
  std::vector<Query> workload_;
  SitPool pool_;
};

TEST_P(PipelineSweepTest, EstimatesAreProbabilitiesEverywhere) {
  Build();
  NIndError n_ind;
  DiffError diff;
  for (const Query& q : workload_) {
    SitMatcher matcher(&pool_);
    matcher.BindQuery(&q);
    for (const ErrorFunction* fn :
         std::initializer_list<const ErrorFunction*>{&n_ind, &diff}) {
      AtomicSelectivityProvider fa(&matcher, fn);
      GetSelectivity gs(&q, &fa);
      for (PredSet plan : SubPlanFamily(q)) {
        const SelEstimate e = gs.Compute(plan);
        ASSERT_GE(e.selectivity, 0.0) << fn->name();
        ASSERT_LE(e.selectivity, 1.0 + 1e-9) << fn->name();
        ASSERT_GE(e.error, 0.0) << fn->name();
        ASSERT_LT(e.error, kInfiniteError) << fn->name();
      }
    }
  }
}

TEST_P(PipelineSweepTest, MemoizedSubPlansAgreeWithFreshComputation) {
  Build();
  DiffError diff;
  for (const Query& q : workload_) {
    SitMatcher matcher(&pool_);
    matcher.BindQuery(&q);
    // One DP answering everything vs a fresh DP per sub-plan.
    AtomicSelectivityProvider fa_all(&matcher, &diff);
    GetSelectivity gs_all(&q, &fa_all);
    gs_all.Compute(q.all_predicates());
    for (PredSet plan : SubPlanFamily(q)) {
      AtomicSelectivityProvider fa_one(&matcher, &diff);
      GetSelectivity gs_one(&q, &fa_one);
      ASSERT_NEAR(gs_all.Compute(plan).selectivity,
                  gs_one.Compute(plan).selectivity, 1e-12);
      ASSERT_NEAR(gs_all.Compute(plan).error, gs_one.Compute(plan).error,
                  1e-12);
    }
  }
}

TEST_P(PipelineSweepTest, DpNeverWorseThanExhaustiveOnSmallQueries) {
  Build();
  DiffError diff;
  for (const Query& q : workload_) {
    SitMatcher matcher(&pool_);
    matcher.BindQuery(&q);
    AtomicSelectivityProvider fa(&matcher, &diff);
    GetSelectivity gs(&q, &fa);
    const double dp = gs.Compute(q.all_predicates()).error;
    const double pruned =
        ExhaustiveBest(q, q.all_predicates(), &fa, true).error;
    ASSERT_NEAR(dp, pruned, 1e-9);
  }
}

TEST_P(PipelineSweepTest, TechniquesOrderSanely) {
  Build();
  Runner runner(catalog_.get(), eval_.get());
  const double no_sit =
      runner.Run(workload_, pool_, Technique::kNoSit).avg_abs_error;
  const double gs_diff =
      runner.Run(workload_, pool_, Technique::kGsDiff).avg_abs_error;
  if (GetParam().pool_j == 0) {
    // Identical information: identical estimates.
    EXPECT_NEAR(gs_diff, no_sit, 1e-6);
  } else if (GetParam().zipf_theta >= 1.0) {
    // On skewed data — the paper's setting — SITs must not hurt on
    // average (small slack for histogram noise).
    EXPECT_LE(gs_diff, no_sit * 1.05 + 1e-9);
  } else {
    // On near-uniform data at tiny scale there is little dependence to
    // exploit; SITs may add histogram noise. Sanity-bound only.
    EXPECT_LE(gs_diff, no_sit * 2.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PipelineSweepTest,
    ::testing::Values(SweepParam{2, 0, 1.0}, SweepParam{2, 1, 1.0},
                      SweepParam{2, 2, 1.0}, SweepParam{3, 1, 0.5},
                      SweepParam{3, 2, 1.0}, SweepParam{3, 3, 1.5},
                      SweepParam{4, 2, 1.0}, SweepParam{5, 2, 1.0},
                      SweepParam{5, 4, 1.5}),
    // `pinfo`, not gtest's customary `info`: the INSTANTIATE macro
    // expands the lambda inside a function whose parameter is already
    // named `info`, and -Wshadow rejects the collision.
    [](const ::testing::TestParamInfo<SweepParam>& pinfo) {
      return "J" + std::to_string(pinfo.param.num_joins) + "_pool" +
             std::to_string(pinfo.param.pool_j) + "_theta" +
             std::to_string(static_cast<int>(pinfo.param.zipf_theta * 10));
    });

}  // namespace
}  // namespace condsel
