// Estimator-equivalence regression harness.
//
// Runs all five estimators (getSelectivity with Diff and nInd rankings,
// the exhaustive reference, GVM, noSit, and the optimizer-coupled
// estimator) over deterministic seeded snowflake + tpch_lite workloads
// and compares every estimate — formatted as hexfloats, so equality is
// bit-exact — against a golden file checked into the repo. Any refactor
// of the estimation core must leave this file byte-identical: the layered
// provider/memo/decomposer split is required to be a pure reshaping of
// the numerics.
//
// Regenerate the golden (only when an estimate change is intended) with:
//   CONDSEL_REGOLD=1 ./estimator_equivalence_test

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "condsel/datagen/snowflake.h"
#include "condsel/datagen/tpch_lite.h"
#include "condsel/datagen/workload.h"
#include "condsel/exec/evaluator.h"
#include "condsel/harness/metrics.h"
#include "condsel/optimizer/integration.h"
#include "condsel/query/query.h"
#include "condsel/selectivity/error_function.h"
#include "condsel/selectivity/exhaustive.h"
#include "condsel/selectivity/get_selectivity.h"
#include "condsel/baselines/gvm.h"
#include "condsel/baselines/no_sit.h"
#include "condsel/sit/sit_builder.h"
#include "condsel/sit/sit_matcher.h"
#include "condsel/sit/sit_pool.h"

namespace condsel {
namespace {

// Exhaustive search is exponential-factorial; cap like condsel_cli does.
constexpr int kMaxExhaustivePreds = 6;

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

// One line per (estimator, subset) estimate, in a fixed deterministic
// order. The workload generator and SIT builder are seeded, so the whole
// transcript is a pure function of the code under test.
void AppendDatabaseLines(const char* tag, const Catalog& catalog,
                         int num_joins, std::vector<std::string>* out) {
  CardinalityCache cache;
  Evaluator evaluator(const_cast<Catalog*>(&catalog), &cache);
  SitBuilder builder(&evaluator, SitBuildOptions{});

  WorkloadOptions wopt;
  wopt.num_queries = 4;
  wopt.num_joins = num_joins;
  wopt.num_filters = 3;
  wopt.seed = 20260807;
  std::vector<Query> workload = GenerateWorkload(catalog, &evaluator, wopt);
  SitPool pool = GenerateSitPool(workload, 2, builder);

  NIndError nind;
  DiffError diff;

  for (size_t qi = 0; qi < workload.size(); ++qi) {
    const Query& q = workload[qi];
    const PredSet all = q.all_predicates();
    const std::vector<PredSet> subplans = SubPlanFamily(q);

    auto line = [&](const char* est, PredSet p, double sel, double err) {
      std::ostringstream os;
      os << tag << " q" << qi << " " << est << " p=" << p
         << " sel=" << Hex(sel) << " err=" << Hex(err);
      out->push_back(os.str());
    };

    // getSelectivity, both structural rankings, every optimizer sub-plan.
    for (const ErrorFunction* fn :
         {static_cast<const ErrorFunction*>(&diff),
          static_cast<const ErrorFunction*>(&nind)}) {
      SitMatcher matcher(&pool);
      matcher.BindQuery(&q);
      AtomicSelectivityProvider provider(&matcher, fn);
      GetSelectivity gs(&q, &provider);
      for (PredSet p : subplans) {
        const SelEstimate e = gs.Compute(p);
        line(fn == &diff ? "gs-diff" : "gs-nind", p, e.selectivity, e.error);
      }
    }

    // Exhaustive reference (full query only; it is not memoized).
    if (SetSize(all) <= kMaxExhaustivePreds) {
      SitMatcher matcher(&pool);
      matcher.BindQuery(&q);
      AtomicSelectivityProvider provider(&matcher, &diff);
      const ExhaustiveResult ex =
          ExhaustiveBest(q, all, &provider, /*separable_first=*/true);
      line("exhaustive", all, ex.selectivity, ex.error);
    }

    // GVM and noSit baselines, every sub-plan.
    {
      SitMatcher matcher(&pool);
      matcher.BindQuery(&q);
      GvmEstimator gvm(&matcher);
      NoSitEstimator nosit(&matcher);
      for (PredSet p : subplans) {
        line("gvm", p, gvm.Estimate(q, p), gvm.last_n_ind());
        line("nosit", p, nosit.Estimate(q, p), 0.0);
      }
    }

    // Optimizer-coupled estimator, every sub-plan it accepts.
    {
      SitMatcher matcher(&pool);
      matcher.BindQuery(&q);
      AtomicSelectivityProvider provider(&matcher, &diff);
      OptimizerCoupledEstimator coupled(&q, &provider);
      for (PredSet p : subplans) {
        StatusOr<SelEstimate> e = coupled.TryEstimate(p);
        if (e.ok()) {
          line("coupled", p, e.value().selectivity, e.value().error);
        } else {
          std::ostringstream os;
          os << tag << " q" << qi << " coupled p=" << p << " status="
             << StatusCodeName(e.status().code());
          out->push_back(os.str());
        }
      }
    }
  }
}

std::vector<std::string> BuildTranscript() {
  std::vector<std::string> lines;
  {
    SnowflakeOptions opt;
    opt.scale = 0.01;
    const Catalog catalog = BuildSnowflake(opt);
    AppendDatabaseLines("snowflake", catalog, /*num_joins=*/3, &lines);
  }
  {
    TpchLiteOptions opt;
    opt.scale = 0.05;
    const Catalog catalog = BuildTpchLite(opt);
    AppendDatabaseLines("tpch", catalog, /*num_joins=*/2, &lines);
  }
  return lines;
}

std::string GoldenPath() {
  return std::string(CONDSEL_GOLDEN_DIR) + "/estimator_equivalence.golden";
}

TEST(EstimatorEquivalence, MatchesGolden) {
  const std::vector<std::string> lines = BuildTranscript();
  ASSERT_FALSE(lines.empty());

  if (std::getenv("CONDSEL_REGOLD") != nullptr) {
    std::ofstream out(GoldenPath());
    ASSERT_TRUE(out.is_open()) << "cannot write " << GoldenPath();
    for (const std::string& l : lines) out << l << "\n";
    GTEST_SKIP() << "golden regenerated at " << GoldenPath();
  }

  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.is_open())
      << "missing golden " << GoldenPath()
      << " — regenerate with CONDSEL_REGOLD=1";
  std::vector<std::string> golden;
  for (std::string l; std::getline(in, l);) golden.push_back(l);

  ASSERT_EQ(golden.size(), lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(golden[i], lines[i]) << "transcript line " << i;
  }
}

}  // namespace
}  // namespace condsel
