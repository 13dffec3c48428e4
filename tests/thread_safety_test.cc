// Concurrency tests for the internally-synchronized components: the
// cross-query cardinality cache, the fault injector, and memo group
// creation. These are the structures annotated with CONDSEL_GUARDED_BY
// (see common/thread_annotations.h); run the suite under
// -DCONDSEL_SANITIZE=thread to have TSan check the same claims
// dynamically.
//
// The suite also covers the one piece of estimation state that threads
// share: an AtomicSelectivityProvider (and its SitMatcher) used by
// several GetSelectivity sessions at once, each session on its own
// thread. The per-call deadline contract of budget.h says no session can
// observe another's clock, and a session killed by a throwing lookup
// leaves the provider clean.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "condsel/common/fault_injector.h"
#include "condsel/datagen/snowflake.h"
#include "condsel/datagen/workload.h"
#include "condsel/exec/cardinality_cache.h"
#include "condsel/exec/evaluator.h"
#include "condsel/harness/metrics.h"
#include "condsel/optimizer/memo.h"
#include "condsel/query/query.h"
#include "condsel/selectivity/budget.h"
#include "condsel/selectivity/error_function.h"
#include "condsel/selectivity/get_selectivity.h"
#include "condsel/sit/sit_builder.h"
#include "condsel/sit/sit_matcher.h"
#include "condsel/sit/sit_pool.h"
#include "test_util.h"

namespace condsel {
namespace {

constexpr int kThreads = 4;
constexpr int kOpsPerThread = 200;

std::vector<Predicate> KeyFor(int i) {
  return {Predicate::Filter({0, 0}, i, i + 1)};
}

TEST(ThreadSafetyTest, CardinalityCacheConcurrentInsertLookup) {
  CardinalityCache cache;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &bad, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int k = (t * kOpsPerThread + i) % 64;
        cache.Insert(KeyFor(k), static_cast<double>(k));
        const double* hit = cache.Lookup(KeyFor(k));
        // Entries are never erased, so a lookup right after an insert
        // must hit, and the pointed-to value must be the inserted one
        // (first insert wins; every writer inserts the same value).
        if (hit == nullptr || *hit != static_cast<double>(k)) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_LE(cache.size(), 64u);
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
}

TEST(ThreadSafetyTest, FaultInjectorConcurrentSetReset) {
  FaultInjector& fi = FaultInjector::Instance();
  fi.Reset();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fi, t] {
      const Fault f = static_cast<Fault>(t % 5);
      for (int i = 0; i < kOpsPerThread; ++i) {
        fi.Set(f, (i % 2) == 0);
        (void)fi.enabled(f);
        if (i % 50 == 0) fi.Reset();
      }
    });
  }
  for (auto& th : threads) th.join();
  fi.Reset();
  // After a full Reset the armed flag and every per-fault flag must be
  // back in sync (the exact race the writer-side mutex closes).
  EXPECT_FALSE(fi.armed());
  EXPECT_FALSE(fi.enabled(Fault::kDropSits));
  EXPECT_FALSE(fi.enabled(Fault::kCorruptHistograms));
  EXPECT_FALSE(fi.enabled(Fault::kExpireDeadline));
  EXPECT_FALSE(fi.enabled(Fault::kCorruptDerivationFactor));
  EXPECT_FALSE(fi.enabled(Fault::kCorruptHypothesisSet));
}

TEST(ThreadSafetyTest, DeadlineConcurrentArmDisarmExpired) {
  // budget.h's publication contract: one thread re-arms and disarms a
  // Deadline while others poll Expired()/armed(). A reader that observes
  // the deadline armed must observe a matching expiry instant (never a
  // torn or stale one) — under TSan this checks the store ordering, here
  // we check the visible semantics: a deadline armed an hour out never
  // reports expiry, and a disarmed one never reports armed expiry.
  Deadline deadline;
  std::atomic<bool> stop{false};
  std::atomic<int> bogus{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        // Either state is fine (the writer races us); what is never fine
        // is reporting expiry, since every armed window is 3600s out.
        if (deadline.Expired()) bogus.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < kOpsPerThread; ++i) {
    deadline.Arm(3600.0);
    deadline.Disarm();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();
  EXPECT_EQ(bogus.load(), 0);
  EXPECT_FALSE(deadline.armed());

  // Re-arming in the past must flip Expired() immediately — the
  // re-armable contract a one-shot flag would violate.
  deadline.Arm(1e-9);
  EXPECT_TRUE(deadline.Expired());
  deadline.Disarm();
  EXPECT_FALSE(deadline.Expired());
}

TEST(ThreadSafetyTest, MemoConcurrentGroupCreation) {
  const Query q({Predicate::Filter({0, 0}, 1, 5),
                 Predicate::Join({0, 1}, {1, 0}),
                 Predicate::Join({1, 1}, {2, 0}),
                 Predicate::Filter({2, 1}, 1, 3)});
  Memo memo(&q);
  std::vector<std::vector<int>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&memo, &q, &ids, t] {
      for (PredSet p = 1; p <= q.all_predicates(); ++p) {
        if (!IsSubset(p, q.all_predicates())) continue;
        ids[t].push_back(memo.GetOrCreateGroup(p, q.TablesOfSubset(p)));
      }
    });
  }
  for (auto& th : threads) th.join();
  // Same creation order in every thread's view: identical (preds ->
  // group id) mapping, and ids dense in [0, num_groups).
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(ids[t], ids[0]);
  EXPECT_EQ(memo.num_groups(), static_cast<int>(ids[0].size()));
  for (int id : ids[0]) {
    ASSERT_GE(id, 0);
    ASSERT_LT(id, memo.num_groups());
    (void)memo.group(id);  // stable reference, no tearing under TSan
  }
}

// A small snowflake workload and SIT pool for the shared-provider tests.
struct SharedProviderWorld {
  SharedProviderWorld() {
    SnowflakeOptions sopt;
    sopt.scale = 0.01;
    catalog = BuildSnowflake(sopt);
    Evaluator evaluator(&catalog, &cache);
    SitBuilder builder(&evaluator, SitBuildOptions{});
    WorkloadOptions wopt;
    wopt.num_queries = 3;
    wopt.num_joins = 3;
    wopt.num_filters = 3;
    wopt.seed = 7;
    workload = GenerateWorkload(catalog, &evaluator, wopt);
    pool = GenerateSitPool(workload, 2, builder);
  }

  Catalog catalog;
  CardinalityCache cache;
  std::vector<Query> workload;
  SitPool pool;
};

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

// Every sub-plan of `q` through `gs`, one "sel err" hexfloat pair each.
std::vector<std::string> SubPlanTranscript(const Query& q,
                                           GetSelectivity* gs) {
  std::vector<std::string> lines;
  for (PredSet p : SubPlanFamily(q)) {
    const SelEstimate e = gs->Compute(p);
    lines.push_back(Hex(e.selectivity) + " " + Hex(e.error));
  }
  return lines;
}

// Two estimation sessions sharing one provider (and matcher), both with
// armed deadlines, running their searches concurrently: the per-call
// deadline contract says neither can observe the other's clock, so both
// transcripts must be bit-identical to an undisturbed baseline. Under
// TSan this is the regression test for the set_deadline clobber race.
TEST(ThreadSafetyTest, ConcurrentComputeOnSharedProvider) {
  const SharedProviderWorld world;
  DiffError diff;
  const Query& q = world.workload.front();
  SitMatcher matcher(&world.pool);
  matcher.BindQuery(&q);
  AtomicSelectivityProvider provider(&matcher, &diff);

  std::vector<std::string> baseline;
  {
    GetSelectivity gs(&q, &provider, nullptr);
    baseline = SubPlanTranscript(q, &gs);
  }

  // A generous deadline keeps both sessions' clocks armed for the whole
  // search without ever expiring: every Score call carries a live
  // per-call deadline, the worst case for cross-session interference.
  EstimationBudget budget;
  budget.deadline_seconds = 3600.0;
  GetSelectivity gs_a(&q, &provider, &budget);
  GetSelectivity gs_b(&q, &provider, &budget);

  std::vector<std::string> lines_a;
  std::vector<std::string> lines_b;
  {
    std::jthread ta([&] { lines_a = SubPlanTranscript(q, &gs_a); });
    std::jthread tb([&] { lines_b = SubPlanTranscript(q, &gs_b); });
  }
  EXPECT_EQ(baseline, lines_a);
  EXPECT_EQ(baseline, lines_b);
}

// An estimator killed mid-search by a throwing statistics lookup must not
// poison the shared provider: after the search unwinds (and the estimator
// is destroyed), a second estimator on the same provider — with the
// slow-lookup fault armed, so the provider's scoring path runs its full
// candidate loops — still produces bit-identical estimates. Before the
// per-call deadline contract, the destroyed estimator's deadline pointer
// stayed parked in the provider, and this scenario read freed memory.
TEST(ThreadSafetyTest, ThrowingLookupLeavesSharedProviderClean) {
  const SharedProviderWorld world;
  DiffError diff;
  const Query& q = world.workload.front();
  SitMatcher matcher(&world.pool);
  matcher.BindQuery(&q);
  AtomicSelectivityProvider provider(&matcher, &diff);

  std::vector<std::string> baseline;
  {
    GetSelectivity gs(&q, &provider, nullptr);
    baseline = SubPlanTranscript(q, &gs);
  }

  EstimationBudget budget;
  budget.deadline_seconds = 3600.0;  // armed when the throw unwinds
  {
    GetSelectivity doomed(&q, &provider, &budget);
    ScopedFault boom(Fault::kThrowAtomicLookup);
    EXPECT_THROW(doomed.Compute(q.all_predicates()), std::runtime_error);
  }  // `doomed` (and its Deadline) destroyed here

  ScopedFault slow(Fault::kSlowAtomicLookup);
  GetSelectivity gs(&q, &provider, nullptr);
  EXPECT_EQ(baseline, SubPlanTranscript(q, &gs));
}

}  // namespace
}  // namespace condsel
