// The three workloads. Each one builds its inputs from the seed during
// set-up (timed as setup_s, together with every exact cardinality, plan
// and reference estimate the output check needs), warms up, and then
// measures a window in which only requests run. WORKLOADS.md says why
// each workload exists and which layer metric should move which
// end-to-end metric.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "condsel/api.h"
#include "condsel/catalog/part_stats.h"
#include "condsel/common/numeric.h"
#include "condsel/common/rng.h"
#include "condsel/common/stats.h"
#include "condsel/datagen/snowflake.h"
#include "condsel/datagen/workload.h"
#include "condsel/exec/cardinality_cache.h"
#include "condsel/exec/evaluator.h"
#include "condsel/harness/metrics.h"
#include "condsel/optimizer/join_ordering.h"
#include "condsel/selectivity/atomic_provider.h"
#include "condsel/selectivity/error_function.h"
#include "condsel/selectivity/get_selectivity.h"
#include "condsel/service/service.h"
#include "condsel/sit/sit_builder.h"
#include "condsel/sit/sit_matcher.h"
#include "condsel/sit/sit_pool.h"
#include "perfbench.h"
#include "replay.h"

namespace perfbench {

using condsel::AtomicSelectivityProvider;
using condsel::Catalog;
using condsel::DiffError;
using condsel::GetSelectivity;
using condsel::GsStats;
using condsel::PredSet;
using condsel::Query;
using condsel::SitMatcher;
using condsel::SitPool;
using condsel::StatusOr;

namespace {

// Filters per statement (the paper's workloads use three) and the
// largest join expression a SIT is built over.
constexpr int kFilters = 3;
constexpr int kSitJoinPreds = 2;
// Histogram budget of every statistic (the paper's setting).
constexpr int kMaxBuckets = 200;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

// The database every workload runs on. The data is fixed by the scale;
// the seed draws statements, schedules and delta batches, so a held-out
// seed changes what is asked, not what is stored.
struct Database {
  explicit Database(double scale) {
    condsel::SnowflakeOptions opt;
    opt.scale = scale;
    catalog = condsel::BuildSnowflake(opt);
  }
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Catalog catalog;
  condsel::CardinalityCache cache;
  condsel::Evaluator evaluator{&catalog, &cache};
  condsel::SitBuilder builder{
      &evaluator,
      condsel::SitBuildOptions{condsel::HistogramType::kMaxDiff, kMaxBuckets}};
};

// `count` statements whose join counts cycle through `joins`.
std::vector<Query> Statements(Database* db, const std::vector<int>& joins,
                              int count, uint64_t seed) {
  std::vector<std::vector<Query>> by_joins;
  for (size_t k = 0; k < joins.size(); ++k) {
    condsel::WorkloadOptions w;
    w.num_queries = (count + static_cast<int>(joins.size() - 1 - k)) /
                    static_cast<int>(joins.size());
    w.num_joins = joins[k];
    w.num_filters = kFilters;
    w.seed = seed * 1000003ull + static_cast<uint64_t>(joins[k]);
    by_joins.push_back(
        condsel::GenerateWorkload(db->catalog, &db->evaluator, w));
  }
  std::vector<Query> out;
  for (size_t i = 0; out.size() < static_cast<size_t>(count); ++i) {
    for (const std::vector<Query>& group : by_joins) {
      if (i < group.size() && out.size() < static_cast<size_t>(count)) {
        out.push_back(group[i]);
      }
    }
  }
  return out;
}

// Everything the output check and the accuracy metrics need for one
// statement planned by the join-order optimizer: the sub-plans it asks
// for, their reference cardinalities (dense, indexed by predicate
// subset), the plan those estimates choose, its true-cost ratio, and
// the q-error of every sub-plan estimate. Every workload reports
// accuracy over this sub-plan family of its statements, so the q-error
// quantiles rest on thousands of estimates rather than one per
// statement.
struct PlanReference {
  std::vector<PredSet> requests;   // in the optimizer's request order
  std::vector<double> request_sel; // reference selectivity per request
  std::vector<double> card;        // reference cardinality by subset
  double estimated_cost = 0.0;     // C_out of the chosen plan
  double cost_ratio = 1.0;         // true C_out: chosen / optimal
  std::vector<double> qerrors;     // one per requested sub-plan
};

// Reference estimates come from a fresh GetSelectivity with no shape
// cache, asked in the reverse of the optimizer's order, so the check
// also covers memo-order independence.
PlanReference MakePlanReference(Database* db, const SitPool& pool,
                                const Query& q) {
  PlanReference ref;
  const condsel::JoinOrderOptimizer opt(&q, &db->catalog);
  opt.Optimize([&](PredSet p) {
    ref.requests.push_back(p);
    return 1.0;
  });
  SitMatcher matcher(&pool);
  matcher.BindQuery(&q);
  DiffError diff;
  AtomicSelectivityProvider provider(&matcher, &diff);
  GetSelectivity gs(&q, &provider);
  ref.card.assign(size_t{1} << q.num_predicates(),
                  std::numeric_limits<double>::quiet_NaN());
  std::vector<double> sel(ref.card.size(), 0.0);
  for (auto it = ref.requests.rbegin(); it != ref.requests.rend(); ++it) {
    sel[*it] = gs.Compute(*it).selectivity;
    ref.card[*it] = condsel::SanitizeCardinality(
        sel[*it] * condsel::CrossProductCardinality(db->catalog, q, *it));
  }
  for (PredSet p : ref.requests) ref.request_sel.push_back(sel[p]);
  const condsel::CardinalityFn estimate = [&](PredSet p) {
    return ref.card[p];
  };
  const condsel::CardinalityFn truth = [&](PredSet p) {
    return db->evaluator.Cardinality(q, p);
  };
  const condsel::PlanResult chosen = opt.Optimize(estimate);
  ref.estimated_cost = chosen.estimated_cost;
  const double best = opt.Cost(opt.Optimize(truth).tree, truth);
  const double cost = opt.Cost(chosen.tree, truth);
  ref.cost_ratio = best > 0.0 ? cost / best : 1.0;
  for (PredSet p : ref.requests) {
    ref.qerrors.push_back(QError(ref.card[p], truth(p)));
  }
  return ref;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// The cores this process may run on.
std::vector<int> AllowedCores() {
  std::vector<int> cores;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cores;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cores.push_back(c);
  }
  return cores;
}

// Moves the calling thread over `cores`, one core per period, and
// restores its affinity on destruction. On a shared host each core runs
// at its own, slowly changing speed (other tenants' load), and the
// scheduler keeps a lone thread on one core for seconds: without
// rotation a run's result depends on where it happened to land. Threads
// that share an epoch and use distinct offsets never share a core; a
// single-core list pins the thread.
class CoreRotation {
 public:
  CoreRotation(std::vector<int> cores, Clock::time_point epoch, int offset)
      : cores_(std::move(cores)), epoch_(epoch), offset_(offset) {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) {
      cores_.clear();
    }
    Tick(epoch_);
  }
  ~CoreRotation() {
    if (!cores_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
  }
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

  void Tick(Clock::time_point now) {
    if (cores_.empty()) return;
    const int64_t tick =
        std::chrono::duration_cast<std::chrono::milliseconds>(now - epoch_)
            .count() /
        kPeriodMs;
    if (tick == tick_ || (cores_.size() == 1 && tick_ >= 0)) return;
    tick_ = tick;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cores_[static_cast<size_t>(tick + offset_) % cores_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  static constexpr int64_t kPeriodMs = 50;
  std::vector<int> cores_;
  Clock::time_point epoch_;
  int offset_;
  cpu_set_t original_;
  int64_t tick_ = -1;
};

// Per-request accounting a window collects.
struct Window {
  std::vector<double> latency_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t degraded = 0;
  double seconds = 0.0;
  GsStats gs;                       // summed over gs_requests requests
  uint64_t gs_requests = 0;
  std::vector<double> gs_seconds;   // analysis + histogram per request
  uint64_t matcher_calls = 0;       // where the benchmark owns the matcher
  uint64_t allocs = 0;              // on request threads, traced run only
};

// What one workload hands to the shared reporting code.
struct Outcome {
  std::vector<double> setup_seconds;
  // Resident-memory high-water marks when set-up ends and when the
  // measured window ends (the bounded peak_rss_mb).
  double setup_rss_mb = 0.0;
  double window_rss_mb = 0.0;
  std::vector<double> qerrors;
  double plan_cost_ratio = 1.0;
  Window untraced;
  Window traced;               // trace mode only
  // Trace mode only: per pair of blocks that ran the same requests, the
  // traced block's extra time over the untraced block's.
  std::vector<double> pair_overhead;
  // Trace mode only: the traced window's tracers, the replay's, and the
  // replay's counts.
  std::vector<std::unique_ptr<Tracer>> tracers;
  std::unique_ptr<Tracer> replay_tracer;
  ReplayCounts replay;
  bool shape_cache = false;    // requests go through a shape cache
  bool owns_matcher = false;   // Window::matcher_calls is measured
  double merges_per_request = 0.0;
  // Values of kServiceLayers, by name (serve_with_deltas only).
  std::map<std::string, double> service_layers;
};

// Layer metrics only serve_with_deltas exercises; the other workloads
// report them as zero, so every traced run emits the same names.
const Metric kServiceLayers[] = {
    {"service.attempts_per_submit", 0.0, "count"},
    {"service.shed_share", 0.0, "share"},
    {"service.retries", 0.0, "count"},
    {"service.generator_lag_ms_p99", 0.0, "ms"},
    {"service.epochs_published", 0.0, "count"},
    {"service.live_epochs_max", 0.0, "count"},
    {"service.incoherent_snapshots", 0.0, "count"},
    {"part_stats.rebuilt_parts_per_delta", 0.0, "count"},
    {"part_stats.reused_entries_per_delta", 0.0, "count"},
    {"part_stats.parts", 0.0, "count"},
    {"delta_publish_ms_p50", 0.0, "ms"},
};

template <typename Fn>
Window ClosedLoop(double seconds, Fn&& request) {
  Window w;
  const auto start = Clock::now();
  CoreRotation rotation(AllowedCores(), start, 0);
  auto now = start;
  for (uint64_t i = 0; SecondsBetween(start, now) < seconds; ++i) {
    rotation.Tick(now);
    const auto t0 = Clock::now();
    const bool ok = request(i, &w);
    now = Clock::now();
    w.latency_s.push_back(SecondsBetween(t0, now));
    ++w.attempted;
    if (!ok) ++w.failed;
  }
  w.seconds = SecondsBetween(start, now);
  return w;
}

void AccountGs(const GsStats& s, Window* w) {
  condsel::AddGsStats(s, &w->gs);
  ++w->gs_requests;
  w->gs_seconds.push_back(s.analysis_seconds + s.histogram_seconds);
  if (s.degraded_subproblems > 0 || s.budget_exhausted) ++w->degraded;
}

// Repeats `build` `times` times, timing each; keeps the last instance.
template <typename State, typename Build>
std::unique_ptr<State> TimedSetups(int times, std::vector<double>* seconds,
                                   Build&& build) {
  std::unique_ptr<State> state;
  for (int i = 0; i < times; ++i) {
    state.reset();
    const auto t0 = Clock::now();
    state = build();
    seconds->push_back(SecondsBetween(t0, Clock::now()));
    if (state == nullptr) return nullptr;
  }
  return state;
}

// ------------------------------------------------------------------
// plan_join_order: an optimizer planning 5-7-way statements, one fresh
// Estimator session per statement, every sub-plan cardinality pulled
// through the facade. Closed loop, one thread.

struct PlanState {
  std::unique_ptr<Database> db;
  std::vector<Query> statements;
  std::unique_ptr<SitPool> pool;
  condsel::ShapeCache shapes;
  std::vector<PlanReference> refs;
};

bool PlanRequest(PlanState& s, size_t idx, Tracer* tr, uint64_t rid,
                 Window* w) {
  const Query& q = s.statements[idx];
  const PlanReference& ref = s.refs[idx];
  Scoped req(tr, kRequest, rid);
  condsel::Estimator est(&s.db->catalog, s.pool.get(),
                         condsel::Ranking::kDiff, condsel::EstimationBudget{},
                         &s.shapes);
  const condsel::JoinOrderOptimizer opt(&q, &s.db->catalog);
  int bad = 0;
  condsel::PlanResult plan;
  {
    Scoped o(tr, kOptimize, rid, req.id());
    plan = opt.Optimize([&](PredSet p) {
      Scoped a(tr, kApiEstimate, rid, o.id());
      const StatusOr<double> card = est.TryEstimateCardinality(q, p);
      if (!card.ok() || !CardinalityOk(*card, ref.card[p])) {
        ++bad;
        return 0.0;
      }
      return *card;
    });
  }
  if (!SameBits(plan.estimated_cost, ref.estimated_cost)) ++bad;
  if (const GsStats* gs = est.StatsFor(q)) AccountGs(*gs, w);
  return bad == 0;
}

// ------------------------------------------------------------------
// estimate_cold: one-shot full-query estimates of 3-way statements, a
// fresh GetSelectivity per estimate over a provider shared per
// statement on a single-part pool. Closed loop, one thread.

struct ColdState {
  std::unique_ptr<Database> db;
  std::vector<Query> statements;
  std::unique_ptr<SitPool> pool;
  DiffError diff;
  std::vector<std::unique_ptr<SitMatcher>> matchers;
  std::vector<std::unique_ptr<AtomicSelectivityProvider>> providers;
  std::vector<double> ref_sel;
  std::vector<double> cost_ratios;
  std::vector<double> qerrors;
};

bool ColdRequest(ColdState& s, size_t idx, Tracer* tr, uint64_t rid,
                 Window* w) {
  const Query& q = s.statements[idx];
  Scoped req(tr, kRequest, rid);
  const uint64_t calls0 = s.matchers[idx]->num_calls();
  GetSelectivity gs(&q, s.providers[idx].get());
  condsel::SelEstimate e;
  {
    Scoped c(tr, kGsCompute, rid, req.id());
    e = gs.Compute(q.all_predicates());
  }
  w->matcher_calls += s.matchers[idx]->num_calls() - calls0;
  AccountGs(gs.stats(), w);
  return SelectivityOk(e.selectivity, s.ref_sel[idx]);
}

// ------------------------------------------------------------------
// serve_with_deltas: EstimationService::Submit over partitioned
// statistics, open loop at a fixed offered rate from two session
// threads across four tenants, while one maintenance thread applies an
// insert+delete batch at a fixed period. Two session threads and the
// maintenance thread leave one core of a 4-core host to the rest of the
// system, so its work does not preempt a thread the run is timing.

constexpr int kSessionThreads = 2;
constexpr int kTenants = 4;
constexpr int kBaseParts = 4;
constexpr int kContents = 4;          // distinct rolling-part contents
constexpr double kRollingShare = 0.04;  // rolling part's share of rows
constexpr double kDeltaPeriodSeconds = 0.25;

struct ServeState {
  std::unique_ptr<Database> db;
  std::vector<Query> statements;
  std::unique_ptr<condsel::PartStatsMaintainer> maintainer;
  std::unique_ptr<condsel::EstimationService> service;
  condsel::TableId fact = condsel::kInvalidTableId;
  size_t rolling_rows = 0;
  // Rows of each rolling-part content; content k % kContents is live
  // after the k-th delta.
  std::vector<std::vector<std::vector<int64_t>>> contents;
  uint64_t deltas_applied = 0;
  uint64_t content_epoch = 0;  // epoch whose rolling part is content 0
  // ref[c][i]: reference selectivity of statement i under content c.
  std::vector<std::vector<double>> ref;
  std::vector<size_t> schedule;  // statement of request i
  std::vector<double> cost_ratios;
  std::vector<double> qerrors;
  size_t parts_at_start = 0;
  size_t rows_at_start = 0;
};

condsel::DeltaBatch NextBatch(const ServeState& s) {
  condsel::DeltaBatch batch;
  batch.table = s.fact;
  const size_t n = s.db->catalog.table(s.fact).num_rows();
  for (size_t r = n - s.rolling_rows; r < n; ++r) batch.delete_rows.push_back(r);
  batch.insert_rows =
      s.contents[static_cast<size_t>((s.deltas_applied + 1) % kContents)];
  return batch;
}

// Splits the fact table into kBaseParts sealed parts plus a rolling part
// that every delta replaces.
void PartitionFact(Database* db, condsel::TableId fact, size_t rolling_rows,
                   std::vector<int64_t>* first_rolling_flat) {
  const condsel::Table& old = db->catalog.table(fact);
  condsel::Table fresh(old.schema());
  const size_t n = old.num_rows();
  const size_t base = n - rolling_rows;
  const size_t per_part = (base + kBaseParts - 1) / kBaseParts;
  std::vector<int64_t> row(static_cast<size_t>(old.num_columns()));
  for (size_t r = 0; r < n; ++r) {
    for (condsel::ColumnId c = 0; c < old.num_columns(); ++c) {
      row[static_cast<size_t>(c)] = old.value(r, c);
    }
    if (r >= base) {
      first_rolling_flat->insert(first_rolling_flat->end(), row.begin(),
                                 row.end());
    }
    fresh.AppendRow(row);
    if ((r + 1 < base && (r + 1) % per_part == 0) || r + 1 == base ||
        r + 1 == n) {
      fresh.SealTail();
    }
  }
  db->catalog.mutable_table(fact) = std::move(fresh);
}

// Reference selectivities of every statement under the maintainer's
// current statistics.
std::vector<double> ServeReferences(const ServeState& s) {
  const StatusOr<std::shared_ptr<const SitPool>> pool =
      s.maintainer->MergedPool();
  std::vector<double> out;
  if (!pool.ok()) return out;
  DiffError diff;
  for (const Query& q : s.statements) {
    SitMatcher matcher(pool.value().get());
    matcher.BindQuery(&q);
    AtomicSelectivityProvider provider(&matcher, &diff);
    GetSelectivity gs(&q, &provider);
    out.push_back(gs.Compute(q.all_predicates()).selectivity);
  }
  return out;
}

// ------------------------------------------------------------------
// Reporting shared by the workloads.

struct LayerTotals {
  uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  std::vector<double> durations_s;
};

// Per span name: count, total and self time, and every duration, each
// duration less `span_cost` (the recording overhead, see
// EmptySpanSeconds).
std::vector<LayerTotals> Aggregate(const std::vector<const Tracer*>& tracers,
                                   double span_cost = 0.0) {
  std::vector<LayerTotals> out(kNumSpanNames);
  for (const Tracer* t : tracers) {
    const std::vector<double> self = SelfSeconds(t->spans());
    for (size_t i = 0; i < t->spans().size(); ++i) {
      const Span& sp = t->spans()[i];
      LayerTotals& l = out[static_cast<size_t>(sp.name)];
      const double d = std::max(
          0.0, static_cast<double>(sp.end_ns - sp.start_ns) * 1e-9 - span_cost);
      ++l.count;
      l.total_s += d;
      l.self_s += self[i];
      l.durations_s.push_back(d);
    }
  }
  return out;
}

double PerCall(const LayerTotals& l, uint64_t calls) {
  return calls > 0 ? l.total_s / static_cast<double>(calls) : 0.0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Median over consecutive blocks of kMinSamplesForP99 requests of each
// block's `p`-th percentile (every block's p99 has ten samples beyond
// it). A tail the program causes shows in every block; a burst of
// interference from other tenants of the host shows in a few, which the
// median sets aside. A partial last block is dropped.
double BlockPercentile(const std::vector<double>& samples, double p) {
  std::vector<double> per_block;
  for (size_t b = 0; b + kMinSamplesForP99 <= samples.size();
       b += kMinSamplesForP99) {
    per_block.push_back(condsel::Percentile(
        std::vector<double>(samples.begin() + static_cast<long>(b),
                            samples.begin() +
                                static_cast<long>(b + kMinSamplesForP99)),
        p));
  }
  return condsel::Median(std::move(per_block));
}

void ReportEndToEnd(const Outcome& o, const Window& w, Report* r) {
  const std::vector<double>& lat = w.latency_s;
  r->E2e("setup_s", condsel::Median(o.setup_seconds), "s");
  r->E2e("throughput_per_s",
         Ratio(static_cast<double>(w.attempted - w.failed), w.seconds), "1/s");
  r->E2e("latency_p50_ms", BlockPercentile(lat, 50.0) * 1e3, "ms");
  r->E2e("latency_p99_ms", BlockPercentile(lat, 99.0) * 1e3, "ms");
  const std::vector<double>& qe = o.qerrors;
  r->E2e("qerror_p50", condsel::Median(qe), "ratio");
  r->E2e("qerror_p95", condsel::Percentile(qe, 95.0), "ratio");
  r->E2e("plan_cost_ratio", o.plan_cost_ratio, "ratio");
  r->E2e("peak_rss_mb", o.window_rss_mb, "MB");
  std::printf("# peak_rss_setup_mb = %.6g MB\n", o.setup_rss_mb);
  std::printf("# latency samples: %zu in blocks of %zu (whole-window p50 "
              "%.6g ms, p99 %.6g ms)\n",
              lat.size(), kMinSamplesForP99, condsel::Median(lat) * 1e3,
              condsel::Percentile(lat, 99.0) * 1e3);
  std::printf("# qerror samples: %zu\n", qe.size());
  std::printf("# failed_share = %.6g share\n",
              Ratio(static_cast<double>(w.failed),
                    static_cast<double>(w.attempted)));
  std::printf("# degraded_share = %.6g share\n",
              Ratio(static_cast<double>(w.degraded),
                    static_cast<double>(w.attempted)));
  if (lat.size() < kMinSamplesForP99) {
    r->Fail("too few latency samples for p99: " + std::to_string(lat.size()));
  }
}

// Per-layer metrics from the traced window, the replay, and the
// library's own counters. Per-call times come from spans (real or
// replayed); counts per request come from the real run where the
// library exposes them, else from the replay, which mirrors it.
void ReportLayers(const Outcome& o, Report* r) {
  const Window& w = o.traced;
  const double reqs = static_cast<double>(std::max<uint64_t>(w.attempted, 1));
  const double gs_reqs =
      static_cast<double>(std::max<uint64_t>(w.gs_requests, 1));
  std::vector<const Tracer*> window_tracers;
  for (const auto& t : o.tracers) window_tracers.push_back(t.get());
  const std::vector<LayerTotals> real = Aggregate(window_tracers);
  const double span_cost = EmptySpanSeconds();
  const std::vector<LayerTotals> rep =
      Aggregate({o.replay_tracer.get()}, span_cost);
  const ReplayCounts& c = o.replay;
  const double rreqs = static_cast<double>(std::max<uint64_t>(c.requests, 1));
  const auto us = [](double s) { return s * 1e6; };
  const auto ms = [](double s) { return s * 1e3; };

  // api facade and optimizer: the benchmark's own spans.
  r->Layer("api.calls_per_request",
           static_cast<double>(real[kApiEstimate].count) / reqs, "count");
  r->Layer("api.call_us_p50", us(condsel::Median(real[kApiEstimate].durations_s)), "us");
  r->Layer("optimizer.self_ms_per_request", ms(real[kOptimize].self_s / reqs),
           "ms");

  // GetSelectivity: GsStats read after each request.
  const GsStats& g = w.gs;
  r->Layer("gs.compute_us_p50", us(condsel::Median(w.gs_seconds)), "us");
  r->Layer("gs.analysis_ms_per_request", ms(g.analysis_seconds / gs_reqs),
           "ms");
  r->Layer("gs.histogram_ms_per_request", ms(g.histogram_seconds / gs_reqs),
           "ms");
  r->Layer("gs.subproblems_per_request",
           static_cast<double>(g.subproblems) / gs_reqs, "count");
  r->Layer("gs.atomic_considered_per_request",
           static_cast<double>(g.atomic_considered) / gs_reqs, "count");
  r->Layer("gs.degraded_subproblems_per_request",
           static_cast<double>(g.degraded_subproblems) / gs_reqs, "count");
  r->Layer("memo.hit_ratio",
           Ratio(static_cast<double>(g.memo_hits),
                 static_cast<double>(g.memo_hits + g.subproblems)),
           "ratio");

  // shape_cache: GsStats hits/misses, CanonicalShapeKey by replay.
  const double key_calls_per_request = o.shape_cache ? 1.0 : 0.0;
  r->Layer("shape_cache.hit_ratio",
           Ratio(static_cast<double>(g.shape_cache_hits),
                 static_cast<double>(g.shape_cache_hits +
                                     g.shape_cache_misses)),
           "ratio");
  r->Layer("shape_cache.key_us_p50", us(condsel::Median(rep[kShapeKey].durations_s)), "us");

  // decomposer: a shape-cached session enumerates only on a miss.
  const double decomposer_calls =
      o.shape_cache ? static_cast<double>(g.shape_cache_misses) / gs_reqs
                    : static_cast<double>(c.decomposer_calls) / rreqs;
  r->Layer("decomposer.calls_per_request", decomposer_calls, "count");
  r->Layer("decomposer.candidates_per_call",
           Ratio(static_cast<double>(c.candidates),
                 static_cast<double>(c.decomposer_calls)),
           "count");
  const double decomposer_s =
      PerCall(rep[kDecomposer], c.decomposer_calls) * decomposer_calls;
  r->Layer("decomposer.us_per_request", us(decomposer_s), "us");

  // sit_matcher: SitMatcher::num_calls() where the benchmark owns the
  // matcher, else the replay's count; time per call by replay.
  const double matcher_calls =
      o.owns_matcher ? static_cast<double>(w.matcher_calls) / reqs
                     : static_cast<double>(c.matcher_calls) / rreqs;
  const double matcher_s =
      PerCall(rep[kMatcher], c.matcher_calls) * matcher_calls;
  r->Layer("sit_matcher.calls_per_request", matcher_calls, "count");
  r->Layer("sit_matcher.us_per_request", us(matcher_s), "us");

  // provider: Score calls are GsStats::atomic_considered. A Score's time
  // includes the matcher calls it makes (the matcher's own share, above,
  // is too close to a Score's whole cost to subtract reliably); an
  // Estimate's self time excludes the joins it makes, which the replay
  // times separately.
  const double score_calls =
      static_cast<double>(g.atomic_considered) / gs_reqs;
  const double score_s = PerCall(rep[kScore], c.score_calls) * score_calls;
  r->Layer("provider.score_calls_per_request", score_calls, "count");
  r->Layer("provider.score_us_per_request", us(score_s), "us");
  r->Layer("provider.feasible_ratio",
           Ratio(static_cast<double>(c.feasible),
                 static_cast<double>(c.score_calls)),
           "ratio");
  const double estimate_s =
      std::max(0.0, rep[kEstimate].total_s - rep[kJoin].total_s) / rreqs;
  r->Layer("provider.estimate_us_per_request", us(estimate_s), "us");

  // histogram: joins inside Estimate, merges inside each publish.
  const double join_s = rep[kJoin].total_s / rreqs;
  r->Layer("histogram.join_calls_per_request",
           static_cast<double>(c.join_calls) / rreqs, "count");
  r->Layer("histogram.join_us_per_request", us(join_s), "us");
  r->Layer("histogram.join_buckets_per_call",
           Ratio(static_cast<double>(c.join_buckets),
                 static_cast<double>(c.join_calls)),
           "count");
  const double merge_s =
      PerCall(rep[kMerge], c.merge_calls) * o.merges_per_request;
  r->Layer("histogram.merge_calls_per_request", o.merges_per_request,
           "count");
  r->Layer("histogram.merge_us_per_request", us(merge_s), "us");

  r->Layer("alloc.per_request", static_cast<double>(w.allocs) / reqs,
           "count");
  r->Layer("process.peak_rss_setup_mb", o.setup_rss_mb, "MB");
  r->Layer("failed_share",
           Ratio(static_cast<double>(w.failed), static_cast<double>(w.attempted)),
           "share");
  r->Layer("degraded_share",
           Ratio(static_cast<double>(w.degraded),
                 static_cast<double>(w.attempted)),
           "share");
  for (const Metric& m : kServiceLayers) {
    const auto it = o.service_layers.find(m.name);
    r->Layer(m.name, it == o.service_layers.end() ? 0.0 : it->second, m.unit);
  }

  // Tracing overhead and coverage.
  const double mean_untraced =
      Ratio(std::accumulate(o.untraced.latency_s.begin(),
                            o.untraced.latency_s.end(), 0.0),
            static_cast<double>(o.untraced.latency_s.size()));
  const double shape_key_s =
      PerCall(rep[kShapeKey], c.shape_keys) * key_calls_per_request;
  const double optimizer_s = real[kOptimize].self_s / reqs;
  const double accounted = optimizer_s + shape_key_s + decomposer_s +
                           score_s + estimate_s + join_s;
  r->Layer("trace.overhead_share", condsel::Median(o.pair_overhead), "share");
  r->Layer("trace.coverage_share", Ratio(accounted, mean_untraced), "share");
  r->Layer("trace.replay_mismatches", static_cast<double>(c.mismatches),
           "count");
  // Every replayed layer figure rests on the replay walking the search as
  // the estimator does; one that no longer reproduces it fails the run.
  if (c.mismatches > 0) {
    r->Fail("replay diverged from the estimator: " +
            std::to_string(c.mismatches) + " replayed estimate(s) differ");
  }
  uint64_t spans = 0;
  for (const auto& t : o.tracers) spans += t->spans().size();
  spans += o.replay_tracer->spans().size();
  r->Layer("trace.spans", static_cast<double>(spans), "count");

  // The self-time table: every layer's count and self time per request.
  std::printf("# traced run: %llu requests traced, %llu replayed\n",
              static_cast<unsigned long long>(w.attempted),
              static_cast<unsigned long long>(c.requests));
  std::printf("# %-22s %14s %16s\n", "layer", "calls/request",
              "self ms/request");
  const auto row = [](const char* layer, double calls, double self_s) {
    std::printf("# %-22s %14.3f %16.5f\n", layer, calls, self_s * 1e3);
  };
  const double request_self = real[kRequest].self_s / reqs;
  const double submit_s = real[kServiceSubmit].total_s / reqs;
  const double api_s = real[kApiEstimate].total_s / reqs;
  const double compute_s = real[kGsCompute].total_s / reqs;
  const double inner =
      shape_key_s + decomposer_s + score_s + estimate_s + join_s;
  row("request (benchmark)", 1.0, request_self);
  row("optimizer", real[kOptimize].count / reqs, optimizer_s);
  row("api (minus inner)", real[kApiEstimate].count / reqs,
      std::max(0.0, api_s - (api_s > 0 ? inner : 0.0)));
  row("gs (minus inner)", real[kGsCompute].count / reqs,
      std::max(0.0, compute_s - (compute_s > 0 ? inner : 0.0)));
  row("service (minus inner)", real[kServiceSubmit].count / reqs,
      std::max(0.0, submit_s - (submit_s > 0 ? inner : 0.0)));
  row("shape_cache", key_calls_per_request, shape_key_s);
  row("decomposer", decomposer_calls, decomposer_s);
  row("provider.score", score_calls, score_s);
  row("  of which sit_matcher", matcher_calls, matcher_s);
  row("provider.estimate", static_cast<double>(c.estimate_calls) / rreqs,
      estimate_s);
  row("histogram.join", static_cast<double>(c.join_calls) / rreqs, join_s);
  row("histogram.merge", o.merges_per_request, merge_s);
  std::printf("# untraced p50 %.5f ms, traced p50 %.5f ms over %zu block "
              "pairs; empty span %.1f ns\n",
              condsel::Median(o.untraced.latency_s) * 1e3,
              condsel::Median(w.latency_s) * 1e3, o.pair_overhead.size(),
              span_cost * 1e9);
}

// The traced run measures untraced and traced requests in one window,
// in pairs of blocks that run the same requests: one block untraced, one
// traced, the traced one first in every other pair. The host's speed
// drifts over seconds and a pair lasts tens of milliseconds, so the two
// blocks of a pair see about the same host; trace.overhead_share is the
// median over pairs of the traced block's extra time.
constexpr double kTraceBlockSeconds = 0.01;

// Whether request `i` of an interleaved window is traced, and which
// request of the untraced schedule it repeats, for blocks of `block`.
bool InTracedBlock(uint64_t i, uint64_t block) {
  const uint64_t pair = i / (2 * block);
  return ((i / block) % 2 == 0) == (pair % 2 == 0);
}
uint64_t PairedRequest(uint64_t i, uint64_t block) {
  return i / (2 * block) * block + i % block;
}

// Per complete pair of blocks: (traced - untraced) / untraced, over the
// sums of the blocks' latencies, in request order.
std::vector<double> PairOverheads(const std::vector<double>& latency_s,
                                  uint64_t block) {
  std::vector<double> out;
  for (uint64_t p = 0; (p + 1) * 2 * block <= latency_s.size(); ++p) {
    double sum[2] = {0.0, 0.0};
    for (uint64_t i = p * 2 * block; i < (p + 1) * 2 * block; ++i) {
      sum[InTracedBlock(i, block) ? 1 : 0] += latency_s[i];
    }
    out.push_back(Ratio(sum[1] - sum[0], sum[0]));
  }
  return out;
}

// The closed-loop measurement both single-threaded workloads share:
// warm-up, then one window, untraced or (in a traced run) interleaved,
// then in a traced run the replay. `request(i, tracer, window)` runs
// request i and returns whether its output passed the check;
// `replay(replayer)` replays every statement once.
template <typename Request, typename ReplayAll>
void MeasureClosedLoop(const Options& opt, Outcome* o, Request&& request,
                       ReplayAll&& replay, const SitPool* pool) {
  Tracer off(false);
  const auto untraced = [&](uint64_t i, Window* w) {
    return request(i, &off, w);
  };
  const Window warmup =
      ClosedLoop(std::min(1.0, opt.seconds / 4), untraced);
  if (!opt.trace) {
    o->untraced = ClosedLoop(opt.seconds, untraced);
    o->window_rss_mb = PeakRssMb();
    return;
  }
  const uint64_t block = std::max<uint64_t>(
      1, static_cast<uint64_t>(kTraceBlockSeconds *
                               static_cast<double>(warmup.attempted) /
                               warmup.seconds));
  o->tracers.push_back(std::make_unique<Tracer>(true, size_t{1} << 18));
  Tracer* traced = o->tracers.back().get();
  std::vector<double> latency_s;
  const auto start = Clock::now();
  CoreRotation rotation(AllowedCores(), start, 0);
  auto now = start;
  for (uint64_t i = 0; i % (2 * block) != 0 ||
                       SecondsBetween(start, now) < opt.seconds;
       ++i) {
    // Both blocks of a pair run on one core.
    if (i % (2 * block) == 0) rotation.Tick(now);
    const bool on = InTracedBlock(i, block);
    Window* w = on ? &o->traced : &o->untraced;
    SetAllocCounting(on);
    const uint64_t a0 = ThreadAllocCount();
    const auto t0 = Clock::now();
    const bool ok = request(PairedRequest(i, block), on ? traced : &off, w);
    now = Clock::now();
    SetAllocCounting(false);
    w->allocs += ThreadAllocCount() - a0;
    latency_s.push_back(SecondsBetween(t0, now));
    w->latency_s.push_back(latency_s.back());
    ++w->attempted;
    if (!ok) ++w->failed;
  }
  o->untraced.seconds = o->traced.seconds = SecondsBetween(start, now) / 2;
  o->window_rss_mb = PeakRssMb();
  o->pair_overhead = PairOverheads(latency_s, block);
  o->replay_tracer = std::make_unique<Tracer>(true);
  Replayer replayer(pool, o->replay_tracer.get());
  replay(&replayer);
  o->replay = replayer.counts();
}

// ------------------------------------------------------------------

bool RunPlan(const Options& opt, Outcome* o, Report* r) {
  const int n = opt.statements > 0 ? opt.statements : 200;
  std::unique_ptr<PlanState> s = TimedSetups<PlanState>(
      kSetups, &o->setup_seconds, [&]() {
        auto st = std::make_unique<PlanState>();
        st->db = std::make_unique<Database>(opt.scale);
        st->statements = Statements(st->db.get(), {5, 6, 7}, n, opt.seed);
        st->pool = std::make_unique<SitPool>(condsel::GenerateSitPool(
            st->statements, kSitJoinPreds, st->db->builder));
        for (const Query& q : st->statements) {
          st->refs.push_back(MakePlanReference(st->db.get(), *st->pool, q));
        }
        return st;
      });
  o->setup_rss_mb = PeakRssMb();
  std::vector<double> ratios;
  for (const PlanReference& ref : s->refs) {
    ratios.push_back(ref.cost_ratio);
    o->qerrors.insert(o->qerrors.end(), ref.qerrors.begin(),
                      ref.qerrors.end());
  }
  o->plan_cost_ratio = condsel::GeometricMean(ratios);
  o->shape_cache = true;

  // Negative self-test: one perturbed reference must fail the check.
  {
    Tracer off(false);
    Window scratch;
    PlanReference& ref = s->refs[0];
    const PredSet p = ref.requests.back();
    const double saved = ref.card[p];
    ref.card[p] = std::nextafter(saved, std::numeric_limits<double>::max());
    const bool passed = PlanRequest(*s, 0, &off, 0, &scratch);
    ref.card[p] = saved;
    if (passed) r->Fail("negative self-test: perturbed reference not caught");
  }

  const size_t count = s->statements.size();
  MeasureClosedLoop(
      opt, o,
      [&](uint64_t i, Tracer* tr, Window* w) {
        return PlanRequest(*s, i % count, tr, i, w);
      },
      [&](Replayer* replayer) {
        for (size_t i = 0; i < count; ++i) {
          replayer->ReplayRequest(s->statements[i], s->refs[i].requests,
                                  s->refs[i].request_sel, /*shape_key=*/true,
                                  i);
        }
      },
      s->pool.get());
  return true;
}

bool RunCold(const Options& opt, Outcome* o, Report* r) {
  const int n = opt.statements > 0 ? opt.statements : 300;
  std::unique_ptr<ColdState> s = TimedSetups<ColdState>(
      kSetups, &o->setup_seconds, [&]() {
        auto st = std::make_unique<ColdState>();
        st->db = std::make_unique<Database>(opt.scale);
        st->statements = Statements(st->db.get(), {3}, n, opt.seed);
        st->pool = std::make_unique<SitPool>(condsel::GenerateSitPool(
            st->statements, kSitJoinPreds, st->db->builder));
        for (const Query& q : st->statements) {
          auto m = std::make_unique<SitMatcher>(st->pool.get());
          m->BindQuery(&q);
          st->providers.push_back(
              std::make_unique<AtomicSelectivityProvider>(m.get(), &st->diff));
          st->matchers.push_back(std::move(m));
          // Reference: a fresh search with its own matcher, so the
          // shared one's call counter starts at zero for the run.
          SitMatcher ref_matcher(st->pool.get());
          ref_matcher.BindQuery(&q);
          AtomicSelectivityProvider ref_provider(&ref_matcher, &st->diff);
          GetSelectivity gs(&q, &ref_provider);
          const double sel = gs.Compute(q.all_predicates()).selectivity;
          st->ref_sel.push_back(sel);
          const PlanReference plan = MakePlanReference(st->db.get(), *st->pool, q);
          st->cost_ratios.push_back(plan.cost_ratio);
          st->qerrors.insert(st->qerrors.end(), plan.qerrors.begin(),
                             plan.qerrors.end());
        }
        return st;
      });
  o->setup_rss_mb = PeakRssMb();
  o->qerrors = s->qerrors;
  o->plan_cost_ratio = condsel::GeometricMean(s->cost_ratios);
  o->owns_matcher = true;

  {
    Tracer off(false);
    Window scratch;
    const double saved = s->ref_sel[0];
    s->ref_sel[0] = std::nextafter(saved, 2.0);
    const bool passed = ColdRequest(*s, 0, &off, 0, &scratch);
    s->ref_sel[0] = saved;
    if (passed) r->Fail("negative self-test: perturbed reference not caught");
  }

  const size_t count = s->statements.size();
  MeasureClosedLoop(
      opt, o,
      [&](uint64_t i, Tracer* tr, Window* w) {
        return ColdRequest(*s, i % count, tr, i, w);
      },
      [&](Replayer* replayer) {
        for (size_t i = 0; i < count; ++i) {
          const Query& q = s->statements[i];
          replayer->ReplayRequest(q, {q.all_predicates()}, {s->ref_sel[i]},
                                  /*shape_key=*/false, i);
        }
      },
      s->pool.get());
  return true;
}

// One session thread's share of the open-loop schedule.
struct SessionResult {
  uint64_t completed = 0;  // measured requests with an OK status
  uint64_t attempts = 0;   // service attempts of those
  uint64_t allocs = 0;     // in traced requests
  std::vector<std::string> errors;
};

// How one request of the open loop ended.
enum RequestFlag : uint8_t { kFailed = 1, kDegraded = 2 };

struct ServeWindow {
  // Every measured request, or in a traced run the untraced blocks'.
  Window window;
  Window traced;                      // traced run: the traced blocks
  std::vector<double> pair_overhead;  // traced run, see PairOverheads
  uint64_t requests = 0;              // every measured request
  uint64_t warmup_failed = 0;
  std::vector<double> lag_s;
  uint64_t completed = 0;
  uint64_t attempts = 0;
  std::vector<double> publish_s;
  std::vector<condsel::DeltaReport> reports;
  size_t live_epochs_max = 0;
  condsel::ServiceStatsSnapshot before;
  condsel::ServiceStatsSnapshot after;
  std::vector<std::string> errors;
};

// Runs the open loop and the delta stream for `warmup_seconds`, unmeasured,
// then for `seconds`, measured. Warm-up and measurement share one set of
// threads: a thread started later would take over a malloc arena another
// thread had grown, and which one it takes depends on timing, so the
// resident-memory peak of the same code moved by about 7 MB between runs.
// With `traced`, measured requests alternate between untraced and traced
// blocks of kTraceBlockSeconds' worth of requests, each pair of blocks
// asking the same statements; the traced blocks record spans into
// tracers appended to `tracers`.
ServeWindow ServeOpenLoop(ServeState& s, double warmup_seconds,
                          double seconds, double rate, bool traced,
                          std::vector<std::unique_ptr<Tracer>>* tracers) {
  ServeWindow out;
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto due_at = [&](uint64_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(i) / rate));
  };
  const uint64_t warm = static_cast<uint64_t>(warmup_seconds * rate);
  const uint64_t total = warm + static_cast<uint64_t>(seconds * rate);
  const auto measure_from = due_at(warm);
  const uint64_t block = std::max<uint64_t>(
      1, static_cast<uint64_t>(kTraceBlockSeconds * rate));
  std::atomic<uint64_t> next{0};
  // Indexed by request, so the window keeps the schedule's order.
  std::vector<double> latency_s(total, 0.0);
  std::vector<uint8_t> flags(total, 0);
  std::vector<double> lag_s(total, 0.0);
  std::vector<SessionResult> results(kSessionThreads);
  std::vector<Tracer*> session_tracers;
  for (int t = 0; t < kSessionThreads; ++t) {
    tracers->push_back(std::make_unique<Tracer>(traced, size_t{1} << 14));
    session_tracers.push_back(tracers->back().get());
  }
  tracers->push_back(std::make_unique<Tracer>(traced));
  Tracer* maintenance_tracer = tracers->back().get();
  std::atomic<bool> stop{false};
  std::atomic<bool> delta_failed{false};
  // The maintenance thread keeps one core to itself; the session threads
  // rotate over the others in lockstep, so no two threads share a core.
  std::vector<int> session_cores = AllowedCores();
  std::vector<int> maintenance_core;
  if (session_cores.size() > kSessionThreads) {
    maintenance_core.push_back(session_cores.back());
    session_cores.pop_back();
  }
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kSessionThreads; ++t) {
      threads.emplace_back([&, t]() {
        SessionResult& res = results[static_cast<size_t>(t)];
        Tracer off(false);
        CoreRotation rotation(session_cores, start, t);
        // The threads share one schedule: each takes the next request
        // not yet taken, so a thread stalled on one request does not hold
        // back the requests due after it while another thread is free.
        for (uint64_t i = next.fetch_add(1); i < total; i = next.fetch_add(1)) {
          const auto due = due_at(i);
          rotation.Tick(Clock::now());
          // Spin until the due time instead of sleeping: on a shared host
          // a parked core wakes late by as much as milliseconds when the
          // host is busy, and runs the request on caches other tenants
          // have used meanwhile; both moved p99 between runs.
          while (Clock::now() < due) {
          }
          const auto sent = Clock::now();
          const bool measured = i >= warm;
          const bool on = traced && measured && InTracedBlock(i - warm, block);
          Tracer* tr = on ? session_tracers[static_cast<size_t>(t)] : &off;
          const uint64_t rid =
              traced && measured ? warm + PairedRequest(i - warm, block) : i;
          const size_t idx = s.schedule[rid % s.schedule.size()];
          SetAllocCounting(on);
          const uint64_t a0 = ThreadAllocCount();
          const std::string tenant =
              "tenant" + std::to_string(rid % kTenants);
          bool ok = false;
          {
            Scoped req(tr, kRequest, rid);
            Scoped sub(tr, kServiceSubmit, rid, req.id());
            const StatusOr<condsel::ServiceEstimate> e =
                s.service->Submit(tenant, s.statements[idx]);
            if (e.ok()) {
              const uint64_t content =
                  (e.value().epoch - s.content_epoch) % kContents;
              ok = e.value().epoch >= s.content_epoch &&
                   SelectivityOk(e.value().selectivity, s.ref[content][idx]);
              if (measured) {
                ++res.completed;
                res.attempts += static_cast<uint64_t>(e.value().attempts);
              }
              if (e.value().degraded) flags[i] |= kDegraded;
            } else if (res.errors.size() < 3) {
              res.errors.push_back(e.status().ToString());
            }
          }
          const auto done = Clock::now();
          SetAllocCounting(false);
          res.allocs += ThreadAllocCount() - a0;
          latency_s[i] = SecondsBetween(due, done);
          lag_s[i] = SecondsBetween(due, sent);
          if (!ok) flags[i] |= kFailed;
        }
      });
    }
    threads.emplace_back([&]() {
      const CoreRotation pin(maintenance_core, start, 0);
      Tracer off(false);
      uint64_t k = 0;
      while (!stop.load()) {
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         (static_cast<double>(k) + 0.5) *
                                         kDeltaPeriodSeconds));
        if (SecondsBetween(start, due) >= warmup_seconds + seconds) break;
        std::this_thread::sleep_until(due);
        if (stop.load()) break;
        const bool measured = due >= measure_from;
        const condsel::DeltaBatch batch = NextBatch(s);
        const auto t0 = Clock::now();
        const StatusOr<condsel::DeltaReport> report = [&]() {
          Scoped d(measured ? maintenance_tracer : &off, kServiceApplyDelta,
                   k);
          return s.service->ApplyDelta(batch);
        }();
        if (measured) out.publish_s.push_back(SecondsBetween(t0, Clock::now()));
        if (!report.ok()) {
          delta_failed.store(true);
          out.errors.push_back("ApplyDelta: " + report.status().ToString());
          break;
        }
        ++s.deltas_applied;
        if (measured) out.reports.push_back(*report);
        out.live_epochs_max =
            std::max(out.live_epochs_max, s.service->live_epochs());
        ++k;
      }
    });
    // The service's counters are read when the measured window starts
    // (requests of the warm-up may still be in flight), and after it.
    std::this_thread::sleep_until(measure_from);
    out.before = s.service->Stats();
    // Session threads end when their schedule is done; then the
    // maintenance thread is told to stop.
    for (int t = 0; t < kSessionThreads; ++t) {
      threads[static_cast<size_t>(t)].join();
    }
    stop.store(true);
  }
  const double elapsed = SecondsBetween(measure_from, Clock::now());
  out.requests = total - warm;
  for (uint64_t i = 0; i < warm; ++i) {
    if (flags[i] & kFailed) ++out.warmup_failed;
  }
  out.lag_s.assign(lag_s.begin() + static_cast<long>(warm), lag_s.end());
  for (uint64_t i = warm; i < total; ++i) {
    Window& w = traced && InTracedBlock(i - warm, block) ? out.traced
                                                         : out.window;
    w.latency_s.push_back(latency_s[i]);
    ++w.attempted;
    if (flags[i] & kFailed) ++w.failed;
    if (flags[i] & kDegraded) ++w.degraded;
  }
  out.window.seconds = traced ? elapsed / 2 : elapsed;
  out.traced.seconds = elapsed / 2;
  for (SessionResult& res : results) {
    out.traced.allocs += res.allocs;
    out.completed += res.completed;
    out.attempts += res.attempts;
    out.errors.insert(out.errors.end(), res.errors.begin(), res.errors.end());
  }
  if (delta_failed.load()) out.window.failed += 1;
  if (traced) {
    out.pair_overhead = PairOverheads(
        std::vector<double>(latency_s.begin() + static_cast<long>(warm),
                            latency_s.end()),
        block);
  }
  out.after = s.service->Stats();
  // The service exposes only the aggregate search statistics over every
  // request it completed in the window, so the per-request
  // GetSelectivity time is their mean.
  Window& searched = traced ? out.traced : out.window;
  searched.gs = condsel::DiffGsStats(out.after.search, out.before.search);
  searched.gs_requests = out.after.completed - out.before.completed;
  if (searched.gs_requests > 0) {
    searched.gs_seconds.push_back(
        (searched.gs.analysis_seconds + searched.gs.histogram_seconds) /
        static_cast<double>(searched.gs_requests));
  }
  return out;
}

bool RunServe(const Options& opt, Outcome* o, Report* r) {
  const int n = opt.statements > 0 ? opt.statements : 300;
  // About a quarter of the capacity of the two session threads on a
  // 4-core host (4,000 Submits/s with the delta stream): at half capacity
  // the host's slow phases saturated the queue and p99 varied 3x between
  // runs.
  const double rate = opt.rate > 0.0 ? opt.rate : 1000.0;
  std::unique_ptr<ServeState> s = TimedSetups<ServeState>(
      kSetups, &o->setup_seconds, [&]() -> std::unique_ptr<ServeState> {
        auto st = std::make_unique<ServeState>();
        st->db = std::make_unique<Database>(opt.scale);
        st->statements = Statements(st->db.get(), {2, 3}, n, opt.seed);
        st->fact = st->db->catalog.FindTable("fact");
        const size_t rows = st->db->catalog.table(st->fact).num_rows();
        st->rolling_rows = static_cast<size_t>(
            std::max(1.0, std::round(kRollingShare * static_cast<double>(rows))));
        std::vector<int64_t> flat;
        PartitionFact(st->db.get(), st->fact, st->rolling_rows, &flat);
        const size_t cols = static_cast<size_t>(
            st->db->catalog.table(st->fact).num_columns());
        // Content 0 is the rolling part as loaded; the others copy rows
        // drawn from the base parts, so every delta keeps the data's
        // distribution and foreign keys.
        condsel::Rng rng(opt.seed * 7919ull + 17);
        st->contents.resize(kContents);
        for (size_t i = 0; i < st->rolling_rows; ++i) {
          st->contents[0].emplace_back(flat.begin() + static_cast<long>(i * cols),
                                       flat.begin() + static_cast<long>((i + 1) * cols));
        }
        const condsel::Table& fact = st->db->catalog.table(st->fact);
        const size_t base_rows = fact.num_rows() - st->rolling_rows;
        for (int c = 1; c < kContents; ++c) {
          for (size_t i = 0; i < st->rolling_rows; ++i) {
            const size_t src = static_cast<size_t>(rng.NextBelow(base_rows));
            std::vector<int64_t> row(cols);
            for (size_t k = 0; k < cols; ++k) {
              row[k] = fact.value(src, static_cast<condsel::ColumnId>(k));
            }
            st->contents[static_cast<size_t>(c)].push_back(std::move(row));
          }
        }
        st->parts_at_start = fact.num_parts();
        st->rows_at_start = fact.num_rows();

        st->maintainer = std::make_unique<condsel::PartStatsMaintainer>(
            &st->db->catalog, st->statements, kSitJoinPreds,
            condsel::SitBuildOptions{condsel::HistogramType::kMaxDiff,
                                     kMaxBuckets});
        condsel::ServiceOptions so;
        so.admission.max_concurrent = kSessionThreads;
        st->service = std::make_unique<condsel::EstimationService>(so);
        const StatusOr<uint64_t> first =
            st->service->EnableDeltaMaintenance(st->maintainer.get());
        if (!first.ok()) {
          r->Fail("EnableDeltaMaintenance: " + first.status().ToString());
          return nullptr;
        }
        const StatusOr<std::shared_ptr<const SitPool>> pool0 =
            st->maintainer->MergedPool();
        if (!pool0.ok()) {
          r->Fail("MergedPool: " + pool0.status().ToString());
          return nullptr;
        }
        st->ref.push_back(ServeReferences(*st));
        if (st->ref[0].size() != st->statements.size()) {
          r->Fail("MergedPool failed in set-up");
          return nullptr;
        }
        // Accuracy and plan quality on the first epoch's data, before any
        // delta (the truth cache is keyed by predicates alone).
        for (const Query& q : st->statements) {
          const PlanReference plan =
              MakePlanReference(st->db.get(), *pool0.value(), q);
          st->cost_ratios.push_back(plan.cost_ratio);
          st->qerrors.insert(st->qerrors.end(), plan.qerrors.begin(),
                             plan.qerrors.end());
        }
        // Walk the delta cycle once: references for every content, and a
        // check that statistics are a function of the data alone (the
        // cycle's return to content 0 reproduces its references).
        uint64_t epoch = *first;
        for (int k = 1; k <= kContents; ++k) {
          const StatusOr<condsel::DeltaReport> rep =
              st->service->ApplyDelta(NextBatch(*st));
          if (!rep.ok()) {
            r->Fail("ApplyDelta in set-up: " + rep.status().ToString());
            return nullptr;
          }
          ++st->deltas_applied;
          if (st->service->current_epoch() != ++epoch) {
            r->Fail("ApplyDelta did not publish exactly one epoch");
            return nullptr;
          }
          std::vector<double> refs = ServeReferences(*st);
          if (refs.size() != st->statements.size()) {
            r->Fail("MergedPool failed in set-up");
            return nullptr;
          }
          if (k < kContents) {
            st->ref.push_back(std::move(refs));
          } else if (refs.size() != st->ref[0].size() ||
                     !std::equal(refs.begin(), refs.end(), st->ref[0].begin(),
                                 SameBits)) {
            r->Fail("statistics after a full delta cycle differ from the "
                    "first epoch's");
            return nullptr;
          }
        }
        st->content_epoch = epoch;
        condsel::Rng pick(opt.seed * 104729ull + 3);
        st->schedule.resize(65536);
        for (size_t& idx : st->schedule) {
          idx = static_cast<size_t>(pick.NextBelow(st->statements.size()));
        }
        return st;
      });
  if (s == nullptr) return false;
  o->setup_rss_mb = PeakRssMb();
  o->qerrors = s->qerrors;
  o->plan_cost_ratio = condsel::GeometricMean(s->cost_ratios);
  o->shape_cache = true;

  // Negative self-test: a perturbed reference must fail the check.
  {
    const size_t idx = s->schedule[0];
    const std::vector<std::vector<double>> saved = s->ref;
    for (std::vector<double>& refs : s->ref) {
      refs[idx] = std::nextafter(refs[idx], 2.0);
    }
    const StatusOr<condsel::ServiceEstimate> e =
        s->service->Submit("selftest", s->statements[idx]);
    const uint64_t content = e.ok() ? (e.value().epoch - s->content_epoch) % kContents
                                    : 0;
    if (e.ok() && SelectivityOk(e.value().selectivity, s->ref[content][idx])) {
      r->Fail("negative self-test: perturbed reference not caught");
    }
    s->ref = saved;
  }
  // Warm-up: every statement once (fills the shared shape cache).
  if (s->service->Prewarm("warmup", s->statements) != s->statements.size()) {
    r->Fail("warm-up submits failed");
  }

  std::vector<std::unique_ptr<Tracer>> untraced_tracers;
  ServeWindow main = ServeOpenLoop(
      *s, std::min(1.0, opt.seconds / 4), opt.seconds, rate, opt.trace,
      opt.trace ? &o->tracers : &untraced_tracers);
  o->window_rss_mb = PeakRssMb();
  o->untraced = main.window;
  for (const std::string& e : main.errors) r->Fail(e);
  if (main.warmup_failed > 0) r->Fail("warm-up requests failed the check");
  if (opt.trace) {
    o->traced = main.traced;
    o->pair_overhead = main.pair_overhead;
  }
  std::printf("# offered rate %.1f/s from %d session threads, %d tenants; "
              "%zu deltas\n",
              rate, kSessionThreads, kTenants, main.publish_s.size());

  // Books, torn snapshots, and the steady delta stream.
  const condsel::ServiceStatsSnapshot st = s->service->Stats();
  if (st.submitted != st.completed + st.failed) {
    r->Fail("service books do not balance: submitted " +
            std::to_string(st.submitted) + " != completed " +
            std::to_string(st.completed) + " + failed " +
            std::to_string(st.failed));
  }
  if (st.incoherent_snapshots != 0) r->Fail("incoherent snapshots observed");
  const condsel::Table& fact = s->db->catalog.table(s->fact);
  std::printf("# part_stats.parts at start %zu, at end %zu; rows %zu -> %zu\n",
              s->parts_at_start, fact.num_parts(), s->rows_at_start,
              fact.num_rows());
  if (fact.num_parts() != s->parts_at_start ||
      fact.num_rows() != s->rows_at_start) {
    r->Fail("delta stream changed the fact table's part or row count");
  }

  const std::vector<double>& publish = main.publish_s;
  std::printf("# delta_publish_ms_p50 = %.6g ms (%zu deltas)\n",
              condsel::Median(publish) * 1e3, publish.size());
  if (!opt.trace) return true;

  const double reqs = static_cast<double>(std::max<uint64_t>(main.requests, 1));
  const condsel::ServiceStatsSnapshot& a = main.after;
  const condsel::ServiceStatsSnapshot& b = main.before;
  const double submitted = static_cast<double>(a.submitted - b.submitted);
  const double shed =
      static_cast<double>((a.rejected_quota - b.rejected_quota) +
                          (a.rejected_queue_full - b.rejected_queue_full) +
                          (a.queue_timeouts - b.queue_timeouts));
  const std::vector<double>& lag = main.lag_s;
  double rebuilt = 0.0;
  double reused = 0.0;
  for (const condsel::DeltaReport& rep : main.reports) {
    rebuilt += static_cast<double>(rep.rebuilt_parts.size());
    reused += static_cast<double>(rep.reused_entries);
  }
  const double deltas =
      static_cast<double>(std::max<size_t>(main.reports.size(), 1));
  o->replay_tracer = std::make_unique<Tracer>(true);
  const StatusOr<std::shared_ptr<const SitPool>> pool =
      s->maintainer->MergedPool();
  if (!pool.ok()) {
    r->Fail("MergedPool: " + pool.status().ToString());
    return false;
  }
  Replayer replayer(pool.value().get(), o->replay_tracer.get());
  const uint64_t content = (s->service->current_epoch() - s->content_epoch) %
                           kContents;
  for (size_t i = 0; i < s->statements.size(); ++i) {
    const Query& q = s->statements[i];
    replayer.ReplayRequest(q, {q.all_predicates()}, {s->ref[content][i]},
                           /*shape_key=*/true, i);
  }
  const uint64_t merges_per_publish =
      replayer.ReplayMerges(kMaxBuckets, s->statements.size());
  o->replay = replayer.counts();
  o->merges_per_request = static_cast<double>(merges_per_publish) *
                          static_cast<double>(main.reports.size()) / reqs;
  o->service_layers = {
      {"service.attempts_per_submit",
       Ratio(static_cast<double>(main.attempts),
             static_cast<double>(main.completed))},
      {"service.shed_share", Ratio(shed, submitted)},
      {"service.retries", static_cast<double>(a.retries - b.retries)},
      {"service.generator_lag_ms_p99", condsel::Percentile(lag, 99.0) * 1e3},
      {"service.epochs_published",
       static_cast<double>(a.epochs_published - b.epochs_published)},
      {"service.live_epochs_max", static_cast<double>(main.live_epochs_max)},
      {"service.incoherent_snapshots",
       static_cast<double>(a.incoherent_snapshots)},
      {"part_stats.rebuilt_parts_per_delta", rebuilt / deltas},
      {"part_stats.reused_entries_per_delta", reused / deltas},
      {"part_stats.parts", static_cast<double>(fact.num_parts())},
      {"delta_publish_ms_p50", condsel::Median(publish) * 1e3},
  };
  return true;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "plan_join_order", "estimate_cold", "serve_with_deltas"};
  return kNames;
}

bool RunWorkload(const Options& opt, Report* r) {
  Outcome o;
  bool ok = false;
  if (opt.workload == "plan_join_order") {
    ok = RunPlan(opt, &o, r);
  } else if (opt.workload == "estimate_cold") {
    ok = RunCold(opt, &o, r);
  } else if (opt.workload == "serve_with_deltas") {
    ok = RunServe(opt, &o, r);
  }
  if (!ok) return false;
  r->attempted = o.untraced.attempted + (opt.trace ? o.traced.attempted : 0);
  r->failed = o.untraced.failed + (opt.trace ? o.traced.failed : 0);
  if (r->failed > 0) {
    r->Fail(std::to_string(r->failed) + " request(s) failed the output check");
  }
  ReportEndToEnd(o, o.untraced, r);
  if (opt.trace) {
    ReportLayers(o, r);
    std::vector<const Tracer*> all;
    for (const auto& t : o.tracers) all.push_back(t.get());
    all.push_back(o.replay_tracer.get());
    char header[512];
    std::snprintf(header, sizeof(header),
                  "{\"workload\": \"%s\", \"seed\": %llu, \"source\": \"%s\", "
                  "\"names\": [",
                  opt.workload.c_str(),
                  static_cast<unsigned long long>(opt.seed),
                  opt.source_digest.c_str());
    std::string h = header;
    for (int i = 0; i < kNumSpanNames; ++i) {
      h += std::string(i ? ", " : "") + "\"" + SpanNameString(i) + "\"";
    }
    h += "]}";
    if (!opt.spans_path.empty() && !WriteSpans(opt.spans_path, h, all)) {
      r->Fail("cannot write spans to " + opt.spans_path);
    }
  }
  return true;
}

}  // namespace perfbench
