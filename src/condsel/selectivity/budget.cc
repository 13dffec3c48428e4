#include "condsel/selectivity/budget.h"

#include <algorithm>

#include "condsel/common/fault_injector.h"

namespace condsel {

void Deadline::Arm(double seconds) {
  if (seconds <= 0.0) {
    Disarm();
    return;
  }
  const auto at =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  // Publication contract (budget.h): the expiry instant is stored before
  // armed_ is released, so a reader that acquires armed_ == true never
  // sees a stale instant.
  at_.store(at.time_since_epoch().count(), std::memory_order_relaxed);
  armed_.store(true, std::memory_order_release);
}

bool Deadline::Expired() const {
  if (!armed_.load(std::memory_order_acquire)) return false;
  const FaultInjector& fi = FaultInjector::Instance();
  if (fi.armed() && fi.enabled(Fault::kExpireDeadline)) return true;
  const std::chrono::steady_clock::time_point at{
      std::chrono::steady_clock::duration{
          at_.load(std::memory_order_relaxed)}};
  return std::chrono::steady_clock::now() >= at;
}

bool BudgetExhausted(const EstimationBudget* budget, const GsStats& stats,
                     const Deadline& deadline) {
  if (budget == nullptr) return false;
  if (budget->max_subproblems > 0 &&
      stats.subproblems >= budget->max_subproblems) {
    return true;
  }
  if (budget->max_atomic_decompositions > 0 &&
      stats.atomic_considered >= budget->max_atomic_decompositions) {
    return true;
  }
  return deadline.Expired();
}

void AddGsStats(const GsStats& delta, GsStats* total) {
  total->subproblems += delta.subproblems;
  total->memo_hits += delta.memo_hits;
  total->atomic_considered += delta.atomic_considered;
  total->analysis_seconds += delta.analysis_seconds;
  total->histogram_seconds += delta.histogram_seconds;
  total->budget_exhausted = total->budget_exhausted || delta.budget_exhausted;
  total->degraded_subproblems += delta.degraded_subproblems;
  total->default_fallbacks += delta.default_fallbacks;
  total->shape_cache_hits += delta.shape_cache_hits;
  total->shape_cache_misses += delta.shape_cache_misses;
}

namespace {
uint64_t SatSub(uint64_t a, uint64_t b) { return a >= b ? a - b : 0; }
}  // namespace

GsStats DiffGsStats(const GsStats& cumulative, const GsStats& prev) {
  GsStats d;
  d.subproblems = SatSub(cumulative.subproblems, prev.subproblems);
  d.memo_hits = SatSub(cumulative.memo_hits, prev.memo_hits);
  d.atomic_considered =
      SatSub(cumulative.atomic_considered, prev.atomic_considered);
  d.analysis_seconds =
      std::max(0.0, cumulative.analysis_seconds - prev.analysis_seconds);
  d.histogram_seconds =
      std::max(0.0, cumulative.histogram_seconds - prev.histogram_seconds);
  // A session that was ever exhausted stays flagged; the delta carries the
  // flag only on the settle that first observes it.
  d.budget_exhausted = cumulative.budget_exhausted && !prev.budget_exhausted;
  d.degraded_subproblems =
      SatSub(cumulative.degraded_subproblems, prev.degraded_subproblems);
  d.default_fallbacks =
      SatSub(cumulative.default_fallbacks, prev.default_fallbacks);
  d.shape_cache_hits =
      SatSub(cumulative.shape_cache_hits, prev.shape_cache_hits);
  d.shape_cache_misses =
      SatSub(cumulative.shape_cache_misses, prev.shape_cache_misses);
  return d;
}

}  // namespace condsel
