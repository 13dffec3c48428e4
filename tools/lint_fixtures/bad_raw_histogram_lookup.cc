// Fixture: estimator code reading a histogram's selectivity accessors,
// or joining histograms, directly instead of routing through
// AtomicSelectivityProvider — the lookup would bypass
// SanitizeSelectivity, the fault-injection hooks, the per-piece merge,
// and FactorProvenance recording.
// lint-fixture-path: src/condsel/baselines/bad_raw_histogram_lookup.cc
// lint-expect: no-raw-histogram-lookup

#include "condsel/histogram/histogram.h"
#include "condsel/histogram/histogram_join.h"

namespace condsel {

double EstimateFilter(const Histogram& h, int64_t lo, int64_t hi) {
  return SanitizeSelectivity(h.RangeSelectivity(lo, hi));
}

double EstimatePoint(const Histogram* h, int64_t v) {
  return SanitizeSelectivity(h->EqualsSelectivity(v));
}

double EstimateJoin(const Histogram& a, const Histogram& b) {
  return SanitizeSelectivity(JoinSelectivity(a, b));
}

double EstimateJoinResult(const Histogram& a, const Histogram& b) {
  return SanitizeSelectivity(condsel::JoinHistograms(a, b).selectivity);
}

}  // namespace condsel
