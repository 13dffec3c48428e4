// Fixture: estimator code joining histograms itself — the free join
// functions of histogram_join.h — instead of asking
// AtomicSelectivityProvider, which joins per piece pair, sanitizes, and
// records provenance. No member accessor appears here, so only the join
// pattern can trip the rule.
// lint-fixture-path: src/condsel/selectivity/bad_raw_histogram_join.cc
// lint-expect: no-raw-histogram-lookup

#include "condsel/histogram/histogram_join.h"

namespace condsel {

double JoinFactor(const Histogram& a, const Histogram& b) {
  return SanitizeSelectivity(JoinSelectivity(a, b));
}

}  // namespace condsel
