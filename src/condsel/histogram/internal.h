// Shared helpers for the histogram builders, join and merge. Internal to
// condsel/histogram; do not include from outside the module.

#pragma once

#include <cstdint>
#include <vector>

#include "condsel/histogram/histogram.h"

namespace condsel {
namespace histogram_internal {

// Exact integer width of [lo, hi] as a double. Computed through uint64
// subtraction: the difference is exact for spans below 2^53 and only then
// rounded once, unlike casting each endpoint to double first, which loses
// up to 1024 near ±2^63 (doubles there are 1024 apart) — enough to make an
// open-ended bucket's width off by a whole kilo-range and overlap
// fractions sum past 1. Also never overflows, unlike hi - lo + 1 in int64
// for spans of 2^63 or more.
inline double SpanWidth(int64_t lo, int64_t hi) {
  return static_cast<double>(static_cast<uint64_t>(hi) -
                             static_cast<uint64_t>(lo)) +
         1.0;
}

// Builds one bucket from the distinct-value runs [begin, end).
Bucket MakeBucket(const std::vector<std::pair<int64_t, uint64_t>>& runs,
                  size_t begin, size_t end, double source_cardinality);

// Sorts values and verifies builder preconditions; returns the
// distinct-value runs. Empty result for empty input.
std::vector<std::pair<int64_t, uint64_t>> PrepareRuns(
    std::vector<int64_t>& values, double source_cardinality, int max_buckets);

}  // namespace histogram_internal
}  // namespace condsel

