#include "condsel/histogram/histogram_merge.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "condsel/common/macros.h"
#include "condsel/histogram/internal.h"

namespace condsel {

namespace {

using histogram_internal::SpanWidth;

// Coalesces `buckets` down to at most `max_buckets` by merging runs of
// adjacent buckets. Even-count runs keep the pass deterministic and cheap;
// the merged summary is an introspection artifact, not the estimation
// path, so boundary placement finesse buys nothing here.
std::vector<Bucket> Coalesce(std::vector<Bucket> buckets, int max_buckets) {
  const size_t cap = static_cast<size_t>(std::max(1, max_buckets));
  if (buckets.size() <= cap) return buckets;
  const size_t run = (buckets.size() + cap - 1) / cap;
  std::vector<Bucket> out;
  out.reserve(cap);
  for (size_t i = 0; i < buckets.size(); i += run) {
    const size_t j = std::min(buckets.size(), i + run);
    Bucket b = buckets[i];
    for (size_t k = i + 1; k < j; ++k) {
      b.hi = buckets[k].hi;
      // Distinct values in disjoint ranges add exactly; no union estimate
      // needed when concatenating segments of one already-merged summary.
      b.frequency += buckets[k].frequency;
      b.distinct += buckets[k].distinct;
    }
    b.distinct = std::min(b.distinct, SpanWidth(b.lo, b.hi));
    out.push_back(b);
  }
  return out;
}

}  // namespace

Histogram MergeHistograms(const std::vector<const Histogram*>& pieces,
                          int max_buckets) {
  double total_card = 0.0;
  for (const Histogram* p : pieces) {
    CONDSEL_CHECK(p != nullptr);
    total_card += p->source_cardinality();
  }

  // Union of bucket boundaries: each boundary value starts a segment, so
  // every piece bucket covers whole segments and its mass distributes by
  // width fraction under the same uniform assumption the piece itself
  // makes. Open-ended buckets (hi == INT64_MAX) contribute only their lo
  // boundary — the guard below keeps hi + 1 from overflowing — and end at
  // the final, explicitly open-ended segment.
  std::set<int64_t> starts;
  for (const Histogram* p : pieces) {
    for (const Bucket& b : p->buckets()) {
      starts.insert(b.lo);
      if (b.hi < std::numeric_limits<int64_t>::max()) starts.insert(b.hi + 1);
    }
  }
  if (starts.empty() || total_card <= 0.0) {
    return Histogram({}, total_card);
  }

  std::vector<int64_t> edges(starts.begin(), starts.end());
  const size_t num_segments = edges.size();  // last segment is open-ended
  std::vector<Bucket> segments(num_segments);
  for (size_t i = 0; i < num_segments; ++i) {
    segments[i].lo = edges[i];
    segments[i].hi = (i + 1 < num_segments)
                         ? edges[i + 1] - 1
                         : std::numeric_limits<int64_t>::max();
  }

  // Per-segment distinct-count accumulators. The pieces cover disjoint
  // *rows*, not disjoint values: the same key range in every part means
  // the same values over and over, so per-piece distinct contributions
  // must combine sublinearly, not add. Model each piece's d_i distinct
  // values in a width-W segment as uniform draws; the expected union is
  //   W * (1 - Π_i (1 - d_i / W)),
  // capped by both W and Σ d_i. A segment a single piece touches keeps
  // that piece's estimate bit-for-bit (the single-part path estimators
  // compare against). log1p/expm1 keep the complement product accurate
  // when d_i / W underflows (the open-ended tail segment).
  std::vector<double> log_miss(num_segments, 0.0);  // Σ log(1 - d_i/W)
  std::vector<double> sum_distinct(num_segments, 0.0);
  std::vector<int> contributors(num_segments, 0);

  for (const Histogram* p : pieces) {
    const double weight = p->source_cardinality() / total_card;
    if (weight <= 0.0) continue;
    for (const Bucket& b : p->buckets()) {
      const double width = SpanWidth(b.lo, b.hi);
      // Segments covering [b.lo, b.hi]: contiguous, found by binary search.
      size_t i = static_cast<size_t>(
          std::upper_bound(edges.begin(), edges.end(), b.lo) -
          edges.begin() - 1);
      for (; i < num_segments && segments[i].lo <= b.hi; ++i) {
        // Clamp in int64 first: the intersection endpoints are exact, and
        // the uint64 subtraction in SpanWidth stays exact for any span
        // below 2^53. Casting endpoints to double first rounds values near
        // 2^63 to the same double, producing overlaps one kilo-range too
        // wide (fractions summing past 1) or negative-width phantoms.
        const int64_t lo_c = std::max(b.lo, segments[i].lo);
        const int64_t hi_c = std::min(b.hi, segments[i].hi);
        if (hi_c < lo_c) continue;
        const double fraction = SpanWidth(lo_c, hi_c) / width;
        segments[i].frequency += weight * b.frequency * fraction;
        const double d = b.distinct * fraction;
        if (d <= 0.0) continue;
        sum_distinct[i] += d;
        const double seg_width = SpanWidth(segments[i].lo, segments[i].hi);
        log_miss[i] += std::log1p(-std::min(d / seg_width, 1.0));
        ++contributors[i];
      }
    }
  }

  std::vector<Bucket> buckets;
  buckets.reserve(num_segments);
  for (size_t i = 0; i < num_segments; ++i) {
    Bucket& s = segments[i];
    const double seg_width = SpanWidth(s.lo, s.hi);
    if (contributors[i] <= 1) {
      s.distinct = sum_distinct[i];
    } else {
      const double unioned = seg_width * -std::expm1(log_miss[i]);
      s.distinct = std::min(sum_distinct[i], unioned);
    }
    if (s.frequency <= 0.0 && s.distinct <= 0.0) continue;
    s.distinct = std::min(s.distinct, seg_width);
    buckets.push_back(s);
  }
  return Histogram(Coalesce(std::move(buckets), max_buckets), total_card);
}

}  // namespace condsel
