// Histogram equi-join (Section 3.3 of the paper).
//
// Joining SIT_R(x,..|Q1) with SIT_R(y,..|Q2) on x = y yields both the join
// selectivity Sel(x=y | Q1, Q2) and a new histogram over the (now equal)
// join attribute on the join result, which can estimate further predicates
// on that attribute (the paper's Example 3).
//
// The computation aligns bucket boundaries and, inside each aligned
// interval, applies the containment/uniform-distinct assumption:
//   sel += f1' * f2' / max(d1', d2')
// where primes denote the fraction of the bucket falling in the interval.
//
// Alignment is one merge walk over the two sorted bucket lists, with no
// scratch storage. Each histogram's boundary sequence
//   lo0, hi0 + 1, lo1, hi1 + 1, ...
// is non-decreasing (buckets are sorted and disjoint; adjacent buckets
// repeat a value), so merging the two sequences and dropping duplicates
// yields the sorted union of all cut points. Consecutive cuts c < c'
// bound the aligned interval [c, c' - 1], which lies wholly inside one
// bucket or wholly in a gap of each histogram: inside a bucket exactly
// when an odd number of that histogram's boundaries are <= c. The walk
// visits the intervals in ascending order, so the sum above adds its
// terms in a fixed order, and JoinSelectivity and JoinHistograms agree
// bit for bit. tests/histogram_join_test.cc checks both against a
// reference that sorts every cut point into a vector.
//
// Open-ended intervals: a bucket with hi == INT64_MAX has no finite end
// (hi + 1 is not representable). Its end is an "open" cut ordered after
// every finite value, which closes a final interval [c, INT64_MAX] — the
// same explicitly open-ended last segment MergeHistograms uses — so the
// tail's mass is joined like any other interval's. Interval and bucket
// widths are computed with histogram_internal::SpanWidth, which stays
// exact and overflow-free for spans of 2^63 and more.

#pragma once

#include "condsel/histogram/histogram.h"

namespace condsel {

struct JoinEstimate {
  // Estimated Sel(x = y) over the cross product of the two source
  // relations, i.e. a fraction in [0, 1].
  double selectivity = 0.0;
  // Histogram over the join attribute on the join result. Frequencies are
  // normalized to the estimated join result; source_cardinality is the
  // estimated join cardinality |R1| * |R2| * selectivity.
  Histogram result;
};

// The full join: selectivity plus the result histogram (Example 3's
// join-then-filter shape needs the latter).
JoinEstimate JoinHistograms(const Histogram& h1, const Histogram& h2);

// Selectivity-only join, bit-identical to JoinHistograms(h1, h2)
// .selectivity. Makes no heap allocation: the estimation hot path uses it
// whenever the result histogram would be discarded.
double JoinSelectivity(const Histogram& h1, const Histogram& h2);

}  // namespace condsel
