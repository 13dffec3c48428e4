#include "condsel/histogram/histogram_join.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "condsel/common/macros.h"
#include "condsel/common/numeric.h"
#include "condsel/histogram/internal.h"

namespace condsel {
namespace {

using histogram_internal::SpanWidth;

constexpr int64_t kMaxValue = std::numeric_limits<int64_t>::max();

// A cut point of the alignment walk: a finite value, or the open end of
// an open-ended bucket, which sorts after every finite value.
struct Cut {
  int64_t value = 0;
  bool open = false;
  bool operator==(const Cut&) const = default;
};

bool Before(Cut a, Cut b) { return !a.open && (b.open || a.value < b.value); }

// Cursor over one histogram's boundary sequence lo0, hi0 + 1, lo1,
// hi1 + 1, ..., read in place. Having consumed every boundary up to some
// cut, the cursor sits inside a bucket exactly when it has consumed that
// bucket's lo but not its end — an odd number of boundaries — so it also
// serves as the bucket cursor.
class Boundaries {
 public:
  explicit Boundaries(const Histogram& h)
      : buckets_(h.buckets().data()), end_(2 * h.num_buckets()) {
    Load();
  }

  bool done() const { return k_ == end_; }
  bool inside() const { return (k_ & 1) != 0; }
  const Bucket& bucket() const { return buckets_[k_ / 2]; }
  Cut head() const { return head_; }

  // The sequence is non-decreasing, so every copy of `c` is at the head.
  void SkipPast(Cut c) {
    while (!done() && head_ == c) {
      ++k_;
      Load();
    }
  }

 private:
  void Load() {
    if (done()) return;
    const Bucket& b = buckets_[k_ / 2];
    if (!inside()) {
      head_ = {b.lo, false};
    } else if (b.hi == kMaxValue) {
      head_ = {kMaxValue, true};
    } else {
      head_ = {b.hi + 1, false};
    }
  }

  const Bucket* buckets_;
  size_t end_;
  size_t k_ = 0;
  Cut head_;
};

// The alignment walk both joins share. Merges the two boundary sequences,
// dropping duplicates, and calls
//   visit(lo, hi, contribution, min_distinct)
// for every aligned interval [lo, hi] inside a bucket of each side, in
// ascending order. Every boundary is a cut, so such an interval lies
// wholly inside both buckets and each slice is the fraction
// width(interval) / width(bucket) of its bucket (continuous values).
template <typename Visit>
CONDSEL_HOT void ForEachJoinedInterval(const Histogram& h1,
                                       const Histogram& h2, Visit&& visit) {
  Boundaries a(h1);
  Boundaries b(h2);
  // Once either side is past its last bucket no interval can join.
  while (!a.done() && !b.done()) {
    const Cut lo = Before(b.head(), a.head()) ? b.head() : a.head();
    a.SkipPast(lo);
    b.SkipPast(lo);
    if (!a.inside() || !b.inside()) continue;
    // Inside a bucket, each side's head is that bucket's end.
    const Cut next = Before(b.head(), a.head()) ? b.head() : a.head();
    const int64_t hi = next.open ? kMaxValue : next.value - 1;
    const Bucket& x = a.bucket();
    const Bucket& y = b.bucket();
    const double width = SpanWidth(lo.value, hi);
    const double fx = width / SpanWidth(x.lo, x.hi);
    const double fy = width / SpanWidth(y.lo, y.hi);
    const double f1 = x.frequency * fx;
    const double d1 = x.distinct * fx;
    const double f2 = y.frequency * fy;
    const double d2 = y.distinct * fy;
    const double dmax = std::max(d1, d2);
    if (dmax <= 0.0 || f1 <= 0.0 || f2 <= 0.0) continue;
    visit(lo.value, hi, f1 * f2 / dmax, std::min(d1, d2));
  }
}

}  // namespace

CONDSEL_HOT double JoinSelectivity(const Histogram& h1, const Histogram& h2) {
  double sel = 0.0;
  ForEachJoinedInterval(h1, h2, [&sel](int64_t, int64_t, double contrib,
                                       double) { sel += contrib; });
  return SanitizeSelectivity(sel);
}

JoinEstimate JoinHistograms(const Histogram& h1, const Histogram& h2) {
  // An interval carrying mass lies inside a bucket of each side and ends
  // where one of those two buckets ends, so there are at most n1 + n2.
  std::vector<Bucket> result_buckets;
  result_buckets.reserve(h1.num_buckets() + h2.num_buckets());
  double sel = 0.0;
  ForEachJoinedInterval(
      h1, h2,
      [&](int64_t lo, int64_t hi, double contrib, double distinct) {
        sel += contrib;
        // Frequency normalized below.
        result_buckets.push_back({lo, hi, contrib, distinct});
      });

  JoinEstimate out;
  out.selectivity = SanitizeSelectivity(sel);
  if (sel > 0.0) {
    for (Bucket& b : result_buckets) b.frequency /= sel;
  }
  // Saturate: two near-max source cardinalities would overflow to inf.
  const double join_card = SaturatingMultiply(
      SaturatingMultiply(h1.source_cardinality(), h2.source_cardinality()),
      out.selectivity);
  out.result = Histogram(std::move(result_buckets), join_card);
  return out;
}

}  // namespace condsel
