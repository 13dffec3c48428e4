// Tests for the histogram equi-join of Section 3.3.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "condsel/common/numeric.h"
#include "condsel/common/rng.h"
#include "condsel/common/zipf.h"
#include "condsel/histogram/builders.h"
#include "condsel/histogram/histogram_join.h"

namespace condsel {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

// Exact Sel(x=y) over the cross product of two multisets.
double ExactJoinSel(const std::vector<int64_t>& a,
                    const std::vector<int64_t>& b) {
  double matches = 0.0;
  for (int64_t x : a) {
    for (int64_t y : b) matches += (x == y);
  }
  return matches / (static_cast<double>(a.size()) *
                    static_cast<double>(b.size()));
}

TEST(HistogramJoinTest, EmptyInputsYieldZero) {
  const Histogram h1 = BuildMaxDiff({1, 2}, 2.0, 4);
  const Histogram empty = BuildMaxDiff({}, 0.0, 4);
  EXPECT_DOUBLE_EQ(JoinHistograms(h1, empty).selectivity, 0.0);
  EXPECT_DOUBLE_EQ(JoinHistograms(empty, h1).selectivity, 0.0);
}

TEST(HistogramJoinTest, DisjointDomainsYieldZero) {
  const Histogram h1 = BuildMaxDiff({1, 2, 3}, 3.0, 8);
  const Histogram h2 = BuildMaxDiff({10, 11, 12}, 3.0, 8);
  EXPECT_DOUBLE_EQ(JoinHistograms(h1, h2).selectivity, 0.0);
}

TEST(HistogramJoinTest, ExactOnPerValueBuckets) {
  // With one bucket per distinct value, the join estimate is exact.
  const std::vector<int64_t> a = {1, 1, 2, 3, 3, 3};
  const std::vector<int64_t> b = {1, 3, 3, 5};
  const Histogram h1 = BuildMaxDiff(a, 6.0, 64);
  const Histogram h2 = BuildMaxDiff(b, 4.0, 64);
  const JoinEstimate je = JoinHistograms(h1, h2);
  EXPECT_NEAR(je.selectivity, ExactJoinSel(a, b), 1e-12);
}

TEST(HistogramJoinTest, SymmetricSelectivity) {
  Rng rng(17);
  std::vector<int64_t> a(2000), b(1500);
  for (auto& v : a) v = rng.NextInRange(0, 99);
  for (auto& v : b) v = rng.NextInRange(0, 99);
  const Histogram h1 = BuildMaxDiff(a, 2000.0, 30);
  const Histogram h2 = BuildMaxDiff(b, 1500.0, 30);
  EXPECT_NEAR(JoinHistograms(h1, h2).selectivity,
              JoinHistograms(h2, h1).selectivity, 1e-12);
}

TEST(HistogramJoinTest, PkFkJoinAccuracy) {
  // Primary key side: each of 0..999 once. FK side: Zipf draws. True
  // selectivity of pk=fk is 1/1000 exactly (every FK value matches one
  // pk).
  std::vector<int64_t> pk(1000);
  for (size_t i = 0; i < pk.size(); ++i) pk[i] = static_cast<int64_t>(i);
  Rng rng(23);
  ZipfSampler z(1000, 1.0);
  std::vector<int64_t> fk(20000);
  for (auto& v : fk) v = z.Next(rng);
  const Histogram hp = BuildMaxDiff(pk, 1000.0, 200);
  const Histogram hf = BuildMaxDiff(fk, 20000.0, 200);
  const JoinEstimate je = JoinHistograms(hp, hf);
  EXPECT_NEAR(je.selectivity, 1.0 / 1000.0, 2e-4);
}

TEST(HistogramJoinTest, ResultHistogramNormalized) {
  const std::vector<int64_t> a = {1, 1, 2, 3, 3, 3};
  const std::vector<int64_t> b = {1, 3, 3, 5};
  const JoinEstimate je = JoinHistograms(BuildMaxDiff(a, 6.0, 64),
                                         BuildMaxDiff(b, 4.0, 64));
  EXPECT_NEAR(je.result.total_frequency(), 1.0, 1e-12);
  // Exact result distribution: matches at 1 (2*1=2 tuples) and 3 (3*2=6):
  // P(1) = 0.25, P(3) = 0.75.
  EXPECT_NEAR(je.result.RangeSelectivity(1, 1), 0.25, 1e-12);
  EXPECT_NEAR(je.result.RangeSelectivity(3, 3), 0.75, 1e-12);
  // Estimated join cardinality: sel * |A| * |B| = (8/24) * 24 = 8.
  EXPECT_NEAR(je.result.source_cardinality(), 8.0, 1e-9);
}

TEST(HistogramJoinTest, ResultHistogramEstimatesPostJoinFilter) {
  // Example 3's pattern: estimate x=y, then a range over the join attr.
  Rng rng(31);
  std::vector<int64_t> a(5000), b(5000);
  ZipfSampler z(200, 1.0);
  for (auto& v : a) v = z.Next(rng);
  for (auto& v : b) v = rng.NextInRange(0, 199);
  const JoinEstimate je = JoinHistograms(BuildMaxDiff(a, 5000.0, 200),
                                         BuildMaxDiff(b, 5000.0, 200));
  // Exact: count matches with value <= 9 over all matches.
  double all = 0.0, low = 0.0;
  std::vector<double> ca(200, 0), cb(200, 0);
  for (int64_t v : a) ++ca[static_cast<size_t>(v)];
  for (int64_t v : b) ++cb[static_cast<size_t>(v)];
  for (size_t v = 0; v < 200; ++v) {
    all += ca[v] * cb[v];
    if (v <= 9) low += ca[v] * cb[v];
  }
  EXPECT_NEAR(je.result.RangeSelectivity(0, 9), low / all, 0.03);
}

TEST(HistogramJoinTest, UniformUniformMatchesAnalyticValue) {
  // Two uniform columns over the same domain D: Sel(x=y) ~ 1/|D|.
  Rng rng(41);
  std::vector<int64_t> a(10000), b(10000);
  for (auto& v : a) v = rng.NextInRange(0, 499);
  for (auto& v : b) v = rng.NextInRange(0, 499);
  const JoinEstimate je = JoinHistograms(BuildMaxDiff(a, 10000.0, 50),
                                         BuildMaxDiff(b, 10000.0, 50));
  EXPECT_NEAR(je.selectivity, 1.0 / 500.0, 3e-4);
}

TEST(HistogramJoinTest, OpenEndedTailMassIsJoined) {
  // A bucket ending at INT64_MAX has no representable hi + 1. The join
  // must close it with an open-ended final interval, without overflow,
  // and count the tail's mass.
  const Histogram h1({{0, 9, 0.5, 10.0}, {10, kMax, 0.5, 5.0}}, 100.0);
  const Histogram h2({{10, kMax, 1.0, 5.0}}, 50.0);
  // Only the tail interval [10, INT64_MAX] overlaps: 0.5 * 1.0 / 5.
  const JoinEstimate je = JoinHistograms(h1, h2);
  EXPECT_EQ(Bits(je.selectivity), Bits(0.5 * 1.0 / 5.0));
  EXPECT_EQ(Bits(JoinSelectivity(h1, h2)), Bits(je.selectivity));
  EXPECT_EQ(Bits(JoinSelectivity(h2, h1)), Bits(je.selectivity));
  ASSERT_EQ(je.result.num_buckets(), 1u);
  EXPECT_EQ(je.result.buckets()[0].lo, 10);
  EXPECT_EQ(je.result.buckets()[0].hi, kMax);
  EXPECT_EQ(je.result.buckets()[0].frequency, 1.0);
  EXPECT_EQ(je.result.buckets()[0].distinct, 5.0);
}

TEST(HistogramJoinTest, FullDomainAndWideSpansDoNotOverflow) {
  // [INT64_MIN, INT64_MAX] spans 2^64 values; [-2^62, 2^62 + 5] spans
  // more than 2^63. Whole-bucket slices must have fraction exactly 1.
  const Histogram full({{kMin, kMax, 1.0, 1000.0}}, 10.0);
  EXPECT_EQ(Bits(JoinSelectivity(full, full)), Bits(1.0 / 1000.0));
  const int64_t w = int64_t{1} << 62;
  const Histogram wide({{-w, w + 5, 0.8, 400.0}}, 10.0);
  EXPECT_EQ(Bits(JoinHistograms(wide, wide).selectivity),
            Bits(0.8 * 0.8 / 400.0));
  EXPECT_EQ(Bits(JoinSelectivity(wide, wide)), Bits(0.8 * 0.8 / 400.0));
  // The wide bucket inside the full-domain one: the full bucket's slice
  // over the wide span is about half its mass, and nothing is NaN.
  const double sel = JoinSelectivity(full, wide);
  EXPECT_GT(sel, 0.0);
  EXPECT_LE(sel, 1.0);
  EXPECT_EQ(Bits(sel), Bits(JoinHistograms(wide, full).selectivity));
}

// ---------------------------------------------------------------------------
// Differential property test: the merge walk against a sort-based
// reference, over every builder and hand-made edge shapes.

// Exact width of [lo, hi] as a double, overflow-free.
double RefWidth(int64_t lo, int64_t hi) {
  return static_cast<double>(static_cast<uint64_t>(hi) -
                             static_cast<uint64_t>(lo)) +
         1.0;
}

// The alignment the merge walk replaced, kept as a slow reference:
// collect every cut point into a vector, sort, deduplicate, and walk the
// intervals between consecutive cuts. An open-ended bucket contributes no
// finite end; the last interval then runs to INT64_MAX.
double ReferenceJoinSelectivity(const Histogram& h1, const Histogram& h2) {
  if (h1.empty() || h2.empty()) return 0.0;
  std::vector<int64_t> cuts;
  bool open = false;
  for (const Histogram* h : {&h1, &h2}) {
    for (const Bucket& b : h->buckets()) {
      cuts.push_back(b.lo);
      if (b.hi == kMax) {
        open = true;
      } else {
        cuts.push_back(b.hi + 1);
      }
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  const auto& b1 = h1.buckets();
  const auto& b2 = h2.buckets();
  double sel = 0.0;
  size_t i1 = 0, i2 = 0;
  const size_t intervals = cuts.size() - (open ? 0 : 1);
  for (size_t k = 0; k < intervals; ++k) {
    const int64_t lo = cuts[k];
    const int64_t hi = k + 1 < cuts.size() ? cuts[k + 1] - 1 : kMax;
    while (i1 < b1.size() && b1[i1].hi < lo) ++i1;
    while (i2 < b2.size() && b2[i2].hi < lo) ++i2;
    if (i1 >= b1.size() || i2 >= b2.size()) break;
    const Bucket& x = b1[i1];
    const Bucket& y = b2[i2];
    if (x.lo > hi || y.lo > hi) continue;
    const double fx = RefWidth(std::max(lo, x.lo), std::min(hi, x.hi)) /
                      RefWidth(x.lo, x.hi);
    const double fy = RefWidth(std::max(lo, y.lo), std::min(hi, y.hi)) /
                      RefWidth(y.lo, y.hi);
    const double dmax = std::max(x.distinct * fx, y.distinct * fy);
    const double f1 = x.frequency * fx;
    const double f2 = y.frequency * fy;
    if (dmax <= 0.0 || f1 <= 0.0 || f2 <= 0.0) continue;
    sel += f1 * f2 / dmax;
  }
  return SanitizeSelectivity(sel);
}

struct NamedHistogram {
  std::string name;
  Histogram h;
};

std::vector<NamedHistogram> JoinCorpus() {
  std::vector<NamedHistogram> out;
  out.push_back({"empty", Histogram({}, 0.0)});
  out.push_back({"single", Histogram({{5, 5, 1.0, 1.0}}, 4.0)});
  out.push_back({"single_wide", Histogram({{0, 99, 0.9, 40.0}}, 10.0)});
  out.push_back({"adjacent", Histogram({{0, 9, 0.3, 10.0},
                                        {10, 19, 0.3, 5.0},
                                        {20, 29, 0.4, 8.0}},
                                       10.0)});
  out.push_back({"gapped", Histogram({{0, 4, 0.3, 3.0},
                                      {10, 14, 0.3, 2.0},
                                      {20, 24, 0.4, 5.0}},
                                     10.0)});
  // Boundaries shared with "adjacent" / "gapped" at 10 and 20.
  out.push_back({"shared_bounds", Histogram({{10, 10, 0.5, 1.0},
                                             {11, 20, 0.25, 4.0},
                                             {24, 40, 0.25, 9.0}},
                                            10.0)});
  out.push_back({"disjoint", Histogram({{1000, 1999, 0.5, 50.0},
                                        {3000, 3000, 0.5, 1.0}},
                                       10.0)});
  out.push_back({"negative", Histogram({{-50, -1, 0.6, 30.0},
                                        {0, 5, 0.4, 6.0}},
                                       10.0)});
  out.push_back({"open_tail", Histogram({{0, 9, 0.5, 10.0},
                                         {10, kMax, 0.5, 5.0}},
                                        10.0)});
  out.push_back({"open_point", Histogram({{20, 20, 0.5, 1.0},
                                          {kMax, kMax, 0.5, 1.0}},
                                         10.0)});
  out.push_back({"full_domain", Histogram({{kMin, kMax, 1.0, 64.0}}, 10.0)});
  out.push_back({"zero_distinct", Histogram({{0, 9, 0.5, 0.0},
                                             {10, 19, 0.0, 3.0}},
                                            10.0)});

  const HistogramType types[] = {HistogramType::kMaxDiff,
                                 HistogramType::kEquiDepth,
                                 HistogramType::kEquiWidth,
                                 HistogramType::kEndBiased};
  Rng rng(20240611);
  for (int trial = 0; trial < 6; ++trial) {
    // Dense (mostly adjacent buckets), sparse (gapped), skewed, and sets
    // holding the extreme values (open-ended or far-off buckets).
    std::vector<int64_t> values(200 + 150 * trial);
    ZipfSampler zipf(300, 1.0);
    for (size_t i = 0; i < values.size(); ++i) {
      switch (trial % 4) {
        case 0: values[i] = rng.NextInRange(0, 120); break;
        case 1: values[i] = 7 * rng.NextInRange(-40, 60); break;
        case 2: values[i] = zipf.Next(rng); break;
        default: values[i] = rng.NextInRange(-10, 300); break;
      }
    }
    if (trial == 3) values.push_back(kMax);
    if (trial == 5) values.push_back(kMin);
    for (HistogramType type : types) {
      const int buckets = 4 + 9 * trial;
      out.push_back({std::string(HistogramTypeName(type)) + "_t" +
                         std::to_string(trial),
                     BuildHistogram(type, values,
                                    static_cast<double>(values.size()) + 3.0,
                                    buckets)});
    }
  }
  return out;
}

TEST(HistogramJoinPropertyTest, KernelMatchesMaterializedJoinAndReference) {
  const std::vector<NamedHistogram> corpus = JoinCorpus();
  for (const NamedHistogram& a : corpus) {
    for (const NamedHistogram& b : corpus) {
      SCOPED_TRACE(a.name + " x " + b.name);
      const double kernel = JoinSelectivity(a.h, b.h);
      const JoinEstimate je = JoinHistograms(a.h, b.h);
      EXPECT_EQ(Bits(kernel), Bits(je.selectivity));
      EXPECT_EQ(Bits(kernel), Bits(ReferenceJoinSelectivity(a.h, b.h)));
      EXPECT_EQ(Bits(kernel), Bits(JoinSelectivity(b.h, a.h)));
      EXPECT_GE(kernel, 0.0);
      EXPECT_LE(kernel, 1.0);
      // Every result bucket ends where an input bucket ends, which is the
      // bound JoinHistograms reserves for.
      EXPECT_LE(je.result.num_buckets(), a.h.num_buckets() + b.h.num_buckets());
    }
  }
}

}  // namespace
}  // namespace condsel
