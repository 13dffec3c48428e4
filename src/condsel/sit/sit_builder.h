// Constructs SITs by exact evaluation of their generating expression.
//
// Mirrors how a real system would create statistics on a view: execute (or
// sample) the expression, build the histogram over the projected attribute,
// and record the diff divergence against the base-table distribution
// (Section 3.5 notes diff is computed once, at creation time).

#pragma once

#include <vector>

#include "condsel/exec/evaluator.h"
#include "condsel/histogram/builders.h"
#include "condsel/sit/sit.h"

namespace condsel {

struct SitBuildOptions {
  HistogramType histogram_type = HistogramType::kMaxDiff;
  int max_buckets = 200;  // the paper's setting
};

class SitBuilder {
 public:
  SitBuilder(Evaluator* evaluator, SitBuildOptions options);

  // Every build takes an optional `restriction` (borrowed for the call;
  // nullptr = none), the Evaluator's convention. A restriction scopes the
  // statistic to one part's slice of its owning table: it must name
  // attr.table (every attribute's table, for the multi-attribute builds)
  // and limits that table to rows [begin, end). Other expression tables
  // contribute all rows, so the pieces over a table's parts partition the
  // expression result exactly. The diff divergence is likewise computed
  // against the part's own base distribution. A full-range restriction
  // reproduces the unrestricted build bit for bit. Restricted builds
  // bypass the evaluator's CardinalityCache; unrestricted ones use it.

  // Builds SIT(attr | expression). An empty expression builds the base
  // histogram. The returned Sit has id == -1 (assigned by SitPool).
  Sit Build(ColumnRef attr, std::vector<Predicate> expression,
            const RowRestriction* restriction = nullptr) const;

  // Builds several SITs sharing one generating expression, evaluating the
  // expression only once. `expression` must be non-empty and connected,
  // and every attribute's table must appear in it.
  std::vector<Sit> BuildMany(const std::vector<ColumnRef>& attrs,
                             std::vector<Predicate> expression,
                             const RowRestriction* restriction = nullptr) const;

  // Builds one Sit per spec, in spec order: base histograms first, then
  // each distinct expression evaluated once (BuildMany) for all of its
  // attributes, expressions in sorted order. Flat pools
  // (GenerateSitPool) and per-part pieces (PartStatsMaintainer) are both
  // built here.
  std::vector<Sit> BuildSpecs(const std::vector<SitSpec>& specs,
                              const RowRestriction* restriction = nullptr) const;

  // Builds the multidimensional SIT(a, b | expression) over the joint
  // distribution of two attributes. With an empty expression both
  // attributes must live in the same table (a base-table 2-d histogram);
  // otherwise both tables must appear in the (connected) expression. The
  // SIT's diff records the joint-vs-product-of-marginals divergence.
  Sit Build2d(ColumnRef a, ColumnRef b,
              std::vector<Predicate> expression) const;

  const Catalog& catalog() const;

 private:
  Evaluator* evaluator_;
  SitBuildOptions options_;
};

}  // namespace condsel

