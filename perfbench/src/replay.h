// Replay of the calls GetSelectivity::Compute makes inside one request.
//
// The decomposer, SIT matcher, provider and histogram layers run inside
// Compute, where the benchmark cannot wrap them in spans. The traced run
// therefore replays the same public calls on the same inputs — the
// statement, the requested predicate subsets, the statistics pool — in
// the order the sequential search makes them (get_selectivity.cc), each
// inside its own span. The replay keeps its own memo, so it reproduces
// the estimate; a replayed selectivity that differs from the reference
// means the replay no longer mirrors the estimator and is reported.
//
// Calls a layer makes internally are replayed as separate sibling calls:
// the matcher calls Score makes, and the histogram joins Estimate makes.
// An Estimate's self time is its span total minus its joins.

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "condsel/query/query.h"
#include "condsel/sit/sit_pool.h"
#include "perfbench.h"

namespace perfbench {

struct ReplayCounts {
  uint64_t requests = 0;
  uint64_t shape_keys = 0;
  uint64_t decomposer_calls = 0;
  uint64_t candidates = 0;
  uint64_t matcher_calls = 0;  // SitMatcher::num_calls() increments
  uint64_t score_calls = 0;
  uint64_t feasible = 0;
  uint64_t estimate_calls = 0;
  uint64_t join_calls = 0;
  uint64_t join_buckets = 0;  // input buckets of every join call
  uint64_t merge_calls = 0;
  uint64_t mismatches = 0;    // replayed selectivity != reference
};

class Replayer {
 public:
  // `pool` and `tracer` are borrowed and must outlive the replayer.
  Replayer(const condsel::SitPool* pool, Tracer* tracer);

  // Replays one request: the walk of `requests` (in order) over one
  // fresh memo, as one Estimator session or one GetSelectivity runs it.
  // `reference[i]` is the expected selectivity of `requests[i]`;
  // mismatches are counted. `shape_key` adds the CanonicalShapeKey call
  // a shape-cached session makes once per statement.
  void ReplayRequest(const condsel::Query& query,
                     const std::vector<condsel::PredSet>& requests,
                     const std::vector<double>& reference, bool shape_key,
                     uint64_t request_id);

  // Replays the MergeHistograms calls one statistics publish makes: one
  // per partitioned SIT of the pool, at the publisher's bucket budget.
  // Returns the number of calls.
  uint64_t ReplayMerges(int max_buckets, uint64_t request_id);

  const ReplayCounts& counts() const { return counts_; }

 private:
  struct Entry {
    double selectivity = 1.0;
    double error = 0.0;
  };
  class Walk;

  const condsel::SitPool* pool_;
  Tracer* tracer_;
  ReplayCounts counts_;
  double sink_ = 0.0;  // keeps replayed results observable
};

}  // namespace perfbench
