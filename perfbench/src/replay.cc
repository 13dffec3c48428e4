#include "replay.h"

#include "condsel/common/numeric.h"
#include "condsel/histogram/histogram_join.h"
#include "condsel/histogram/histogram_merge.h"
#include "condsel/selectivity/atomic_provider.h"
#include "condsel/selectivity/decomposer.h"
#include "condsel/selectivity/error_function.h"
#include "condsel/selectivity/separability.h"
#include "condsel/selectivity/shape_cache.h"
#include "condsel/sit/sit_matcher.h"

namespace perfbench {

using condsel::AtomicSelectivityProvider;
using condsel::FactorChoice;
using condsel::Histogram;
using condsel::PredSet;
using condsel::Predicate;
using condsel::Query;
using condsel::Sit;
using condsel::SitMatcher;

namespace {

// The pieces a provider estimate walks for one SIT: every part's piece,
// or the flat histogram for an unpartitioned (or all-empty) SIT — the
// same choice as atomic_provider.cc's ForEachPiece.
std::vector<const Histogram*> Pieces(const Sit& sit) {
  double total = 0.0;
  for (const condsel::SitPart& p : sit.parts) {
    total += p.histogram.source_cardinality();
  }
  if (!sit.is_partitioned() || !(total > 0.0)) return {&sit.histogram};
  std::vector<const Histogram*> out;
  for (const condsel::SitPart& p : sit.parts) out.push_back(&p.histogram);
  return out;
}

}  // namespace

class Replayer::Walk {
 public:
  Walk(Replayer* r, const Query* q, int parent, uint64_t request)
      : r_(r),
        q_(q),
        parent_(parent),
        request_(request),
        matcher_(r->pool_),
        provider_(&matcher_, &diff_) {
    matcher_.BindQuery(q);
  }

  const Entry& Solve(PredSet p) {
    if (auto it = memo_.find(p); it != memo_.end()) return it->second;
    Entry entry;
    if (p != 0) {
      const condsel::ComponentList components =
          condsel::StandardDecompositionFast(*q_, p);
      if (components.size() > 1) {
        double sel = 1.0;
        double err = 0.0;
        for (PredSet c : components) {
          const Entry& ce = Solve(c);
          sel *= ce.selectivity;
          err = condsel::ErrorFunction::Merge(err, ce.error);
        }
        entry = {condsel::SanitizeSelectivity(sel), err};
      } else {
        entry = SolveNonSeparable(p);
      }
    }
    // std::unordered_map never moves its nodes, so references handed out
    // above stay valid across this insertion.
    return memo_.emplace(p, entry).first->second;
  }

 private:
  Entry SolveNonSeparable(PredSet p) {
    std::vector<PredSet> candidates;
    {
      Scoped s(r_->tracer_, kDecomposer, request_, parent_);
      candidates = condsel::AtomicFactorCandidates(*q_, p);
    }
    ++r_->counts_.decomposer_calls;
    r_->counts_.candidates += candidates.size();

    double best_error = condsel::kInfiniteError;
    PredSet best = 0;
    FactorChoice best_choice;
    for (PredSet p_prime : candidates) {
      const PredSet cond = p & ~p_prime;
      const Entry tail = Solve(cond);
      ReplayMatcherCalls(p_prime, cond);
      FactorChoice choice;
      {
        Scoped s(r_->tracer_, kScore, request_, parent_);
        choice = provider_.Score(*q_, p_prime, cond, nullptr, &scratch_);
      }
      ++r_->counts_.score_calls;
      if (!choice.feasible) continue;
      ++r_->counts_.feasible;
      const double merged =
          condsel::ErrorFunction::Merge(choice.error, tail.error);
      if (merged < best_error) {
        best_error = merged;
        best = p_prime;
        best_choice = choice;
      }
    }
    if (best == 0) {
      // The benchmark's workloads always have base histograms, so the
      // estimator never degrades; count it as a replay mismatch.
      ++r_->counts_.mismatches;
      return {1.0, condsel::kInfiniteError};
    }
    double factor = 0.0;
    {
      Scoped s(r_->tracer_, kEstimate, request_, parent_);
      factor = condsel::SanitizeSelectivity(
          provider_.Estimate(*q_, best, best_choice));
    }
    ++r_->counts_.estimate_calls;
    if (best_choice.sits.size() == 2) ReplayJoins(best_choice);
    const Entry& tail = Solve(p & ~best);
    return {condsel::SanitizeSelectivity(factor * tail.selectivity),
            best_error};
  }

  // The matcher calls Score makes for (p', cond): none for a shape no SIT
  // can approximate or a join conditioned on filters; one call per join
  // side, per single filter, or per filter pair (atomic_provider.cc).
  void ReplayMatcherCalls(PredSet p_prime, PredSet cond) {
    int join = -1;
    std::vector<int> filters;
    for (int i : condsel::SetBits(p_prime)) {
      if (q_->predicate(i).is_join()) {
        if (join >= 0) return;
        join = i;
      } else {
        filters.push_back(i);
      }
    }
    if (join < 0 && filters.size() != 1 && filters.size() != 2) return;
    if (join >= 0) {
      const Predicate& j = q_->predicate(join);
      for (int f : filters) {
        const condsel::ColumnRef c = q_->predicate(f).column();
        if (c != j.left() && c != j.right()) return;
      }
      if ((cond & q_->filter_predicates()) != 0) return;
    }
    const auto accounting = SitMatcher::CallAccounting::kIndexed;
    const uint64_t before = matcher_.num_calls();
    Scoped s(r_->tracer_, kMatcher, request_, parent_);
    if (join >= 0) {
      const Predicate& j = q_->predicate(join);
      matcher_.CandidatesInto(j.left(), cond, accounting, &scratch_.left);
      matcher_.CandidatesInto(j.right(), cond, accounting, &scratch_.right);
    } else if (filters.size() == 2) {
      matcher_.Candidates2Into(q_->predicate(filters[0]).column(),
                               q_->predicate(filters[1]).column(), cond,
                               accounting, &scratch_.left);
    } else {
      matcher_.CandidatesInto(q_->predicate(filters[0]).column(), cond,
                              accounting, &scratch_.left);
    }
    r_->counts_.matcher_calls += matcher_.num_calls() - before;
  }

  void ReplayJoins(const FactorChoice& choice) {
    for (const Histogram* h0 : Pieces(*choice.sits[0].sit)) {
      for (const Histogram* h1 : Pieces(*choice.sits[1].sit)) {
        {
          Scoped s(r_->tracer_, kJoin, request_, parent_);
          const condsel::JoinEstimate je = condsel::JoinHistograms(*h0, *h1);
          r_->sink_ += je.selectivity;
        }
        ++r_->counts_.join_calls;
        r_->counts_.join_buckets += h0->num_buckets() + h1->num_buckets();
      }
    }
  }

  Replayer* r_;
  const Query* q_;
  int parent_;
  uint64_t request_;
  condsel::DiffError diff_;
  SitMatcher matcher_;
  AtomicSelectivityProvider provider_;
  condsel::ScoreScratch scratch_;
  std::unordered_map<PredSet, Entry> memo_;
};

Replayer::Replayer(const condsel::SitPool* pool, Tracer* tracer)
    : pool_(pool), tracer_(tracer) {}

void Replayer::ReplayRequest(const Query& query,
                             const std::vector<PredSet>& requests,
                             const std::vector<double>& reference,
                             bool shape_key, uint64_t request_id) {
  ++counts_.requests;
  Scoped root(tracer_, kReplayRequest, request_id);
  if (shape_key) {
    Scoped s(tracer_, kShapeKey, request_id, root.id());
    sink_ += static_cast<double>(condsel::CanonicalShapeKey(query).size());
    ++counts_.shape_keys;
  }
  Walk walk(this, &query, root.id(), request_id);
  for (size_t i = 0; i < requests.size(); ++i) {
    const double sel = walk.Solve(requests[i]).selectivity;
    if (!SameBits(sel, reference[i])) ++counts_.mismatches;
  }
}

uint64_t Replayer::ReplayMerges(int max_buckets, uint64_t request_id) {
  uint64_t calls = 0;
  Scoped root(tracer_, kReplayRequest, request_id);
  for (const Sit& sit : pool_->sits()) {
    if (!sit.is_partitioned() || sit.is_multidim()) continue;
    std::vector<const Histogram*> pieces;
    for (const condsel::SitPart& p : sit.parts) pieces.push_back(&p.histogram);
    Scoped s(tracer_, kMerge, request_id, root.id());
    const Histogram merged = condsel::MergeHistograms(pieces, max_buckets);
    sink_ += static_cast<double>(merged.num_buckets());
    ++calls;
  }
  counts_.merge_calls += calls;
  return calls;
}

}  // namespace perfbench
