#include "condsel/sit/sit_advisor.h"

#include "condsel/catalog/catalog.h"

#include <limits>
#include <map>

#include "condsel/common/macros.h"
#include "condsel/selectivity/get_selectivity.h"
#include "condsel/sit/sit_matcher.h"

namespace condsel {
namespace {

// Total Diff score of the workload under `pool` (sum over queries of the
// best decomposition's error for the full query).
double WorkloadScore(const std::vector<Query>& workload,
                     const SitPool& pool) {
  DiffError diff;
  double total = 0.0;
  for (const Query& q : workload) {
    SitMatcher matcher(&pool);
    matcher.BindQuery(&q);
    AtomicSelectivityProvider fa(&matcher, &diff);
    GetSelectivity gs(&q, &fa);
    total += gs.Compute(q.all_predicates()).error;
  }
  return total;
}

// Builds the candidate universe (without bases).
std::vector<Sit> BuildCandidates(const std::vector<Query>& workload,
                                 const SitBuilder& builder,
                                 const AdvisorOptions& opt) {
  // Reuse the pool generator for the universe, then strip bases.
  const SitPool universe =
      GenerateSitPool(workload, opt.max_join_preds, builder);
  std::vector<Sit> candidates;
  for (const Sit& s : universe.sits()) {
    if (!s.is_base()) candidates.push_back(s);
  }
  return candidates;
}

// Runs the workload once more under the final pool, recording derivations,
// and counts how many atomic factors each statistic supplied — the
// provenance-backed citation report of AdvisorResult::citations.
std::vector<SitCitation> CollectCitations(const std::vector<Query>& workload,
                                          const SitPool& pool) {
  std::map<SitId, SitCitation> by_id;
  for (const Sit& s : pool.sits()) {
    SitCitation c;
    c.sit_id = s.id;
    by_id.emplace(s.id, std::move(c));
  }
  DiffError diff;
  for (const Query& q : workload) {
    SitMatcher matcher(&pool);
    matcher.BindQuery(&q);
    AtomicSelectivityProvider provider(&matcher, &diff);
    GetSelectivity gs(&q, &provider);
    DerivationDag dag;
    gs.set_recorder(&dag);
    gs.Compute(q.all_predicates());
    for (const DerivationNode& node : dag.nodes()) {
      for (const SitApplication& app : node.sits) {
        auto it = by_id.find(app.sit_id);
        if (it == by_id.end()) continue;
        ++it->second.uses;
        if (it->second.source.empty() && app.provenance.recorded) {
          it->second.source = app.provenance.source;
          it->second.kind = app.provenance.histogram_kind;
        }
      }
      for (const DerivationAtom& atom : node.atoms) {
        if (!atom.has_stat) continue;
        auto it = by_id.find(atom.sit.sit_id);
        if (it == by_id.end()) continue;
        ++it->second.uses;
        if (it->second.source.empty() && atom.sit.provenance.recorded) {
          it->second.source = atom.sit.provenance.source;
          it->second.kind = atom.sit.provenance.histogram_kind;
        }
      }
    }
  }
  std::vector<SitCitation> out;
  out.reserve(by_id.size());
  for (auto& [id, citation] : by_id) {
    (void)id;
    out.push_back(std::move(citation));
  }
  return out;
}

}  // namespace

AdvisorResult AdviseSits(const std::vector<Query>& workload,
                         const SitBuilder& builder,
                         const AdvisorOptions& options) {
  CONDSEL_CHECK(options.budget >= 0);
  AdvisorResult result;

  // Base histograms: always included — for *every* catalog column, as a
  // real system maintains base statistics independent of any workload.
  const Catalog& catalog = builder.catalog();
  for (TableId t = 0; t < catalog.num_tables(); ++t) {
    for (ColumnId c = 0; c < catalog.table(t).num_columns(); ++c) {
      result.pool.Add(builder.Build(ColumnRef{t, c}, {}));
    }
  }
  result.initial_score = WorkloadScore(workload, result.pool);

  std::vector<Sit> candidates = BuildCandidates(workload, builder, options);
  std::vector<bool> used(candidates.size(), false);

  double current = result.initial_score;
  for (int round = 0; round < options.budget; ++round) {
    int best = -1;
    double best_score = current;
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (used[c]) continue;
      SitPool trial = result.pool;
      trial.Add(candidates[c]);
      const double score = WorkloadScore(workload, trial);
      if (score < best_score - 1e-12) {
        best_score = score;
        best = static_cast<int>(c);
      }
    }
    if (best < 0) break;  // no candidate improves the score
    used[static_cast<size_t>(best)] = true;
    const SitId id = result.pool.Add(candidates[static_cast<size_t>(best)]);
    result.steps.push_back(AdvisorStep{id, best_score});
    current = best_score;
  }
  result.citations = CollectCitations(workload, result.pool);
  return result;
}

}  // namespace condsel
