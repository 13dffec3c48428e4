#include "condsel/baselines/gvm.h"

#include <map>

#include "condsel/common/numeric.h"

#include "condsel/common/macros.h"

namespace condsel {

GvmEstimator::GvmEstimator(SitMatcher* matcher)
    : provider_(matcher, &error_fn_) {}

double GvmEstimator::Estimate(const Query& query, PredSet p) {
  // Current SIT assignment per filter predicate; absent = base histogram.
  std::map<int, SitCandidate> chosen;
  std::vector<int> filters;
  std::vector<int> joins;
  for (int i : SetElements(p)) {
    (query.predicate(i).is_filter() ? filters : joins).push_back(i);
  }

  auto compatible = [&](int pred, const SitCandidate& cand) {
    // A single rewritten plan must realize every chosen SIT: expressions
    // must nest or be table-disjoint.
    for (const auto& [other, oc] : chosen) {
      if (other == pred) continue;
      if (IsSubset(cand.expr_mask, oc.expr_mask) ||
          IsSubset(oc.expr_mask, cand.expr_mask)) {
        continue;
      }
      const TableSet t1 = query.TablesOfSubset(cand.expr_mask);
      const TableSet t2 = query.TablesOfSubset(oc.expr_mask);
      if ((t1 & t2) == 0) continue;
      return false;
    }
    return true;
  };

  // Greedy: repeatedly commit the (filter, SIT) application that removes
  // the most independence assumptions, until no application helps.
  while (true) {
    int best_pred = -1;
    SitCandidate best_cand;
    int best_benefit = 0;
    for (int f : filters) {
      const PredSet context = p & ~(1u << f);
      const int current_size =
          chosen.count(f) ? SetSize(chosen[f].expr_mask) : 0;
      for (const SitCandidate& cand : provider_.Candidates(
               query.predicate(f).column(), context,
               SitMatcher::CallAccounting::kPerSit)) {
        const int benefit = SetSize(cand.expr_mask) - current_size;
        if (benefit <= 0) continue;
        if (!compatible(f, cand)) continue;
        if (benefit > best_benefit ||
            (benefit == best_benefit && best_pred >= 0 && f < best_pred)) {
          best_benefit = benefit;
          best_pred = f;
          best_cand = cand;
        }
      }
    }
    if (best_pred < 0) break;
    chosen[best_pred] = best_cand;
  }

  // Estimate the rewritten plan: joins from base histograms, filters from
  // their assigned SITs; independence everywhere else.
  double sel = 1.0;
  double n_ind = 0.0;
  std::vector<DerivationAtom> atoms;
  auto record_atom = [&](int pred, double atom_sel, const SitCandidate& cand,
                         PredSet conditioning, const FactorProvenance& prov) {
    if (recorder_ == nullptr) return;
    DerivationAtom atom;
    atom.pred = pred;
    atom.selectivity = atom_sel;
    atom.has_stat = true;
    atom.sit.sit_id = cand.sit->id;
    atom.sit.is_base = cand.sit->is_base();
    atom.sit.hypothesis = cand.expr_mask;
    atom.sit.conditioning = conditioning;
    atom.sit.provenance = prov;
    atoms.push_back(atom);
  };
  std::vector<FactorProvenance> prov;
  for (int j : joins) {
    FactorChoice choice = provider_.Score(query, 1u << j, /*cond=*/0);
    CONDSEL_CHECK_MSG(choice.feasible, "GVM requires base histograms");
    prov.clear();
    const double join_sel = SanitizeSelectivity(provider_.Estimate(
        query, 1u << j, choice, recorder_ != nullptr ? &prov : nullptr));
    sel *= join_sel;
    n_ind += static_cast<double>(SetSize(p) - 1);
    record_atom(j, join_sel, choice.sits.front(), /*conditioning=*/0,
                prov.empty() ? FactorProvenance{} : prov.front());
  }
  for (int f : filters) {
    const PredSet context = p & ~(1u << f);
    if (chosen.count(f)) {
      const SitCandidate& cand = chosen[f];
      FactorChoice committed;
      committed.feasible = true;
      committed.sits = {cand};
      prov.clear();
      const double filter_sel = SanitizeSelectivity(provider_.Estimate(
          query, 1u << f, committed, recorder_ != nullptr ? &prov : nullptr));
      sel *= filter_sel;
      n_ind += static_cast<double>(SetSize(context & ~cand.expr_mask));
      record_atom(f, filter_sel, cand, context,
                  prov.empty() ? FactorProvenance{} : prov.front());
    } else {
      FactorChoice choice =
          provider_.Score(query, 1u << f, /*cond=*/0);
      CONDSEL_CHECK_MSG(choice.feasible, "GVM requires base histograms");
      prov.clear();
      const double filter_sel = SanitizeSelectivity(provider_.Estimate(
          query, 1u << f, choice, recorder_ != nullptr ? &prov : nullptr));
      sel *= filter_sel;
      n_ind += static_cast<double>(SetSize(context));
      record_atom(f, filter_sel, choice.sits.front(), /*conditioning=*/0,
                  prov.empty() ? FactorProvenance{} : prov.front());
    }
  }
  last_n_ind_ = n_ind;
  sel = SanitizeSelectivity(sel);
  if (recorder_ != nullptr) {
    DerivationNode& node = recorder_->AddNode(p);
    node.kind = p == 0 ? DerivKind::kEmptySet : DerivKind::kPredicateProduct;
    node.selectivity = sel;
    node.error = 0.0;
    node.atoms = std::move(atoms);
  }
  return sel;
}

}  // namespace condsel
