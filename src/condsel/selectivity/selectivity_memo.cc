#include "condsel/selectivity/selectivity_memo.h"

#include <algorithm>

#include "condsel/common/macros.h"

namespace condsel {

CONDSEL_HOT const MemoEntry* SelectivityMemo::Find(PredSet p) const {
  if (p < kDenseSlots) {
    return p < dense_.size() ? dense_[p] : nullptr;
  }
  auto it = overflow_.find(p);
  return it == overflow_.end() ? nullptr : it->second;
}

CONDSEL_HOT const MemoEntry& SelectivityMemo::Insert(PredSet p,
                                                     MemoEntry entry) {
  CONDSEL_DCHECK(Find(p) == nullptr);
  if (p < kDenseSlots) {
    if (p >= dense_.size()) {
      // Geometric growth keyed to the largest subset seen: one resize
      // covers the whole universe (the root subset arrives early), and the
      // storage is retained across generation rebinds.
      size_t cap = std::max<size_t>(dense_.size(), 64);
      while (cap <= p) cap *= 2;
      dense_.resize(cap, nullptr);
    }
    entries_.push_back(std::move(entry));
    const MemoEntry* stored = &entries_.back();
    dense_[p] = stored;
    return *stored;
  }
  entries_.push_back(std::move(entry));
  const MemoEntry* stored = &entries_.back();
  overflow_.emplace(p, stored);
  return *stored;
}

CONDSEL_HOT const DerivationAtom* SelectivityMemo::FindAtom(
    int pred) const {
  CONDSEL_CHECK(pred >= 0 && pred < kMaxPredicates);
  return atom_present_[pred] ? &atoms_[pred] : nullptr;
}

CONDSEL_HOT const DerivationAtom& SelectivityMemo::InsertAtom(
    int pred, DerivationAtom atom) {
  CONDSEL_CHECK(pred >= 0 && pred < kMaxPredicates);
  CONDSEL_DCHECK(!atom_present_[pred]);
  atoms_[pred] = std::move(atom);
  atom_present_[pred] = true;
  return atoms_[pred];
}

void SelectivityMemo::BindGeneration(uint64_t gen) {
  if (generation_bound_ && generation_ == gen) return;
  if (generation_bound_) {
    // Self-invalidation on a statistics refresh: an entry computed from
    // the previous generation's histograms must never answer for the new
    // one — that is precisely the staleness bug a bitmask-only key had.
    // The dense table keeps its capacity (only the slots are reset), so
    // steady-state rebinds do not allocate.
    std::fill(dense_.begin(), dense_.end(), nullptr);
    overflow_.clear();
    entries_.clear();
    std::fill(atom_present_, atom_present_ + kMaxPredicates, false);
  }
  generation_bound_ = true;
  generation_ = gen;
}

}  // namespace condsel
