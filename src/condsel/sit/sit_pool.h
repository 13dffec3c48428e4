// The pool of available SITs, and generation of the paper's J_i pools.
//
// Section 5 ("Available SITs"): pool J_i contains every SIT_R(a | Q) where
// Q is a set of at most i join predicates and both Q and a appear
// syntactically in some workload query; J_0 holds exactly the base-table
// histograms. We additionally require Q to be a connected join expression
// that reaches a's table (other combinations do not describe a meaningful
// query expression for a), and we always include base histograms for every
// column any workload query references, since join predicates need base
// histograms on their endpoints even in the richest pools.

#pragma once

#include <map>
#include <tuple>
#include <vector>

#include "condsel/query/query.h"
#include "condsel/sit/sit.h"
#include "condsel/sit/sit_builder.h"

namespace condsel {

class SitPool {
 public:
  // Adds a SIT (deduplicating by (attr, expression)); returns its id.
  SitId Add(Sit sit);

  int32_t size() const { return static_cast<int32_t>(sits_.size()); }
  const Sit& sit(SitId id) const;
  const std::vector<Sit>& sits() const { return sits_; }

  // The base histogram for `col`, or nullptr if absent.
  const Sit* FindBase(ColumnRef col) const;

  // True if a SIT with this (attr, canonical expression) already exists.
  bool Has(ColumnRef attr, const std::vector<Predicate>& expression) const;

  // Statistics generation this pool was built from (0 for pools outside
  // the delta-maintenance path). Estimate caches keyed by predicate sets
  // bind to this stamp: two pools with different generations may assign
  // the same SitId to different statistics contents.
  uint64_t generation() const { return generation_; }
  void set_generation(uint64_t g) { generation_ = g; }

 private:
  std::vector<Sit> sits_;
  uint64_t generation_ = 0;
  std::map<std::tuple<ColumnRef, ColumnRef, std::vector<Predicate>>,
           SitId>
      index_;
};

// The specs of pool J_i for `workload`, in id order: base histograms over
// the sorted set of every column any workload query references (filter
// and join columns alike), then per canonical expression in sorted
// order, its attributes sorted. For i == 0 the list holds base
// histograms only. The list is duplicate-free, so adding the built SITs
// in list order assigns SitId == spec index. This is the one definition
// of which statistics exist: flat pools (GenerateSitPool) and per-part
// pieces (catalog/part_stats.h) are both built from it.
std::vector<SitSpec> EnumerateSitSpecs(const std::vector<Query>& workload,
                                       int max_join_preds);

// Builds pool J_i for `workload`: every EnumerateSitSpecs entry, added in
// spec order.
SitPool GenerateSitPool(const std::vector<Query>& workload, int max_join_preds,
                        const SitBuilder& builder);

}  // namespace condsel

