// Workload-driven SIT selection under a budget (extension).
//
// The paper assumes a SIT pool is given; a deployment has to decide which
// SITs to build. This advisor picks greedily: starting from the base
// histograms, it repeatedly materializes the candidate SIT that most
// reduces the workload's total getSelectivity Diff score — a purely
// statistics-side signal (the Section 3.5 ranking), requiring no query
// execution or ground truth, exactly what a production advisor could
// afford. bench_sit_advisor validates the choices against true errors.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "condsel/query/query.h"
#include "condsel/sit/sit_builder.h"
#include "condsel/sit/sit_pool.h"

namespace condsel {

struct AdvisorOptions {
  // Number of SITs to pick beyond the base histograms.
  int budget = 10;
  // Candidate universe: every SIT of the J_i pools up to this join count.
  int max_join_preds = 3;
};

struct AdvisorStep {
  SitId chosen;         // id within the returned pool
  double score_after;   // total workload Diff score after adding it
};

// How often one statistic of the final pool supplied an atomic factor
// across the workload's best decompositions, with the provider's
// provenance description ("T2.c1 | T0.c0 = T1.c1" for a SIT, "T2.c1" for
// a base histogram). Statistics the decompositions never cite are listed
// with uses == 0 — a signal the advisor's pick went stale.
struct SitCitation {
  SitId sit_id = -1;
  std::string source;        // FactorProvenance::source
  std::string kind;          // FactorProvenance::histogram_kind
  uint64_t uses = 0;         // atomic factors the statistic supplied
};

struct AdvisorResult {
  // Base histograms plus the chosen SITs, in selection order.
  SitPool pool;
  std::vector<AdvisorStep> steps;
  double initial_score = 0.0;  // bases only
  // Per-statistic citation counts under the final pool, in pool id order.
  std::vector<SitCitation> citations;
};

AdvisorResult AdviseSits(const std::vector<Query>& workload,
                         const SitBuilder& builder,
                         const AdvisorOptions& options);

}  // namespace condsel

