#ifndef COSTSENSE_CORE_REGION_OF_INFLUENCE_H_
#define COSTSENSE_CORE_REGION_OF_INFLUENCE_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "core/feasible_region.h"
#include "core/vectors.h"
#include "lp/simplex.h"

namespace costsense::core {

/// Answer to "is this plan optimal anywhere in the feasible region, and if
/// so where?".
struct CandidacyResult {
  /// True if some feasible cost vector makes the plan (weakly) optimal
  /// against all rivals — the definition of candidate optimal (paper
  /// Section 4.4).
  bool candidate = false;
  /// Normalized optimality margin at the witness: 0 means the plan only
  /// ties on the boundary of its region of influence; > 0 means the witness
  /// is in the region's interior.
  double margin = 0.0;
  /// A feasible cost vector under which the plan is optimal (valid when
  /// candidate is true).
  CostVector witness;
};

/// Buffers FindRegionWitness reuses when a caller passes them: the LP,
/// the solver's tableau and the per-rival scratch keep their capacity from
/// one call to the next, so a caller that solves one witness LP per plan,
/// round after round (discovery), allocates only the results.
struct RegionWitnessScratch {
  lp::Problem problem;
  lp::Workspace workspace;
  std::vector<double> center;
  std::vector<double> diff;
};

/// Decides by linear programming whether the plan with usage vector `a` is
/// candidate optimal against `rivals` within the feasible box, i.e. whether
/// its region of influence (paper Section 4.5)
///   V_a = { C in box : A.C <= B.C for all rivals B }
/// is non-empty — and finds a deepest-margin witness inside it.
///
/// This is the LP replacement for the paper's geometric construction:
/// regions of influence are convex polytopes bounded by switchover planes,
/// so emptiness and interior points are exactly LP questions.
///
/// Rivals are taken by reference (their usage vectors), and `scratch`,
/// when not null, carries the buffers across calls; the result does not
/// depend on either.
[[nodiscard]] Result<CandidacyResult> FindRegionWitness(
    const UsageVector& a, std::span<const UsageVector* const> rivals,
    const Box& box, RegionWitnessScratch* scratch);

/// The same LP over rivals held by value: rivals[k].usage in order.
[[nodiscard]] Result<CandidacyResult> FindRegionWitness(const UsageVector& a,
                                          const std::vector<PlanUsage>& rivals,
                                          const Box& box);

/// True if `c` lies in the region of influence of `plans[index]` relative
/// to the full set (i.e. that plan is cheapest at `c`, within relative
/// tolerance `rel_tol` for ties).
bool InRegionOfInfluence(const std::vector<PlanUsage>& plans, size_t index,
                         const CostVector& c, double rel_tol = 1e-12);

}  // namespace costsense::core

#endif  // COSTSENSE_CORE_REGION_OF_INFLUENCE_H_
