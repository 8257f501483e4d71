#ifndef COSTSENSE_CORE_RISK_H_
#define COSTSENSE_CORE_RISK_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/feasible_region.h"
#include "core/vectors.h"

namespace costsense::core {

/// Distributional complement to the paper's worst-case analysis: the
/// worst vertex tells you how bad things *can* get; operators also want to
/// know how bad they *typically* get. Samples cost vectors log-uniformly
/// from the feasible region (the multiplicative-error model) and profiles
/// the global relative cost of a fixed plan.
struct RiskProfile {
  double mean_gtc = 1.0;
  double p50 = 1.0;
  double p90 = 1.0;
  double p99 = 1.0;
  /// Largest GTC among the samples (a lower bound on the true worst case).
  double max_seen = 1.0;
  /// Fraction of sampled scenarios in which the plan is not optimal
  /// (GTC > 1 beyond rounding).
  double prob_suboptimal = 0.0;
  size_t samples = 0;
  /// Draws skipped because the optimal total cost there was non-positive
  /// (a zero-usage candidate at a degenerate corner of the band). The
  /// quantiles cover only the remaining samples; `samples` counts those.
  size_t degenerate_samples = 0;
};

/// Profiles plan `initial_usage` against the candidate set `plans` over
/// `box` with `samples` Monte Carlo draws. `plans` must be the complete
/// candidate set for GTC values to be exact per draw. A plan that fails
/// CheckPlanSet against the box (wrong dimension, non-finite usage) is an
/// InvalidArgument naming it.
[[nodiscard]] Result<RiskProfile> ComputeRiskProfile(const UsageVector& initial_usage,
                                       const std::vector<PlanUsage>& plans,
                                       const Box& box, Rng& rng,
                                       size_t samples = 2000);

}  // namespace costsense::core

#endif  // COSTSENSE_CORE_RISK_H_
