#ifndef COSTSENSE_CORE_DISCOVERY_H_
#define COSTSENSE_CORE_DISCOVERY_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/feasible_region.h"
#include "core/oracle.h"
#include "core/usage_extraction.h"
#include "core/vectors.h"

namespace costsense::runtime {
class ThreadPool;
}  // namespace costsense::runtime

namespace costsense::core {

/// Tuning for candidate-optimal plan discovery.
struct DiscoveryOptions {
  /// Random log-uniform probes of the feasible region.
  size_t random_samples = 48;
  /// Enumerate all box vertices when dims <= this (else sample vertices).
  size_t full_vertex_sweep_max_dims = 10;
  /// Random vertices probed when the full sweep is too large.
  size_t sampled_vertices = 256;
  /// Recursive bisection depth along segments between witnesses of
  /// different plans (Observation 3: a plan optimal at both endpoints is
  /// optimal on the whole segment, so only differing endpoints can hide
  /// undiscovered plans between them).
  size_t bisection_depth = 5;
  /// Rounds of the completeness check: probe a deep-interior witness of
  /// each region of influence and verify the oracle agrees.
  size_t completeness_rounds = 3;
  /// When the oracle does not reveal usage vectors, extract them by least
  /// squares with these options.
  ExtractionOptions extraction;
  /// Optional thread pool for the work that runs the optimizer: oracle
  /// probes the oracle cannot recall from memory (PlanOracle::Recall) and
  /// per-plan least-squares extractions. Recalled probes and the
  /// margin/completeness LPs run on the calling thread; null runs
  /// everything there. Parallel runs are bit-identical to serial ones:
  /// probe points are generated serially from `rng`, evaluated wherever
  /// they are scheduled, and recorded in generation order, while per-plan
  /// extraction streams are forked from `rng` keyed by plan id. The oracle
  /// must be safe to call concurrently when a pool is supplied (wrap it in
  /// runtime::CachingOracle, or see blackbox::NarrowOptimizer).
  runtime::ThreadPool* pool = nullptr;
};

/// One discovered candidate optimal plan.
struct DiscoveredPlan {
  PlanUsage plan;
  /// A feasible cost vector at which the oracle chose this plan.
  CostVector witness;
  /// Normalized interior margin of the plan's region of influence within
  /// the discovered set (0 = boundary-only / tie).
  double margin = 0.0;
  /// True if the usage vector came from least-squares extraction rather
  /// than directly from the oracle.
  bool usage_from_least_squares = false;
  /// Validation error of the extraction (0 when white-box).
  double extraction_error = 0.0;
};

/// Result of a discovery run.
struct DiscoveryResult {
  std::vector<DiscoveredPlan> plans;
  size_t oracle_calls = 0;
  /// True if the final completeness round found no new plan (the
  /// discovered regions of influence tile the feasible region as far as
  /// interior probing can tell — the practical analogue of the paper's
  /// Observation-3 polytope check) and no plan's usage extraction failed.
  bool complete = false;
  /// Probes that returned an error after the oracle stack's own retries
  /// and were skipped (fallible overload only; 0 against an infallible
  /// oracle). Includes probes dropped inside usage extraction. Nonzero
  /// counts mean the discovered set is a partial view: plans witnessed
  /// only by failed probes may be missing.
  size_t failed_probes = 0;
  /// Plans the oracle chose whose least-squares usage extraction failed
  /// in the final round (a thin region of influence, a rank-deficient
  /// sample cloud, or probes lost to oracle failures). They are missing
  /// from `plans`, so a nonzero count also clears `complete`. Always 0
  /// against an oracle that reveals usage vectors.
  size_t failed_extractions = 0;
};

/// Finds the candidate optimal plans of the feasible box through the
/// oracle, following the paper's five-step procedure (Section 6.2.1):
/// sample cost vectors, ask the optimizer for the optimal plan at each,
/// estimate usage vectors (least squares if the oracle is narrow), and
/// verify completeness using the convexity of regions of influence.
[[nodiscard]] Result<DiscoveryResult> DiscoverCandidatePlans(PlanOracle& oracle,
                                               const Box& box, Rng& rng,
                                               const DiscoveryOptions& options);

/// Fallible-oracle overload with graceful degradation: a probe that errors
/// (after whatever retries the oracle stack performs internally) is
/// skipped and counted in DiscoveryResult::failed_probes rather than
/// aborting the run — a failed seed probe loses at most one witness, a
/// failed midpoint stops refining one segment, a failed extraction drops
/// one narrow plan (counted in failed_extractions). Against an oracle that never errors this is
/// call-for-call identical to the overload above.
[[nodiscard]] Result<DiscoveryResult> DiscoverCandidatePlans(FalliblePlanOracle& oracle,
                                               const Box& box, Rng& rng,
                                               const DiscoveryOptions& options);

}  // namespace costsense::core

#endif  // COSTSENSE_CORE_DISCOVERY_H_
