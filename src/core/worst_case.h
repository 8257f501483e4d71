#ifndef COSTSENSE_CORE_WORST_CASE_H_
#define COSTSENSE_CORE_WORST_CASE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/feasible_region.h"
#include "core/oracle.h"
#include "core/vectors.h"

namespace costsense::runtime {
class ThreadPool;
}  // namespace costsense::runtime

namespace costsense::core {

/// Result of a worst-case global-relative-cost analysis for one initial
/// plan over one feasible cost region (paper Section 6.1).
struct WorstCaseResult {
  /// Maximum global relative total cost: how many times more expensive the
  /// initial plan can get, relative to the true optimum, at the worst
  /// feasible cost vector.
  double gtc = 1.0;
  /// The cost vector achieving the maximum (a vertex of the box).
  CostVector worst_costs;
  /// Id (or index rendered as text) of the rival plan that is optimal at
  /// the worst point, when known.
  std::string worst_rival;
  /// Vertices the vertex sweep skipped because the optimal total cost
  /// there was non-positive (degenerate: a zero-usage plan, or an oracle
  /// reporting a zero estimate). Nonzero counts are also warned once to
  /// stderr; the reported maximum covers only the remaining vertices.
  size_t degenerate_vertices = 0;
};

// Two methods solve the same problem. The LP method is the one every
// figure, the analysis server and the robust-plan search use. The vertex
// sweep is the paper-literal reference the tests check the LP against:
// one plain pass over the 2^d box vertices in ascending mask order, where
// a strictly larger gtc wins, so ties resolve to the lowest mask.

/// Paper-faithful worst-case analysis (Section 6.1): evaluates the global
/// relative cost of the plan with usage vector `initial_usage` at *every*
/// vertex of the feasible box, asking the oracle for the optimal plan's
/// total cost at each vertex. Correct by the paper's Observation 2 (the
/// linear-fractional objective is vertex-maximized). Costs 2^dims oracle
/// calls; refuses boxes with more than `max_dims` dimensions.
[[nodiscard]] Result<WorstCaseResult> WorstCaseByVertexSweep(
    PlanOracle& oracle, const UsageVector& initial_usage, const Box& box,
    size_t max_dims = 20);

/// Worst case over a *known* candidate plan set, by sweeping box vertices
/// and picking the optimum at each with OptimalPlanIndex (no oracle
/// calls). Exact when `plans` contains every candidate optimal plan of the
/// region. Every plan must pass CheckPlanSet against the box (CHECKed).
WorstCaseResult WorstCaseOverPlansByVertices(
    const UsageVector& initial_usage, const std::vector<PlanUsage>& plans,
    const Box& box);

/// Worst case over a known candidate plan set by exact linear-fractional
/// programming: for each rival plan b, maximize (U0 . C)/(B . C) over the
/// box with the exact fractional maximizer and take the largest. Equivalent to the
/// vertex sweep (max_C U0.C/min_b B.C == max_b max_C U0.C/B.C) but
/// polynomial in the dimension count, so it scales past 20 resources.
/// The per-rival maximizations are independent and fan out over `pool`
/// when non-null; rivals are reduced in input order, so results match the
/// serial run exactly. Each is a microsecond-sized LP, so the library's
/// own callers (FigureRunner::GtcSeries, serve::Dispatcher) pass null: a
/// pool hand-off costs more than the work.
[[nodiscard]] Result<WorstCaseResult> WorstCaseOverPlansByLp(
    const UsageVector& initial_usage, const std::vector<PlanUsage>& plans,
    const Box& box, runtime::ThreadPool* pool = nullptr);

}  // namespace costsense::core

#endif  // COSTSENSE_CORE_WORST_CASE_H_
