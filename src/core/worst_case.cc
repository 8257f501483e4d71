#include "core/worst_case.h"

#include <atomic>
#include <cstdio>
#include <optional>

#include "common/macros.h"
#include "common/strings.h"
#include "core/relative_cost.h"
#include "lp/fractional.h"
#include "runtime/thread_pool.h"

namespace costsense::core {
namespace {

/// Warns the first time any sweep in this process skips degenerate
/// vertices; per-call counts are surfaced in WorstCaseResult.
void WarnDegenerateOnce(size_t skipped) {
  if (skipped == 0) return;
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "costsense: worst-case vertex sweep skipped %zu degenerate "
                 "vertices (non-positive optimal cost); the reported maximum "
                 "covers the remaining vertices\n",
                 skipped);
  }
}

/// The vertex sweep shared by both public forms. `cheapest(v, rival)`
/// returns the optimal total cost at vertex `v` and writes the id of the
/// plan achieving it into `rival`. Vertices are visited in ascending mask
/// order through one scratch vector, and only a strictly larger gtc moves
/// the record, so ties resolve to the lowest mask.
template <typename Cheapest>
WorstCaseResult SweepVertices(const UsageVector& initial, const Box& box,
                              Cheapest&& cheapest) {
  WorstCaseResult out;
  out.worst_costs = box.Center();
  CostVector v(box.dims());
  std::string rival;
  const uint64_t vertices = box.VertexCount();
  for (uint64_t mask = 0; mask < vertices; ++mask) {
    box.VertexInto(mask, v);
    const double optimal = cheapest(v, rival);
    if (optimal <= 0.0) {
      ++out.degenerate_vertices;
      continue;
    }
    const double gtc = TotalCost(initial, v) / optimal;
    if (gtc > out.gtc) {
      out.gtc = gtc;
      out.worst_costs = v;
      out.worst_rival = rival;
    }
  }
  WarnDegenerateOnce(out.degenerate_vertices);
  return out;
}

}  // namespace

Result<WorstCaseResult> WorstCaseByVertexSweep(PlanOracle& oracle,
                                               const UsageVector& initial_usage,
                                               const Box& box,
                                               size_t max_dims) {
  if (box.dims() != initial_usage.size()) {
    return Status::InvalidArgument("usage vector dims do not match box");
  }
  if (box.dims() > max_dims) {
    return Status::FailedPrecondition(StrFormat(
        "vertex sweep over %zu dims needs 2^%zu oracle calls; use the LP "
        "method instead",
        box.dims(), box.dims()));
  }
  return SweepVertices(initial_usage, box,
                       [&](const CostVector& v, std::string& rival) {
                         OracleResult r = oracle.Optimize(v);
                         rival = std::move(r.plan_id);
                         return r.total_cost;
                       });
}

WorstCaseResult WorstCaseOverPlansByVertices(const UsageVector& initial_usage,
                                             const std::vector<PlanUsage>& plans,
                                             const Box& box) {
  if (plans.empty()) {
    // An empty candidate set makes every vertex vacuous; keep the default
    // result.
    WorstCaseResult out;
    out.worst_costs = box.Center();
    return out;
  }
  const Status valid = CheckPlanSet(plans, box.dims());
  COSTSENSE_CHECK_MSG(valid.ok(), valid.ToString().c_str());
  return SweepVertices(initial_usage, box,
                       [&](const CostVector& v, std::string& rival) {
                         const PlanUsage& best =
                             plans[OptimalPlanIndex(plans, v)];
                         rival = best.plan_id;
                         return TotalCost(best.usage, v);
                       });
}

// GCC 12 falsely reports free-nonheap-object when the Result<T> variant's
// string destructor is inlined through optional::emplace at -O2 (the
// PR104392 family of std::string false positives); suppress locally so the
// tree stays -Werror-clean without weakening the flag globally.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wfree-nonheap-object"
Result<WorstCaseResult> WorstCaseOverPlansByLp(
    const UsageVector& initial_usage, const std::vector<PlanUsage>& plans,
    const Box& box, runtime::ThreadPool* pool) {
  // The per-rival fractional programs are independent: solve them all
  // (concurrently when pooled), then reduce in rival order so the winning
  // rival on ties matches the serial scan.
  std::vector<std::optional<Result<lp::FractionalSolution>>> sols(
      plans.size());
  const Status pool_status =
      runtime::ForEachIndex(pool, plans.size(), [&](size_t i) {
        Result<lp::FractionalSolution> sol = lp::MaximizeRatioOverBox(
            initial_usage, plans[i].usage, box.lower(), box.upper());
        sols[i].emplace(std::move(sol));
        return Status::Ok();
      });
  COSTSENSE_CHECK(pool_status.ok());  // bodies always return Ok

  WorstCaseResult out;
  out.worst_costs = box.Center();
  for (size_t i = 0; i < plans.size(); ++i) {
    const Result<lp::FractionalSolution>& sol = *sols[i];
    if (!sol.ok()) return sol.status();
    if (sol->value > out.gtc) {
      // The ratio against one rival upper-bounds GTC only if that rival is
      // itself optimal at the maximizer; but the max over *all* rivals of
      // the max ratio equals the max over the box of cost/min-rival-cost,
      // so taking the overall maximum is exact.
      out.gtc = sol->value;
      out.worst_costs = sol->x;
      out.worst_rival = plans[i].plan_id;
    }
  }
  return out;
}
#pragma GCC diagnostic pop

}  // namespace costsense::core
