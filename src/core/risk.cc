#include "core/risk.h"

#include <algorithm>

#include "common/macros.h"
#include "core/relative_cost.h"

namespace costsense::core {

Result<RiskProfile> ComputeRiskProfile(const UsageVector& initial_usage,
                                       const std::vector<PlanUsage>& plans,
                                       const Box& box, Rng& rng,
                                       size_t samples) {
  if (plans.empty()) {
    return Status::InvalidArgument("candidate plan set is empty");
  }
  if (initial_usage.size() != box.dims()) {
    return Status::InvalidArgument("usage dims do not match box");
  }
  if (samples == 0) {
    return Status::InvalidArgument("need at least one sample");
  }
  COSTSENSE_RETURN_IF_ERROR(CheckPlanSet(plans, box.dims()));

  std::vector<double> gtcs;
  gtcs.reserve(samples);
  double sum = 0.0;
  size_t suboptimal = 0;
  size_t degenerate = 0;
  for (size_t i = 0; i < samples; ++i) {
    const CostVector c = box.SampleLogUniform(rng);
    const double denom = TotalCost(plans[OptimalPlanIndex(plans, c)].usage, c);
    // A degenerate draw (non-positive optimal cost) is counted and
    // skipped; the profile covers the remaining draws. Aborting here would
    // let one pathological corner of the band kill a whole table run.
    if (denom <= 0.0) {
      ++degenerate;
      continue;
    }
    const double gtc = TotalCost(initial_usage, c) / denom;
    gtcs.push_back(gtc);
    sum += gtc;
    if (gtc > 1.0 + 1e-9) ++suboptimal;
  }
  if (gtcs.empty()) {
    return Status::FailedPrecondition(
        "every risk sample was degenerate (non-positive optimal cost)");
  }
  std::sort(gtcs.begin(), gtcs.end());

  auto quantile = [&gtcs](double q) {
    const size_t idx = static_cast<size_t>(q * (gtcs.size() - 1));
    return gtcs[idx];
  };
  RiskProfile out;
  out.samples = gtcs.size();
  out.degenerate_samples = degenerate;
  out.mean_gtc = sum / static_cast<double>(gtcs.size());
  out.p50 = quantile(0.50);
  out.p90 = quantile(0.90);
  out.p99 = quantile(0.99);
  out.max_seen = gtcs.back();
  out.prob_suboptimal =
      static_cast<double>(suboptimal) / static_cast<double>(gtcs.size());
  return out;
}

}  // namespace costsense::core
