#include "core/region_of_influence.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "lp/simplex.h"

namespace costsense::core {

Result<CandidacyResult> FindRegionWitness(
    const UsageVector& a, std::span<const UsageVector* const> rivals,
    const Box& box, RegionWitnessScratch* scratch) {
  const size_t n = box.dims();
  if (a.size() != n) {
    return Status::InvalidArgument("usage vector dims do not match box");
  }
  RegionWitnessScratch local;
  RegionWitnessScratch& buf = scratch != nullptr ? *scratch : local;

  // Variables: w_0..w_{n-1} in [0, 1] (normalized position within the
  // box: C_i = lo_i + w_i * width_i) and s (the optimality margin).
  // Normalizing both the variables and each rival row keeps the tableau
  // well-conditioned despite usage/cost magnitudes spanning many orders.
  lp::Problem& p = buf.problem;
  p.num_vars = n + 1;
  p.maximize = true;
  if (p.objective.size() != n + 1) p.objective = linalg::Vector(n + 1);
  for (size_t i = 0; i < n; ++i) p.objective[i] = 0.0;
  p.objective[n] = 1.0;
  p.ClearConstraints();
  const size_t max_rows = n + 1 + rivals.size();
  p.coeffs.reserve(max_rows * (n + 1));
  p.relations.reserve(max_rows);
  p.rhs.reserve(max_rows);

  const CostVector& lo = box.lower();
  const CostVector& hi = box.upper();
  buf.center.resize(n);
  box.CenterInto(buf.center);
  const std::vector<double>& center = buf.center;

  // w_i <= 1
  for (size_t i = 0; i < n; ++i) {
    p.AddConstraint(lp::Relation::kLessEqual, 1.0)[i] = 1.0;
  }
  // s <= 1 (keeps the LP bounded; the margin is normalized below).
  p.AddConstraint(lp::Relation::kLessEqual, 1.0)[n] = 1.0;
  // For each rival b: (B - A).(lo + w*width) >= s * sigma, where sigma
  // scales the margin to the constraint's magnitude at the box center.
  std::vector<double>& diff = buf.diff;
  diff.resize(n);
  for (const UsageVector* rival : rivals) {
    if (rival->size() != n) {
      return Status::InvalidArgument("rival usage dims do not match box");
    }
    double inf_norm = 0.0;
    for (size_t i = 0; i < n; ++i) {
      diff[i] = (*rival)[i] - a[i];
      inf_norm = std::max(inf_norm, std::fabs(diff[i]));
    }
    if (inf_norm == 0.0) continue;  // identical usage: always a tie
    double sigma = 0.0;
    for (size_t i = 0; i < n; ++i) sigma += std::fabs(diff[i]) * center[i];
    COSTSENSE_CHECK(sigma > 0.0);
    double dot_lo = 0.0;
    for (size_t i = 0; i < n; ++i) dot_lo += diff[i] * lo[i];

    const std::span<double> row =
        p.AddConstraint(lp::Relation::kGreaterEqual, -dot_lo / sigma);
    for (size_t i = 0; i < n; ++i) {
      row[i] = diff[i] * (hi[i] - lo[i]) / sigma;
    }
    row[n] = -1.0;
  }

  const lp::Solution sol = lp::Solve(p, buf.workspace);
  CandidacyResult out;
  if (sol.status != lp::SolveStatus::kOptimal) {
    out.candidate = false;  // infeasible even with zero margin
    return out;
  }
  out.candidate = true;
  out.margin = sol.x[n];
  out.witness = CostVector(n);
  for (size_t i = 0; i < n; ++i) {
    out.witness[i] = lo[i] + sol.x[i] * (hi[i] - lo[i]);
  }
  return out;
}

Result<CandidacyResult> FindRegionWitness(const UsageVector& a,
                                          const std::vector<PlanUsage>& rivals,
                                          const Box& box) {
  std::vector<const UsageVector*> usages;
  usages.reserve(rivals.size());
  for (const PlanUsage& rival : rivals) usages.push_back(&rival.usage);
  return FindRegionWitness(a, usages, box, /*scratch=*/nullptr);
}

bool InRegionOfInfluence(const std::vector<PlanUsage>& plans, size_t index,
                         const CostVector& c, double rel_tol) {
  COSTSENSE_CHECK(index < plans.size());
  const double mine = TotalCost(plans[index].usage, c);
  for (size_t j = 0; j < plans.size(); ++j) {
    if (j == index) continue;
    const double theirs = TotalCost(plans[j].usage, c);
    if (mine > theirs * (1.0 + rel_tol)) return false;
  }
  return true;
}

}  // namespace costsense::core
