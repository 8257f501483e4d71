#include "core/plan_matrix.h"

#include <cmath>

#include "common/macros.h"
#include "common/strings.h"
#include "linalg/kernels.h"

namespace costsense::core {

namespace {

// Shared by the CHECKing constructor and the Status-returning factory. A
// non-finite usage entry would poison every batched dot product built on
// the matrix, so it is rejected at flattening time.
Status CheckPlanSet(const std::vector<PlanUsage>& plans) {
  const size_t dims = plans.empty() ? 0 : plans[0].usage.size();
  for (size_t p = 0; p < plans.size(); ++p) {
    if (plans[p].usage.size() != dims) {
      return Status::InvalidArgument(StrFormat(
          "plan usage vectors must share one dimensionality "
          "(plan %s has %zu dims, expected %zu)",
          plans[p].plan_id.c_str(), plans[p].usage.size(), dims));
    }
    for (size_t i = 0; i < dims; ++i) {
      if (!std::isfinite(plans[p].usage[i])) {
        return Status::InvalidArgument(
            StrFormat("plan %s has non-finite usage in dim %zu (%g)",
                      plans[p].plan_id.c_str(), i, plans[p].usage[i]));
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Result<PlanMatrix> PlanMatrix::Validated(const std::vector<PlanUsage>& plans) {
  COSTSENSE_RETURN_IF_ERROR(CheckPlanSet(plans));
  return PlanMatrix(plans);
}

PlanMatrix::PlanMatrix(const std::vector<PlanUsage>& plans)
    : rows_(plans.size()),
      dims_(plans.empty() ? 0 : plans[0].usage.size()) {
  row_major_.resize(rows_ * dims_);
  ids_.reserve(rows_);
  for (size_t p = 0; p < rows_; ++p) {
    const PlanUsage& plan = plans[p];
    COSTSENSE_CHECK_MSG(plan.usage.size() == dims_,
                        "plan usage vectors must share one dimensionality");
    ids_.push_back(plan.plan_id);
    for (size_t i = 0; i < dims_; ++i) {
      const double u = plan.usage[i];
      COSTSENSE_CHECK_MSG(std::isfinite(u),
                          "plan usage vectors must be finite");
      row_major_[p * dims_ + i] = u;
    }
  }
}

void PlanMatrix::BatchTotalCosts(const CostVector& c,
                                 std::vector<double>& out) const {
  COSTSENSE_CHECK_MSG(c.size() == dims_ || rows_ == 0,
                      "cost vector dims do not match plan matrix");
  out.resize(rows_);
  if (rows_ == 0) return;
  linalg::MatVecRowMajor(row_major_.data(), rows_, dims_, c.data().data(),
                         out.data());
}

}  // namespace costsense::core
