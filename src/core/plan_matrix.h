#ifndef COSTSENSE_CORE_PLAN_MATRIX_H_
#define COSTSENSE_CORE_PLAN_MATRIX_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/vectors.h"

namespace costsense::core {

/// A candidate plan set flattened into one contiguous row-major buffer
/// (plan p's usage vector is the p-th row) for the batched plan-cost
/// kernel.
///
/// BatchTotalCosts reproduces TotalCost bit for bit per plan (left-to-right
/// accumulation; see linalg/kernels.h), so code rewritten on top of a
/// PlanMatrix returns byte-identical results to the per-plan loops it
/// replaces.
class PlanMatrix {
 public:
  /// Flattens `plans`; all usage vectors must share one dimensionality and
  /// contain only finite values (CHECKed). An empty plan set yields a
  /// 0 x 0 matrix.
  explicit PlanMatrix(const std::vector<PlanUsage>& plans);

  /// Validating factory: the same invariants reported as a typed
  /// InvalidArgument instead of a process-fatal CHECK. For plan sets built
  /// from an untrusted source — a faulty oracle reply or a
  /// least-squares fit that went non-finite — where a garbage usage vector
  /// must fail one analysis, not abort the sweep that batched it.
  [[nodiscard]] static Result<PlanMatrix> Validated(const std::vector<PlanUsage>& plans);

  /// Number of plans (matrix rows).
  size_t rows() const { return rows_; }
  /// Resource-space dimensionality (matrix columns).
  size_t dims() const { return dims_; }

  const std::string& plan_id(size_t p) const { return ids_[p]; }
  double at(size_t p, size_t i) const { return row_major_[p * dims_ + i]; }

  /// out[p] = U_p . c for every plan, resizing `out` to rows(). Blocked
  /// matrix-vector kernel; each entry is bit-identical to
  /// TotalCost(plans[p].usage, c).
  void BatchTotalCosts(const CostVector& c, std::vector<double>& out) const;

 private:
  size_t rows_ = 0;
  size_t dims_ = 0;
  std::vector<double> row_major_;
  std::vector<std::string> ids_;
};

}  // namespace costsense::core

#endif  // COSTSENSE_CORE_PLAN_MATRIX_H_
