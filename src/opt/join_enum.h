#ifndef COSTSENSE_OPT_JOIN_ENUM_H_
#define COSTSENSE_OPT_JOIN_ENUM_H_

#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "core/vectors.h"
#include "opt/access_paths.h"
#include "opt/cost_model.h"
#include "opt/plan.h"

namespace costsense::opt {

/// System-R-style dynamic-programming join enumerator over table subsets,
/// with interesting orders and (optionally) bushy trees — the plan space
/// the paper attributes to the DB2 optimizer (Section 7.1). Pruning is by
/// estimated total cost U . C under the cost vector supplied to BestPlan,
/// so re-running with different cost vectors reproduces the paper's
/// methodology of re-invoking the optimizer per cost setting.
class JoinEnumerator {
 public:
  JoinEnumerator(const CostModel& model, const catalog::Catalog& catalog,
                 const OptimizerOptions& options);

  /// Returns the estimated optimal plan under `costs` (fully annotated,
  /// including its resource usage vector and every node's id). Fails on
  /// malformed queries (too many tables, missing refs).
  [[nodiscard]] Result<PlanNodePtr> BestPlan(const core::CostVector& costs);

  /// Cardinality shared by every plan covering subset `mask` (exposed for
  /// tests).
  double SubsetRows(uint32_t mask) const;

 private:
  struct Entry {
    PlanNodePtr plan;
    double cost = 0.0;
  };

  /// Keeps `entry` if not dominated (cheaper entry with an order at least
  /// as useful); evicts entries it dominates; caps the frontier size.
  static void AddEntry(std::vector<Entry>& entries, Entry entry);

  double EdgeSelectivity(const query::JoinEdge& edge) const;
  double BaseRows(size_t ref) const;
  double BaseWidth(size_t ref) const;

  /// Join edges connecting `left_mask` and `right_mask` (either
  /// orientation).
  std::vector<int> ConnectingEdges(uint32_t left_mask,
                                   uint32_t right_mask) const;

  /// Builds all physical joins of (left entry, right subset) and adds them
  /// to `out`.
  void EmitJoins(const core::CostVector& costs, uint32_t left_mask,
                 uint32_t right_mask, const std::vector<Entry>& left_entries,
                 const std::vector<Entry>& right_entries,
                 std::vector<Entry>& out);

  const CostModel& model_;
  const catalog::Catalog& catalog_;
  const query::Query& query_;
  const OptimizerOptions& options_;
  bool cross_products_needed_ = false;
};

}  // namespace costsense::opt

#endif  // COSTSENSE_OPT_JOIN_ENUM_H_
