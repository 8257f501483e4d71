#ifndef COSTSENSE_OPT_COST_MODEL_H_
#define COSTSENSE_OPT_COST_MODEL_H_

#include <vector>

#include "catalog/catalog.h"
#include "opt/plan.h"
#include "query/query.h"
#include "storage/layout.h"
#include "storage/resource_space.h"

namespace costsense::opt {

/// Produces fully-annotated physical plan nodes, charging every operator's
/// I/O to the right storage device and its CPU work to the CPU resource.
/// This is where the paper's additive cost model (Section 3.1) is
/// realized: each constructor accumulates a resource usage vector; total
/// cost is later priced as U . C for any cost vector C.
///
/// Cardinalities of join results are supplied by the enumerator (they are
/// a function of the covered table set only, mirroring the paper's
/// assumption that selectivity estimates are accurate and shared by all
/// plans, Section 3.3).
class CostModel {
 public:
  CostModel(const catalog::Catalog& catalog,
            const storage::StorageLayout& layout,
            const storage::ResourceSpace& space, const query::Query& query);

  /// Shared cardinality/width properties of a join result, computed by the
  /// enumerator once per table subset.
  struct JoinProps {
    double output_rows = 0.0;
    double output_width_bytes = 0.0;
    /// The join edge the physical method keys on.
    int edge = -1;
    /// Number of additional connecting edges applied as residual filters
    /// (extra CPU per examined pair).
    int residual_edges = 0;
  };

  /// Full sequential scan of `ref`, applying its local predicates.
  PlanNodePtr SeqScan(size_t ref) const;

  /// B-tree access to `ref` through `index_id`; uses the reference's
  /// sargable restriction on the index's leading column if present (else a
  /// full index sweep, useful for its order or to avoid the table).
  /// `index_only` skips the data-page fetch (only legal if the index
  /// covers the columns the query uses — see IndexCoversRef).
  PlanNodePtr IndexScan(size_t ref, int index_id, bool index_only) const;

  /// Hybrid hash join; builds on `right`. Spills both sides to the temp
  /// device when the build side exceeds memory.
  PlanNodePtr HashJoin(PlanNodePtr left, PlanNodePtr right,
                       const JoinProps& props) const;

  /// Sort-merge join; both inputs must already satisfy the edge's key
  /// order (the enumerator wraps them in Sort nodes as needed).
  PlanNodePtr SortMergeJoin(PlanNodePtr left, PlanNodePtr right,
                            const JoinProps& props) const;

  /// Index nested-loops join: for each outer (left) row, probe
  /// `index_id` on base reference `right_ref` and fetch matches.
  /// `index_only` skips data-page fetches when the index covers the
  /// reference. Preserves the outer order.
  PlanNodePtr IndexNLJoin(PlanNodePtr left, size_t right_ref, int index_id,
                          bool index_only, const JoinProps& props) const;

  /// Block nested-loops join: rescan the inner per outer block. A non-leaf
  /// inner is first materialized to the temp device and rescanned from
  /// there.
  PlanNodePtr BlockNLJoin(PlanNodePtr left, PlanNodePtr right,
                          const JoinProps& props) const;

  /// Sorts `child` on `keys`. Returns `child` unchanged if its order
  /// already satisfies them; external sorts charge the temp device.
  PlanNodePtr Sort(PlanNodePtr child, std::vector<query::SortKey> keys) const;

  /// Aggregation per the query's Aggregation spec. `sort_based` consumes a
  /// child already ordered on the group keys (enumerator adds the Sort);
  /// hash aggregation spills to temp when the group table exceeds memory.
  PlanNodePtr Aggregate(PlanNodePtr child, bool sort_based) const;

  /// Columns of `ref` that the query touches (restrictions, join keys,
  /// grouping and ordering keys) — the covering test for index-only access.
  std::vector<size_t> UsedColumns(size_t ref) const;

  /// True if `index_id` covers every used column of `ref`.
  bool IndexCoversRef(size_t ref, int index_id) const;

  /// Output pages for a (rows, width) pair under the configured page size.
  double PagesFor(double rows, double width_bytes) const;

  const query::Query& query() const { return query_; }

 private:
  const catalog::Catalog& catalog_;
  const storage::StorageLayout& layout_;
  const storage::ResourceSpace& space_;
  const query::Query& query_;
  const catalog::SystemConfig& config_;

  /// Charges an external sort of (rows, pages) into `usage`, returns the
  /// number of merge passes used (0 for in-memory).
  int ChargeSort(core::UsageVector& usage, double rows, double pages) const;

  PlanNodePtr FinishJoin(OpType op, PlanNodePtr left, PlanNodePtr right,
                         const JoinProps& props, core::UsageVector usage,
                         std::vector<query::SortKey> order) const;
};

}  // namespace costsense::opt

#endif  // COSTSENSE_OPT_COST_MODEL_H_
