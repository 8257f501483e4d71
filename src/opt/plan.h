#ifndef COSTSENSE_OPT_PLAN_H_
#define COSTSENSE_OPT_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "core/vectors.h"
#include "query/query.h"

namespace costsense::opt {

/// Physical operator types. The set mirrors what the paper credits the DB2
/// optimizer with considering (Section 7.1): multiple scan paths, nested
/// loops / sort-merge / hash joins, sorts, aggregation.
enum class OpType {
  kSeqScan,
  kIndexScan,
  kIndexNLJoin,
  kBlockNLJoin,
  kSortMergeJoin,
  kHashJoin,
  kSort,
  kAggregate,
};

/// Returns a short mnemonic ("SCAN", "IXS", "INL", "BNL", "SMJ", "HSJ",
/// "SORT", "AGG") used in canonical plan ids and EXPLAIN output.
const char* OpTypeName(OpType op);

struct PlanNode;
/// Plans are immutable DAG nodes shared across the dynamic-programming
/// table; cheap to copy.
using PlanNodePtr = std::shared_ptr<const PlanNode>;

/// A node of a physical query plan, annotated with the estimates the cost
/// model derived: output cardinality/width, produced sort order, the
/// cumulative resource usage vector of the subtree, and a canonical id.
struct PlanNode {
  OpType op = OpType::kSeqScan;

  // Scan fields.
  /// Query ref index this leaf scans; -1 for non-leaves.
  int ref = -1;
  /// Catalog index id for kIndexScan / the inner of kIndexNLJoin.
  int index_id = -1;
  /// True when the index alone answers the reference (no data-page fetch).
  bool index_only = false;

  // Children (null for leaves; right null for unary operators).
  PlanNodePtr left;
  PlanNodePtr right;

  /// For joins: which query join edge drives the method.
  int join_edge = -1;
  query::JoinKind join_kind = query::JoinKind::kInner;

  /// For kSort / kAggregate: the keys sorted/grouped on.
  std::vector<query::SortKey> keys;
  /// For kAggregate: grouping consumes input already ordered on the group
  /// keys (else it hashes).
  bool sort_based = false;

  // Annotations.
  /// Bitmask of query refs covered by this subtree.
  uint32_t tables = 0;
  double output_rows = 0.0;
  double output_width_bytes = 0.0;
  /// Pages the output would occupy if materialized.
  double output_pages = 0.0;
  /// Sort order of the emitted stream (empty if unordered).
  std::vector<query::SortKey> order;
  /// Cumulative resource usage of the subtree (paper Section 3.2).
  core::UsageVector usage;
  /// Canonical id: equal strings identify equal plans. The cost model
  /// sets it on leaves only (SCAN, IXS, PROBE); inner nodes of candidate
  /// plans leave it empty, since the enumerator ranks candidates by cost.
  /// Every node of a plan the optimizer returns carries its id, filled by
  /// WithRenderedIds.
  std::string id;
};

/// Renders `node`'s canonical id from its operator fields and its leaves'
/// ids, e.g. "HSJ[e0](SCAN(a),SORT[r1.c0](SCAN(b)))". Leaves return their
/// own id.
std::string RenderPlanId(const PlanNode& node);

/// Copies the plan tree under `root` with every node's id rendered.
PlanNodePtr WithRenderedIds(const PlanNode& root);

/// True if stream order `produced` satisfies requirement `required`
/// (i.e. `required` is a prefix of `produced`).
bool OrderSatisfies(const std::vector<query::SortKey>& produced,
                    const std::vector<query::SortKey>& required);

/// Renders keys as "r0.c3,r1.c2" for ids and EXPLAIN.
std::string KeysToString(const std::vector<query::SortKey>& keys);

}  // namespace costsense::opt

#endif  // COSTSENSE_OPT_PLAN_H_
