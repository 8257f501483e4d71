#include "opt/cost_model.h"

#include <algorithm>
#include <cmath>

#include "catalog/selectivity.h"
#include "common/macros.h"
#include "common/strings.h"

namespace costsense::opt {

namespace {

/// Restriction selectivity on `column` of `ref` if a sargable one exists;
/// 1.0 otherwise.
double SargableSelectivityOn(const query::TableRef& ref, size_t column) {
  for (const query::ColumnRestriction& r : ref.restrictions) {
    if (r.column == column && r.sargable) return r.selectivity;
  }
  return 1.0;
}

}  // namespace

CostModel::CostModel(const catalog::Catalog& catalog,
                     const storage::StorageLayout& layout,
                     const storage::ResourceSpace& space,
                     const query::Query& query)
    : catalog_(catalog),
      layout_(layout),
      space_(space),
      query_(query),
      config_(catalog.config()) {}

double CostModel::PagesFor(double rows, double width_bytes) const {
  if (rows <= 0.0) return 0.0;
  return std::max(1.0, std::ceil(rows * width_bytes /
                                 (config_.page_size_bytes * 0.9)));
}

std::vector<size_t> CostModel::UsedColumns(size_t ref) const {
  std::vector<size_t> used;
  auto add = [&used](size_t col) {
    if (std::find(used.begin(), used.end(), col) == used.end()) {
      used.push_back(col);
    }
  };
  for (const query::ColumnRestriction& r : query_.refs[ref].restrictions) {
    add(r.column);
  }
  for (const query::JoinEdge& e : query_.joins) {
    if (e.left_ref == ref) add(e.left_column);
    if (e.right_ref == ref) add(e.right_column);
  }
  for (const query::SortKey& k : query_.aggregation.group_keys) {
    if (k.ref == ref) add(k.column);
  }
  for (const query::SortKey& k : query_.order_by) {
    if (k.ref == ref) add(k.column);
  }
  return used;
}

bool CostModel::IndexCoversRef(size_t ref, int index_id) const {
  const catalog::Index& idx = catalog_.index(index_id);
  for (size_t col : UsedColumns(ref)) {
    if (std::find(idx.key_columns.begin(), idx.key_columns.end(), col) ==
        idx.key_columns.end()) {
      return false;
    }
  }
  // The index must also supply the columns the query *outputs* from this
  // reference, approximated by the projected width. Semi/anti probe sides
  // project nothing, so only the key columns matter for them.
  for (const query::JoinEdge& e : query_.joins) {
    if (e.kind != query::JoinKind::kInner && e.right_ref == ref) return true;
  }
  const query::TableRef& tref = query_.refs[ref];
  const double needed = catalog_.table(tref.table_id).row_width_bytes() *
                        tref.projected_width_fraction;
  return needed <= idx.key_width_bytes + 16.0;
}

PlanNodePtr CostModel::SeqScan(size_t ref) const {
  const query::TableRef& tref = query_.refs[ref];
  const catalog::Table& table = catalog_.table(tref.table_id);

  auto node = std::make_shared<PlanNode>();
  node->op = OpType::kSeqScan;
  node->ref = static_cast<int>(ref);
  node->tables = uint32_t{1} << ref;
  node->output_rows = table.row_count() * tref.local_selectivity;
  node->output_width_bytes =
      table.row_width_bytes() * tref.projected_width_fraction;
  node->output_pages = PagesFor(node->output_rows, node->output_width_bytes);

  node->usage = space_.ZeroUsage();
  const double pages = table.pages();
  const double seeks = std::max(1.0, pages / config_.prefetch_pages);
  space_.ChargeIo(node->usage, layout_.DataDevice(tref.table_id), seeks,
                  pages);
  const double preds = static_cast<double>(tref.restrictions.size());
  space_.ChargeCpu(node->usage,
                   table.row_count() *
                       (config_.cpu_tuple_instructions +
                        std::max(1.0, preds) *
                            config_.cpu_predicate_instructions));
  node->id = StrFormat("SCAN(%s)", tref.alias.c_str());
  return node;
}

PlanNodePtr CostModel::IndexScan(size_t ref, int index_id,
                                 bool index_only) const {
  const query::TableRef& tref = query_.refs[ref];
  const catalog::Table& table = catalog_.table(tref.table_id);
  const catalog::Index& idx = catalog_.index(index_id);
  COSTSENSE_CHECK(idx.table_id == tref.table_id);

  const size_t lead_col = idx.key_columns.front();
  const double index_sel = SargableSelectivityOn(tref, lead_col);
  const double matches = table.row_count() * index_sel;

  auto node = std::make_shared<PlanNode>();
  node->op = OpType::kIndexScan;
  node->ref = static_cast<int>(ref);
  node->index_id = index_id;
  node->index_only = index_only;
  node->tables = uint32_t{1} << ref;
  node->output_rows = table.row_count() * tref.local_selectivity;
  node->output_width_bytes =
      index_only ? idx.key_width_bytes
                 : table.row_width_bytes() * tref.projected_width_fraction;
  node->output_pages = PagesFor(node->output_rows, node->output_width_bytes);
  // The stream leaves in index-key order.
  for (size_t col : idx.key_columns) node->order.push_back({ref, col});

  node->usage = space_.ZeroUsage();
  const int index_device = layout_.IndexDevice(tref.table_id);
  // Descend the tree once, then walk qualifying leaves sequentially.
  const double leaf_pages = std::max(1.0, idx.leaf_pages * index_sel);
  const double leaf_seeks =
      idx.levels + std::max(1.0, leaf_pages / config_.prefetch_pages);
  space_.ChargeIo(node->usage, index_device, leaf_seeks, leaf_pages);

  if (!index_only) {
    const int data_device = layout_.DataDevice(tref.table_id);
    if (idx.clustered) {
      const double pages = std::max(1.0, table.pages() * index_sel);
      space_.ChargeIo(node->usage, data_device,
                      std::max(1.0, pages / config_.prefetch_pages), pages);
    } else {
      const double pages = catalog::ExpectedPagesFetched(
          matches, table.row_count(), table.pages());
      // Unclustered fetches are random: one positioning per page touched.
      space_.ChargeIo(node->usage, data_device, pages, pages);
    }
  }
  const double preds = static_cast<double>(tref.restrictions.size());
  space_.ChargeCpu(node->usage,
                   config_.cpu_probe_instructions * idx.levels +
                       matches * (config_.cpu_tuple_instructions +
                                  std::max(1.0, preds) *
                                      config_.cpu_predicate_instructions));
  node->id = StrFormat("IXS(%s.%s%s)", tref.alias.c_str(), idx.name.c_str(),
                       index_only ? ":io" : "");
  return node;
}

int CostModel::ChargeSort(core::UsageVector& usage, double rows,
                          double pages) const {
  if (rows <= 1.0) return 0;
  const double compares = rows * std::log2(std::max(2.0, rows));
  space_.ChargeCpu(usage, compares * config_.cpu_sort_compare_instructions);
  if (pages <= config_.sort_heap_pages) return 0;  // in-memory sort

  // External sort: run generation writes all pages to temp and each merge
  // pass reads and rewrites them.
  const double runs = std::ceil(pages / config_.sort_heap_pages);
  const int passes = static_cast<int>(std::max(
      1.0, std::ceil(std::log(runs) / std::log(config_.merge_fan_in))));
  const double total_pages = 2.0 * pages * passes;  // write + read per pass
  space_.ChargeIo(usage, layout_.TempDevice(),
                  std::max(1.0, total_pages / config_.prefetch_pages),
                  total_pages);
  return passes;
}

PlanNodePtr CostModel::Sort(PlanNodePtr child,
                            std::vector<query::SortKey> keys) const {
  if (keys.empty() || OrderSatisfies(child->order, keys)) return child;
  auto node = std::make_shared<PlanNode>();
  node->op = OpType::kSort;
  node->keys = keys;
  node->tables = child->tables;
  node->output_rows = child->output_rows;
  node->output_width_bytes = child->output_width_bytes;
  node->output_pages = child->output_pages;
  node->order = std::move(keys);
  node->usage = child->usage;
  ChargeSort(node->usage, child->output_rows, child->output_pages);
  node->left = std::move(child);
  return node;
}

PlanNodePtr CostModel::FinishJoin(OpType op, PlanNodePtr left,
                                  PlanNodePtr right, const JoinProps& props,
                                  core::UsageVector usage,
                                  std::vector<query::SortKey> order) const {
  auto node = std::make_shared<PlanNode>();
  node->op = op;
  node->join_edge = props.edge;
  node->join_kind = props.edge >= 0 ? query_.joins[props.edge].kind
                                    : query::JoinKind::kInner;
  node->tables = left->tables | (right ? right->tables : 0u);
  node->output_rows = props.output_rows;
  node->output_width_bytes = props.output_width_bytes;
  node->output_pages = PagesFor(props.output_rows, props.output_width_bytes);
  node->order = std::move(order);
  node->usage = std::move(usage);
  node->left = std::move(left);
  node->right = std::move(right);
  return node;
}

PlanNodePtr CostModel::HashJoin(PlanNodePtr left, PlanNodePtr right,
                                const JoinProps& props) const {
  core::UsageVector usage = left->usage + right->usage;
  const double build_pages = right->output_pages;
  const double memory =
      config_.buffer_pool_pages * config_.hash_build_memory_fraction;
  if (build_pages > memory) {
    // Hybrid hash: partition both inputs to temp and read them back.
    const double spill = 2.0 * (left->output_pages + right->output_pages);
    space_.ChargeIo(usage, layout_.TempDevice(),
                    std::max(1.0, spill / config_.prefetch_pages), spill);
    space_.ChargeCpu(usage, (left->output_rows + right->output_rows) *
                                config_.cpu_tuple_instructions);
  }
  space_.ChargeCpu(usage,
                   right->output_rows * config_.cpu_hash_build_instructions +
                       left->output_rows * config_.cpu_hash_probe_instructions +
                       props.output_rows *
                           (config_.cpu_join_output_instructions +
                            props.residual_edges *
                                config_.cpu_predicate_instructions));
  // Hash join output follows the probe (left) order only when nothing
  // spilled; stay conservative and declare it unordered.
  return FinishJoin(OpType::kHashJoin, std::move(left), std::move(right),
                    props, std::move(usage), {});
}

PlanNodePtr CostModel::SortMergeJoin(PlanNodePtr left, PlanNodePtr right,
                                     const JoinProps& props) const {
  COSTSENSE_CHECK(props.edge >= 0);
  const query::JoinEdge& edge = query_.joins[props.edge];
  core::UsageVector usage = left->usage + right->usage;
  space_.ChargeCpu(usage,
                   (left->output_rows + right->output_rows) *
                           config_.cpu_sort_compare_instructions +
                       props.output_rows *
                           (config_.cpu_join_output_instructions +
                            props.residual_edges *
                                config_.cpu_predicate_instructions));
  // Output keeps the merge order, expressed on whichever edge endpoint
  // lives in the left subtree.
  const bool left_holds_edge_left =
      (left->tables >> edge.left_ref) & 1u;
  std::vector<query::SortKey> order = {
      left_holds_edge_left
          ? query::SortKey{edge.left_ref, edge.left_column}
          : query::SortKey{edge.right_ref, edge.right_column}};
  return FinishJoin(OpType::kSortMergeJoin, std::move(left), std::move(right),
                    props, std::move(usage), std::move(order));
}

PlanNodePtr CostModel::IndexNLJoin(PlanNodePtr left, size_t right_ref,
                                   int index_id, bool index_only,
                                   const JoinProps& props) const {
  COSTSENSE_CHECK(props.edge >= 0);
  const query::TableRef& tref = query_.refs[right_ref];
  const catalog::Table& table = catalog_.table(tref.table_id);
  const catalog::Index& idx = catalog_.index(index_id);
  const query::JoinEdge& edge = query_.joins[props.edge];

  // The edge may be written in either orientation; the probed (inner)
  // side is right_ref.
  const bool inner_is_edge_right = edge.right_ref == right_ref;
  const size_t inner_col =
      inner_is_edge_right ? edge.right_column : edge.left_column;
  const size_t outer_ref =
      inner_is_edge_right ? edge.left_ref : edge.right_ref;
  const size_t outer_col =
      inner_is_edge_right ? edge.left_column : edge.right_column;
  COSTSENSE_CHECK(inner_col == idx.key_columns.front());

  // Join selectivity for matches fetched per probe (before the inner's
  // residual local predicates).
  double join_sel = edge.selectivity_override;
  if (join_sel < 0.0) {
    const catalog::Table& outer_table =
        catalog_.table(query_.refs[outer_ref].table_id);
    join_sel =
        catalog::JoinSelectivity(outer_table.column(outer_col).stats,
                                 table.column(inner_col).stats);
  }
  const double probes = left->output_rows;
  const double fetched_rows = probes * table.row_count() * join_sel;

  core::UsageVector usage = left->usage;
  const int index_device = layout_.IndexDevice(tref.table_id);
  // Each probe descends to one leaf; upper levels are assumed cached after
  // the first probe, leaving one random leaf access per probe.
  space_.ChargeIo(usage, index_device, probes, probes);
  if (!index_only) {
    const int data_device = layout_.DataDevice(tref.table_id);
    const double pages = catalog::ExpectedPagesFetched(
        fetched_rows, table.row_count(), table.pages());
    space_.ChargeIo(usage, data_device, pages, pages);
  }
  const double preds = static_cast<double>(tref.restrictions.size());
  space_.ChargeCpu(
      usage, probes * config_.cpu_probe_instructions +
                 fetched_rows * (config_.cpu_tuple_instructions +
                                 std::max(1.0, preds) *
                                     config_.cpu_predicate_instructions) +
                 props.output_rows * (config_.cpu_join_output_instructions +
                                      props.residual_edges *
                                          config_.cpu_predicate_instructions));

  auto inner = std::make_shared<PlanNode>();
  inner->op = OpType::kIndexScan;
  inner->ref = static_cast<int>(right_ref);
  inner->index_id = index_id;
  inner->index_only = index_only;
  inner->tables = uint32_t{1} << right_ref;
  inner->output_rows = table.row_count() * tref.local_selectivity;
  inner->output_width_bytes =
      index_only ? idx.key_width_bytes
                 : table.row_width_bytes() * tref.projected_width_fraction;
  inner->output_pages =
      PagesFor(inner->output_rows, inner->output_width_bytes);
  inner->usage = space_.ZeroUsage();
  // Built for every INL candidate, so concatenated rather than printf'd.
  inner->id = "PROBE(" + tref.alias + "." + idx.name +
              (index_only ? ":io)" : ")");

  // Nested loops preserves the outer order.
  std::vector<query::SortKey> order = left->order;
  return FinishJoin(OpType::kIndexNLJoin, std::move(left), std::move(inner),
                    props, std::move(usage), std::move(order));
}

PlanNodePtr CostModel::BlockNLJoin(PlanNodePtr left, PlanNodePtr right,
                                   const JoinProps& props) const {
  core::UsageVector usage = left->usage + right->usage;
  const double block_pages = std::max(1.0, config_.sort_heap_pages);
  const double blocks =
      std::max(1.0, std::ceil(left->output_pages / block_pages));

  if (right->op == OpType::kSeqScan || right->op == OpType::kIndexScan) {
    // Rescan the base access path (blocks - 1) extra times.
    usage += right->usage * (blocks - 1.0);
  } else {
    // Materialize the inner once to temp, then scan it per block.
    const double mat = right->output_pages;
    const double total = mat + blocks * mat;
    space_.ChargeIo(usage, layout_.TempDevice(),
                    std::max(1.0, total / config_.prefetch_pages), total);
  }
  space_.ChargeCpu(usage,
                   left->output_rows * right->output_rows *
                           config_.cpu_predicate_instructions +
                       props.output_rows *
                           (config_.cpu_join_output_instructions +
                            props.residual_edges *
                                config_.cpu_predicate_instructions));
  return FinishJoin(OpType::kBlockNLJoin, std::move(left), std::move(right),
                    props, std::move(usage), {});
}

PlanNodePtr CostModel::Aggregate(PlanNodePtr child, bool sort_based) const {
  const query::Aggregation& agg = query_.aggregation;
  COSTSENSE_CHECK(agg.present);
  auto node = std::make_shared<PlanNode>();
  node->op = OpType::kAggregate;
  node->keys = agg.group_keys;
  node->sort_based = sort_based;
  node->tables = child->tables;
  node->output_rows = std::min(agg.output_groups, child->output_rows);
  node->output_width_bytes = child->output_width_bytes;
  node->output_pages = PagesFor(node->output_rows, node->output_width_bytes);
  node->usage = child->usage;
  space_.ChargeCpu(node->usage,
                   child->output_rows * config_.cpu_agg_instructions);
  if (sort_based) {
    COSTSENSE_CHECK(OrderSatisfies(child->order, agg.group_keys));
    node->order = child->order;  // grouping preserves the input order
  } else {
    // Hash aggregation: spill partitions to temp if the group table
    // exceeds the sort heap.
    const double group_pages =
        PagesFor(agg.output_groups, child->output_width_bytes);
    if (group_pages > config_.sort_heap_pages) {
      const double spill = 2.0 * child->output_pages;
      space_.ChargeIo(node->usage, layout_.TempDevice(),
                      std::max(1.0, spill / config_.prefetch_pages), spill);
    }
  }
  node->left = std::move(child);
  return node;
}

}  // namespace costsense::opt
