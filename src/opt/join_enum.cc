#include "opt/join_enum.h"

#include <algorithm>
#include <bit>

#include "catalog/selectivity.h"
#include "common/macros.h"

namespace costsense::opt {

namespace {
constexpr double kMinRows = 0.01;

// Pareto (cost, order) entries kept per table subset. The cap bounds
// speed, not correctness: it evicts 60% / 57% / 68% of frontier inserts
// in the quick Figure 5 / 6 / 7 runs, and uncapped those runs print
// byte-identical figures but analyze 1.7-2.1x slower (median of three
// runs at 4 threads on a 4-vCPU VM).
constexpr size_t kMaxEntriesPerSubset = 6;
}  // namespace

JoinEnumerator::JoinEnumerator(const CostModel& model,
                               const catalog::Catalog& catalog,
                               const OptimizerOptions& options)
    : model_(model),
      catalog_(catalog),
      query_(model.query()),
      options_(options) {
  // If the join graph is disconnected, cross products are unavoidable.
  const size_t n = query_.refs.size();
  if (n > 1) {
    std::vector<uint32_t> comp(n);
    for (size_t i = 0; i < n; ++i) comp[i] = static_cast<uint32_t>(i);
    bool changed = true;
    while (changed) {
      changed = false;
      for (const query::JoinEdge& e : query_.joins) {
        const uint32_t m = std::min(comp[e.left_ref], comp[e.right_ref]);
        if (comp[e.left_ref] != m || comp[e.right_ref] != m) {
          comp[e.left_ref] = comp[e.right_ref] = m;
          changed = true;
        }
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (comp[i] != 0) cross_products_needed_ = true;
    }
  }
}

double JoinEnumerator::BaseRows(size_t ref) const {
  const query::TableRef& tref = query_.refs[ref];
  return std::max(kMinRows, catalog_.table(tref.table_id).row_count() *
                                tref.local_selectivity);
}

double JoinEnumerator::BaseWidth(size_t ref) const {
  const query::TableRef& tref = query_.refs[ref];
  return catalog_.table(tref.table_id).row_width_bytes() *
         tref.projected_width_fraction;
}

double JoinEnumerator::EdgeSelectivity(const query::JoinEdge& edge) const {
  if (edge.selectivity_override >= 0.0) return edge.selectivity_override;
  const catalog::Table& lt =
      catalog_.table(query_.refs[edge.left_ref].table_id);
  const catalog::Table& rt =
      catalog_.table(query_.refs[edge.right_ref].table_id);
  return catalog::JoinSelectivity(lt.column(edge.left_column).stats,
                                  rt.column(edge.right_column).stats);
}

double JoinEnumerator::SubsetRows(uint32_t mask) const {
  double rows = 1.0;
  for (size_t r = 0; r < query_.refs.size(); ++r) {
    if ((mask >> r) & 1u) rows *= BaseRows(r);
  }
  for (const query::JoinEdge& e : query_.joins) {
    if (!(((mask >> e.left_ref) & 1u) && ((mask >> e.right_ref) & 1u))) {
      continue;
    }
    const double sel = EdgeSelectivity(e);
    switch (e.kind) {
      case query::JoinKind::kInner:
        rows *= sel;
        break;
      case query::JoinKind::kSemi: {
        // The subquery side's cardinality does not multiply into the
        // output; each outer row survives with the match probability.
        const double rr = BaseRows(e.right_ref);
        rows *= std::min(1.0, sel * rr) / rr;
        break;
      }
      case query::JoinKind::kAnti: {
        const double rr = BaseRows(e.right_ref);
        rows *= std::clamp(1.0 - sel * rr, 1e-9, 1.0) / rr;
        break;
      }
    }
  }
  return std::max(kMinRows, rows);
}

std::vector<int> JoinEnumerator::ConnectingEdges(uint32_t left_mask,
                                                 uint32_t right_mask) const {
  std::vector<int> out;
  for (size_t i = 0; i < query_.joins.size(); ++i) {
    const query::JoinEdge& e = query_.joins[i];
    const bool l_in_left = (left_mask >> e.left_ref) & 1u;
    const bool l_in_right = (right_mask >> e.left_ref) & 1u;
    const bool r_in_left = (left_mask >> e.right_ref) & 1u;
    const bool r_in_right = (right_mask >> e.right_ref) & 1u;
    if ((l_in_left && r_in_right) || (l_in_right && r_in_left)) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

void JoinEnumerator::AddEntry(std::vector<Entry>& entries, Entry entry) {
  for (const Entry& e : entries) {
    // Dominated: an existing entry is no costlier and its order is at
    // least as useful.
    if (e.cost <= entry.cost &&
        OrderSatisfies(e.plan->order, entry.plan->order)) {
      return;
    }
  }
  entries.erase(std::remove_if(entries.begin(), entries.end(),
                               [&entry](const Entry& e) {
                                 return entry.cost <= e.cost &&
                                        OrderSatisfies(entry.plan->order,
                                                       e.plan->order);
                               }),
                entries.end());
  entries.push_back(std::move(entry));
  if (entries.size() > kMaxEntriesPerSubset) {
    // Evict the most expensive entry.
    size_t worst = 0;
    for (size_t i = 1; i < entries.size(); ++i) {
      if (entries[i].cost > entries[worst].cost) worst = i;
    }
    entries.erase(entries.begin() + static_cast<long>(worst));
  }
}

void JoinEnumerator::EmitJoins(const core::CostVector& costs,
                               uint32_t left_mask, uint32_t right_mask,
                               const std::vector<Entry>& left_entries,
                               const std::vector<Entry>& right_entries,
                               std::vector<Entry>& out) {
  const uint32_t mask = left_mask | right_mask;
  const std::vector<int> edges = ConnectingEdges(left_mask, right_mask);

  // Semi/anti joins are only valid with the subquery side alone on the
  // right; skip partitions that would put an anti/semi inner elsewhere.
  for (int ei : edges) {
    const query::JoinEdge& e = query_.joins[ei];
    if (e.kind != query::JoinKind::kInner &&
        right_mask != (uint32_t{1} << e.right_ref)) {
      return;
    }
  }

  CostModel::JoinProps props;
  props.output_rows = SubsetRows(mask);
  // Width: semi/anti right sides are projected away.
  double width = 0.0;
  for (size_t r = 0; r < query_.refs.size(); ++r) {
    if (!((mask >> r) & 1u)) continue;
    bool projected_away = false;
    for (const query::JoinEdge& e : query_.joins) {
      if (e.kind != query::JoinKind::kInner && e.right_ref == r &&
          ((mask >> e.left_ref) & 1u)) {
        projected_away = true;
      }
    }
    if (!projected_away) width += BaseWidth(r);
  }
  props.output_width_bytes = std::max(8.0, width);
  props.residual_edges = std::max(0, static_cast<int>(edges.size()) - 1);

  auto add = [&](PlanNodePtr plan) {
    Entry e;
    e.cost = core::TotalCost(plan->usage, costs);
    e.plan = std::move(plan);
    AddEntry(out, std::move(e));
  };

  // Index nested loops: right side must be a lone base ref probed through
  // an index on the join column.
  if (std::has_single_bit(right_mask)) {
    const size_t r2 = static_cast<size_t>(std::countr_zero(right_mask));
    for (int ei : edges) {
      const query::JoinEdge& e = query_.joins[ei];
      const size_t inner_col =
          e.right_ref == r2 ? e.right_column : e.left_column;
      const int table_id = query_.refs[r2].table_id;
      for (int index_id : catalog_.IndexesOn(table_id)) {
        if (catalog_.index(index_id).key_columns.front() != inner_col) {
          continue;
        }
        CostModel::JoinProps p = props;
        p.edge = ei;
        for (const Entry& l : left_entries) {
          add(model_.IndexNLJoin(l.plan, r2, index_id, /*index_only=*/false,
                                 p));
          if (options_.enable_index_only &&
              model_.IndexCoversRef(r2, index_id)) {
            add(model_.IndexNLJoin(l.plan, r2, index_id, /*index_only=*/true,
                                   p));
          }
        }
      }
    }
  }

  // Hash and block nested-loop joins apply the first connecting edge.
  // BestPlan pairs edgeless subsets only when the join graph is
  // disconnected, and then the block nested loop is the cross product.
  CostModel::JoinProps first_edge = props;
  first_edge.edge = edges.empty() ? -1 : edges[0];
  for (const Entry& l : left_entries) {
    for (const Entry& r : right_entries) {
      if (!edges.empty()) {
        add(model_.HashJoin(l.plan, r.plan, first_edge));
        for (int ei : edges) {
          const query::JoinEdge& e = query_.joins[ei];
          const bool left_holds = (left_mask >> e.left_ref) & 1u;
          const query::SortKey lkey =
              left_holds ? query::SortKey{e.left_ref, e.left_column}
                         : query::SortKey{e.right_ref, e.right_column};
          const query::SortKey rkey =
              left_holds ? query::SortKey{e.right_ref, e.right_column}
                         : query::SortKey{e.left_ref, e.left_column};
          CostModel::JoinProps p = props;
          p.edge = ei;
          add(model_.SortMergeJoin(model_.Sort(l.plan, {lkey}),
                                   model_.Sort(r.plan, {rkey}), p));
        }
      }
      add(model_.BlockNLJoin(l.plan, r.plan, first_edge));
    }
  }
}

Result<PlanNodePtr> JoinEnumerator::BestPlan(const core::CostVector& costs) {
  const size_t n = query_.refs.size();
  if (n == 0) return Status::InvalidArgument("query has no table refs");
  if (n > 20) return Status::InvalidArgument("too many tables (max 20)");

  std::vector<std::vector<Entry>> dp(uint32_t{1} << n);

  // Base access paths.
  for (size_t r = 0; r < n; ++r) {
    for (PlanNodePtr& path :
         EnumerateAccessPaths(model_, catalog_, r, options_)) {
      Entry e;
      e.cost = core::TotalCost(path->usage, costs);
      e.plan = std::move(path);
      AddEntry(dp[uint32_t{1} << r], std::move(e));
    }
  }

  // Subsets by increasing population count.
  std::vector<uint32_t> masks;
  masks.reserve(dp.size() - 1);
  for (uint32_t m = 1; m < dp.size(); ++m) masks.push_back(m);
  std::stable_sort(masks.begin(), masks.end(),
                   [](uint32_t a, uint32_t b) {
                     return std::popcount(a) < std::popcount(b);
                   });

  for (uint32_t mask : masks) {
    if (std::popcount(mask) < 2) continue;
    // Enumerate ordered partitions (s1 = left/outer, s2 = right/inner).
    for (uint32_t s1 = (mask - 1) & mask; s1 != 0; s1 = (s1 - 1) & mask) {
      const uint32_t s2 = mask ^ s1;
      if (!options_.bushy_joins && !std::has_single_bit(s2)) continue;
      if (dp[s1].empty() || dp[s2].empty()) continue;
      const std::vector<int> edges = ConnectingEdges(s1, s2);
      if (edges.empty() && !cross_products_needed_) continue;
      EmitJoins(costs, s1, s2, dp[s1], dp[s2], dp[mask]);
    }
  }

  const uint32_t full = static_cast<uint32_t>(dp.size()) - 1;
  if (dp[full].empty()) {
    return Status::Internal("join enumeration produced no complete plan");
  }

  // Aggregation, then the final presentation sort.
  std::vector<Entry> finals;
  for (const Entry& e : dp[full]) {
    PlanNodePtr plan = e.plan;
    std::vector<PlanNodePtr> variants;
    if (query_.aggregation.present) {
      variants.push_back(model_.Aggregate(plan, /*sort_based=*/false));
      if (!query_.aggregation.group_keys.empty()) {
        variants.push_back(model_.Aggregate(
            model_.Sort(plan, query_.aggregation.group_keys),
            /*sort_based=*/true));
      }
    } else {
      variants.push_back(plan);
    }
    for (PlanNodePtr& v : variants) {
      PlanNodePtr finished = model_.Sort(std::move(v), query_.order_by);
      Entry fe;
      fe.cost = core::TotalCost(finished->usage, costs);
      fe.plan = std::move(finished);
      AddEntry(finals, std::move(fe));
    }
  }

  // Cheapest, with a deterministic tie-break on the canonical id, which
  // is rendered only for exact cost ties.
  size_t best = 0;
  for (size_t i = 1; i < finals.size(); ++i) {
    if (finals[i].cost < finals[best].cost ||
        (finals[i].cost == finals[best].cost &&
         RenderPlanId(*finals[i].plan) < RenderPlanId(*finals[best].plan))) {
      best = i;
    }
  }
  return WithRenderedIds(*finals[best].plan);
}

}  // namespace costsense::opt
