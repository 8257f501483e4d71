#include "opt/plan.h"

#include "common/strings.h"

namespace costsense::opt {

const char* OpTypeName(OpType op) {
  switch (op) {
    case OpType::kSeqScan:
      return "SCAN";
    case OpType::kIndexScan:
      return "IXS";
    case OpType::kIndexNLJoin:
      return "INL";
    case OpType::kBlockNLJoin:
      return "BNL";
    case OpType::kSortMergeJoin:
      return "SMJ";
    case OpType::kHashJoin:
      return "HSJ";
    case OpType::kSort:
      return "SORT";
    case OpType::kAggregate:
      return "AGG";
  }
  return "?";
}

bool OrderSatisfies(const std::vector<query::SortKey>& produced,
                    const std::vector<query::SortKey>& required) {
  if (required.size() > produced.size()) return false;
  for (size_t i = 0; i < required.size(); ++i) {
    if (produced[i].ref != required[i].ref ||
        produced[i].column != required[i].column) {
      return false;
    }
  }
  return true;
}

namespace {

/// The id text of an inner node, given its children's ids.
std::string ComposeId(const PlanNode& node, const std::string& left,
                      const std::string& right) {
  switch (node.op) {
    case OpType::kSort:
      return StrFormat("SORT[%s](%s)", KeysToString(node.keys).c_str(),
                       left.c_str());
    case OpType::kAggregate:
      return StrFormat("AGG[%s](%s)", node.sort_based ? "sort" : "hash",
                       left.c_str());
    default:
      return StrFormat("%s[e%d](%s,%s)", OpTypeName(node.op), node.join_edge,
                       left.c_str(), right.c_str());
  }
}

}  // namespace

std::string RenderPlanId(const PlanNode& node) {
  if (!node.left) return node.id;
  return ComposeId(node, RenderPlanId(*node.left),
                   node.right ? RenderPlanId(*node.right) : std::string());
}

PlanNodePtr WithRenderedIds(const PlanNode& root) {
  auto copy = std::make_shared<PlanNode>(root);
  if (!root.left) return copy;
  copy->left = WithRenderedIds(*root.left);
  if (root.right) copy->right = WithRenderedIds(*root.right);
  copy->id = ComposeId(*copy, copy->left->id,
                       copy->right ? copy->right->id : std::string());
  return copy;
}

std::string KeysToString(const std::vector<query::SortKey>& keys) {
  std::vector<std::string> parts;
  parts.reserve(keys.size());
  for (const query::SortKey& k : keys) {
    parts.push_back(StrFormat("r%zu.c%zu", k.ref, k.column));
  }
  return Join(parts, ",");
}

}  // namespace costsense::opt
