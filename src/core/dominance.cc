#include "core/dominance.h"

#include <utility>

namespace costsense::core {

bool Dominates(const UsageVector& a, const UsageVector& b, double tol) {
  if (a.size() != b.size()) return false;
  bool strictly_less_somewhere = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i] + tol) return false;
    if (a[i] < b[i] - tol) strictly_less_somewhere = true;
  }
  return strictly_less_somewhere;
}

std::vector<PlanUsage> FilterDominated(std::vector<PlanUsage> plans,
                                       double tol) {
  // Decide survivors first, then move them out: moving as we scan would
  // leave earlier entries empty and break later dominance checks.
  std::vector<bool> keep(plans.size(), true);
  for (size_t i = 0; i < plans.size(); ++i) {
    for (size_t j = 0; j < plans.size() && keep[i]; ++j) {
      if (i == j) continue;
      if (Dominates(plans[j].usage, plans[i].usage, tol)) keep[i] = false;
      // Collapse exact duplicates onto the earliest index.
      if (j < i && linalg::ApproxEqual(plans[j].usage, plans[i].usage, tol)) {
        keep[i] = false;
      }
    }
  }
  std::vector<PlanUsage> out;
  for (size_t i = 0; i < plans.size(); ++i) {
    if (keep[i]) out.push_back(std::move(plans[i]));
  }
  return out;
}

}  // namespace costsense::core
