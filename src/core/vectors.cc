#include "core/vectors.h"

#include <cmath>

#include "common/strings.h"

namespace costsense::core {

double TotalCost(const UsageVector& usage, const CostVector& costs) {
  return linalg::Dot(usage, costs);
}

Status CheckPlanSet(const std::vector<PlanUsage>& plans, size_t dims) {
  for (const PlanUsage& plan : plans) {
    if (plan.usage.size() != dims) {
      return Status::InvalidArgument(
          StrFormat("plan %s has %zu usage dims, expected %zu",
                    plan.plan_id.c_str(), plan.usage.size(), dims));
    }
    for (size_t i = 0; i < dims; ++i) {
      if (!std::isfinite(plan.usage[i])) {
        return Status::InvalidArgument(
            StrFormat("plan %s has non-finite usage in dim %zu (%g)",
                      plan.plan_id.c_str(), i, plan.usage[i]));
      }
    }
  }
  return Status::Ok();
}

const char* DimClassName(DimClass cls) {
  switch (cls) {
    case DimClass::kTable:
      return "table";
    case DimClass::kIndex:
      return "index";
    case DimClass::kTemp:
      return "temp";
    case DimClass::kCpu:
      return "cpu";
    case DimClass::kOther:
      return "other";
  }
  return "other";
}

}  // namespace costsense::core
