#ifndef COSTSENSE_CORE_VECTORS_H_
#define COSTSENSE_CORE_VECTORS_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "linalg/vector.h"

namespace costsense::core {

/// A resource *usage* vector U: element i is the number of units of
/// resource i that a query plan consumes (paper Section 3.2).
using UsageVector = linalg::Vector;

/// A resource *cost* vector C: element i is the cost of one unit of
/// resource i (paper Section 3.2).
using CostVector = linalg::Vector;

/// True total cost of a plan under costs C: T = U . C (paper Eq. 1/3).
double TotalCost(const UsageVector& usage, const CostVector& costs);

/// A plan identified by its canonical id together with its usage vector.
/// This is the unit of analysis for the whole framework: the optimizer's
/// plan space is reduced to a set of labeled points in usage space.
struct PlanUsage {
  std::string plan_id;
  UsageVector usage;
};

/// Validates a candidate plan set before it is priced: every usage vector
/// must have `dims` entries, all finite. A non-finite entry would poison
/// every total cost computed from that plan. Returns InvalidArgument naming
/// the first offending plan; an empty set is valid.
[[nodiscard]] Status CheckPlanSet(const std::vector<PlanUsage>& plans,
                                  size_t dims);

/// Semantic class of a resource dimension. Complementarity classification
/// (paper Section 5.6) needs to know *what* a dimension measures: tuples
/// from a base table, pages of an index, temporary structures (sorted runs,
/// hash buckets), or CPU.
enum class DimClass { kTable, kIndex, kTemp, kCpu, kOther };

/// Metadata describing one dimension of the resource vector space.
struct DimInfo {
  DimClass cls = DimClass::kOther;
  /// For kTable/kIndex dims: which base table the dimension belongs to
  /// (index dims carry the table whose index they serve); -1 otherwise.
  int table_id = -1;
  /// Human-readable name, e.g. "lineitem.transfer" or "tempdev".
  std::string name;
};

/// Returns the name of a DimClass ("table", "index", ...).
const char* DimClassName(DimClass cls);

}  // namespace costsense::core

#endif  // COSTSENSE_CORE_VECTORS_H_
