#ifndef COSTSENSE_OPT_ACCESS_PATHS_H_
#define COSTSENSE_OPT_ACCESS_PATHS_H_

#include <vector>

#include "catalog/catalog.h"
#include "opt/cost_model.h"
#include "opt/plan.h"

namespace costsense::opt {

/// Optimizer plan-space switches. Defaults correspond to the paper's DB2
/// configuration (optimization level 7: full plan space, bushy trees,
/// every join method). The two toggles exist for the plan-space ablation
/// (table_ablations) and the optimizer microbenchmark. Cross products are
/// generated only when the join graph is disconnected.
struct OptimizerOptions {
  bool bushy_joins = true;
  bool enable_index_only = true;
};

/// Enumerates the leaf access paths for query reference `ref`: the
/// sequential scan, plus an index scan for every index that is useful —
/// sargable restriction on its leading column, an order the query can
/// exploit, or full coverage (index-only). This mirrors Selinger-style
/// single-relation access path selection.
std::vector<PlanNodePtr> EnumerateAccessPaths(const CostModel& model,
                                              const catalog::Catalog& catalog,
                                              size_t ref,
                                              const OptimizerOptions& options);

}  // namespace costsense::opt

#endif  // COSTSENSE_OPT_ACCESS_PATHS_H_
