#ifndef COSTSENSE_EXP_REPORT_H_
#define COSTSENSE_EXP_REPORT_H_

#include <cstdio>
#include <string>
#include <vector>

#include "core/complementarity.h"
#include "core/discovery.h"
#include "exp/figure_runner.h"

namespace costsense::exp {

/// Renders a figure's series as a fixed-width table: one row per query,
/// one column per delta, values are worst-case global relative cost —
/// the data behind the paper's Figures 5-7 (each line of those log-scale
/// plots is one row here).
std::string RenderFigureTable(const std::string& title,
                              const std::vector<FigureSeries>& series);

/// Renders the same data as CSV (query, delta, gtc, worst_rival).
std::string RenderFigureCsv(const std::vector<FigureSeries>& series);

/// Renders the Section 8.2 complementarity census for one layout.
std::string RenderComplementarityTable(
    const std::string& title,
    const std::vector<std::pair<std::string, core::ComplementarityReport>>&
        rows);

/// The query numbers exercised in quick mode (the paper's highlighted
/// queries: 1, 8, 11, 16, 19, 20). Quick mode itself is an engine
/// setting — EngineConfig::quick, from COSTSENSE_QUICK — threaded to
/// benches as a parameter; report stays env-free.
std::vector<int> QuickQueryNumbers();

/// The quick-mode discovery budget (16 random samples, 48 sampled
/// vertices, bisection depth 3, one completeness round), shared by the
/// quick figure binaries, the quick server and the protocol fuzzer.
core::DiscoveryOptions QuickDiscovery();

}  // namespace costsense::exp

#endif  // COSTSENSE_EXP_REPORT_H_
