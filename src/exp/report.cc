#include "exp/report.h"

#include <cmath>

#include "common/strings.h"

namespace costsense::exp {

std::string RenderFigureTable(const std::string& title,
                              const std::vector<FigureSeries>& series) {
  std::string out = title + "\n";
  if (series.empty()) return out;
  out += StrFormat("%-6s %6s %5s %6s |", "query", "plans", "compl", "bound");
  for (const GtcPoint& p : series[0].points) {
    out += StrFormat(" d=%-8s", FormatDouble(p.delta).c_str());
  }
  out += "\n";
  for (const FigureSeries& s : series) {
    out += StrFormat(
        "%-6s %6zu %5s %6s |", s.query_name.c_str(), s.num_candidate_plans,
        s.has_complementary_plans ? "yes" : "no",
        std::isinf(s.constant_bound) ? "inf"
                                     : FormatDouble(s.constant_bound).c_str());
    for (const GtcPoint& p : s.points) {
      out += StrFormat(" %-10s", FormatDouble(p.gtc).c_str());
    }
    out += "\n";
  }
  return out;
}

std::string RenderFigureCsv(const std::vector<FigureSeries>& series) {
  std::string out = "query,delta,worst_case_gtc,worst_rival\n";
  for (const FigureSeries& s : series) {
    for (const GtcPoint& p : s.points) {
      out += StrFormat("%s,%s,%s,\"%s\"\n", s.query_name.c_str(),
                       FormatDouble(p.delta).c_str(),
                       FormatDouble(p.gtc).c_str(), p.worst_rival.c_str());
    }
  }
  return out;
}

std::string RenderComplementarityTable(
    const std::string& title,
    const std::vector<std::pair<std::string, core::ComplementarityReport>>&
        rows) {
  std::string out = title + "\n";
  out += StrFormat("%-6s %6s %6s %6s %6s %6s %6s\n", "query", "pairs",
                   "compl", "table", "path", "temp", "near");
  for (const auto& [name, r] : rows) {
    out += StrFormat("%-6s %6zu %6zu %6zu %6zu %6zu %6zu\n", name.c_str(),
                     r.num_pairs, r.num_complementary, r.num_table,
                     r.num_access_path, r.num_temp, r.num_near_complementary);
  }
  return out;
}

std::vector<int> QuickQueryNumbers() { return {1, 8, 11, 16, 19, 20}; }

core::DiscoveryOptions QuickDiscovery() {
  core::DiscoveryOptions d;
  d.random_samples = 16;
  d.sampled_vertices = 48;
  d.bisection_depth = 3;
  d.completeness_rounds = 1;
  return d;
}

}  // namespace costsense::exp
