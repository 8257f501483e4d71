// Command-line options and the result record shared by the workloads.
#ifndef COSTBENCH_REPORT_H_
#define COSTBENCH_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace costbench {

/// Pool threads and closed-loop clients: the reference host's nproc,
/// fixed so runs on one host compare across commits.
inline constexpr size_t kThreads = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the correctness verdict, operation counts, and
/// the metrics of the selected set (end-to-end untraced, per-layer
/// traced).
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }

  /// Marks the run incorrect and says why on stderr.
  void Fail(const std::string& why) {
    correct = false;
    std::fprintf(stderr, "costbench: check failed: %s\n", why.c_str());
  }
};

Report RunFiguresCold(const Args& args);

/// serve-warm (`fresh` false) and serve-fresh (`fresh` true).
Report RunServe(const Args& args, bool fresh);

}  // namespace costbench

#endif  // COSTBENCH_REPORT_H_
