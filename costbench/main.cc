// costbench: the CostSense benchmark binary.
//
//   costbench --workload figures-cold|serve-warm|serve-fresh --seed N
//             --seconds S --trace 0|1
//
// Runs one seeded workload for about S seconds, checks its outputs, and
// prints one JSON object as the last line of stdout: the correctness
// verdict, attempted/failed operation counts, and the end-to-end metrics
// (trace 0) or the per-layer metrics from a traced run (trace 1). Exits 1
// when any output check fails, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "costbench/report.h"

namespace {

bool ParseArgs(int argc, char** argv, costbench::Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  costbench::Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: costbench --workload W --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  costbench::Report report;
  if (args.workload == "figures-cold") {
    report = costbench::RunFiguresCold(args);
  } else if (args.workload == "serve-warm") {
    report = costbench::RunServe(args, /*fresh=*/false);
  } else if (args.workload == "serve-fresh") {
    report = costbench::RunServe(args, /*fresh=*/true);
  } else {
    std::fprintf(stderr, "costbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }

  std::string metrics;
  for (const costbench::Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) report.Fail(m.name + " is not finite");
    if (!metrics.empty()) metrics += ", ";
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    metrics += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  return report.correct ? 0 : 1;
}
