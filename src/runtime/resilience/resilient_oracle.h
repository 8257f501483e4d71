#ifndef COSTSENSE_RUNTIME_RESILIENCE_RESILIENT_ORACLE_H_
#define COSTSENSE_RUNTIME_RESILIENCE_RESILIENT_ORACLE_H_

#include <cstdint>
#include <mutex>

#include "core/oracle.h"
#include "runtime/resilience/clock.h"

namespace costsense::runtime::resilience {

/// Tuning for ResilientOracle — the retry tier of the probe chain.
struct ResilientOracleOptions {
  /// Retries after the first attempt (total attempts = max_retries + 1).
  /// 0 disables retrying: every fault surfaces to the caller.
  size_t max_retries = 5;
  /// Cumulative budget for the oracle's whole lifetime (one analysis or
  /// request). Once spent, calls fail fast with kDeadlineExceeded instead
  /// of retrying — a long analysis degrades its tail rather than hanging.
  /// 0 = unlimited.
  uint64_t run_deadline_ns = 0;
};

/// Counters exported by a ResilientOracle. Snapshots are consistent per
/// field; `failures` is the count the graceful-degradation layer must
/// account for point by point.
struct ResilienceStats {
  /// TryOptimize invocations.
  size_t calls = 0;
  /// Base-oracle attempts, including retries.
  size_t attempts = 0;
  /// Attempts beyond the first of their call.
  size_t retries = 0;
  /// Calls that failed at least once and then succeeded within budget.
  size_t recovered = 0;
  /// Calls that returned an error to the caller (retry budget exhausted
  /// or run deadline spent).
  size_t failures = 0;
  /// Replies rejected by validation (non-finite cost or empty plan id).
  size_t invalid_replies = 0;
  /// Calls failed fast because the run budget was spent. Lets callers
  /// classify a failed analysis as deadline-driven.
  size_t deadline_exceeded = 0;
  /// Virtual/real nanoseconds spent in backoff sleeps.
  uint64_t backoff_waited_ns = 0;
};

/// Fraction of `calls` that produced a usable reply; 1.0 marks full
/// coverage, including the no-call case.
double ProbeCoverage(size_t calls, size_t failures);

/// Bounded-retry decorator over a fallible oracle: exponential backoff
/// with deterministic jitter, a per-run deadline budget on an injectable
/// Clock, and reply validation that converts garbage replies (non-finite
/// total cost, empty plan id) into typed kInternal errors.
///
/// Determinism: whether a call ultimately succeeds depends only on the
/// wrapped oracle's (deterministic) fault script and the retry budget —
/// backoff jitter affects time, never results. Under an injected fault
/// burst shorter than the retry budget, callers observe exactly the
/// fault-free reply stream, which is what makes figure output byte-stable
/// under faults.
class ResilientOracle final : public core::FalliblePlanOracle {
 public:
  /// `base` is not owned and must outlive this. `clock` defaults to the
  /// real steady clock.
  ResilientOracle(core::FalliblePlanOracle& base,
                  const ResilientOracleOptions& options,
                  Clock* clock = nullptr);

  [[nodiscard]] Result<core::OracleResult> TryOptimize(const core::CostVector& c) override;
  size_t dims() const override { return base_.dims(); }

  ResilienceStats stats() const;

 private:
  bool RunBudgetSpent() const;

  core::FalliblePlanOracle& base_;
  const ResilientOracleOptions options_;
  Clock& clock_;
  const uint64_t run_start_ns_;

  mutable std::mutex mu_;  // guards stats_
  ResilienceStats stats_;
};

}  // namespace costsense::runtime::resilience

#endif  // COSTSENSE_RUNTIME_RESILIENCE_RESILIENT_ORACLE_H_
