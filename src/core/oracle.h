#ifndef COSTSENSE_CORE_ORACLE_H_
#define COSTSENSE_CORE_ORACLE_H_

#include <cmath>
#include <optional>
#include <string>

#include "common/status.h"
#include "core/vectors.h"

namespace costsense::core {

/// What a (possibly narrow) optimizer interface reports for one
/// optimization call: the chosen plan's identity and its estimated total
/// cost under the supplied resource costs — exactly the information the
/// paper says commercial optimizers expose (Section 7.1).
struct OracleResult {
  /// Canonical identifier of the estimated optimal plan; equal ids mean
  /// equal plans.
  std::string plan_id;
  /// Estimated total cost of that plan, U . C.
  double total_cost = 0.0;
  /// Resource usage vector of the plan, when the oracle is willing to
  /// reveal it (white-box mode). Commercial optimizers do not provide this
  /// (paper Section 6.1.1); the narrow wrapper leaves it empty and forces
  /// least-squares extraction.
  std::optional<UsageVector> usage;
};

/// Whether a reply is usable: a non-empty plan id and a finite total cost.
/// The retry tier rejects any other reply as garbage, and a memoizing
/// oracle's Recall declines to hand one out, so it takes TryOptimize's
/// path and accounting.
inline bool WellFormedReply(const std::string& plan_id, double total_cost) {
  return !plan_id.empty() && std::isfinite(total_cost);
}

/// A reply an oracle answers from memory, handed out by reference
/// (PlanOracle::Recall) instead of copied.
struct RecalledReply {
  /// The stored reply: its plan id and usage. It is shared by every cost
  /// point whose optimum it is, stays valid and unchanged for the
  /// oracle's lifetime, and its own total_cost is not this probe's.
  const OracleResult* reply = nullptr;
  /// This probe's total cost.
  double total_cost = 0.0;
};

/// Abstract optimizer interface used by the sensitivity algorithms: feed in
/// a resource cost vector, get back the estimated optimal plan and its
/// estimated total cost.
class PlanOracle {
 public:
  virtual ~PlanOracle() = default;

  /// Optimizes under resource costs `c` (dimension must equal dims()).
  virtual OracleResult Optimize(const CostVector& c) = 0;

  /// Dimensionality of the resource cost space this oracle prices over.
  virtual size_t dims() const = 0;

  /// Answers Optimize(c) from memory when `c` is memoized: fills `out` by
  /// reference and counts exactly what Optimize(c) counts for that hit
  /// (the hit itself, recency). Otherwise returns false and changes
  /// nothing; the caller then probes with Optimize. One lookup, no copy.
  /// Drivers answer recalled probes on the calling thread and fan out the
  /// rest; a concurrent insert or eviction merely changes which thread
  /// runs a probe, never its answer. A malformed reply (see
  /// WellFormedReply) is declined.
  virtual bool Recall(const CostVector& /*c*/, RecalledReply& /*out*/) {
    return false;
  }
};

/// The fallible flavor of the same interface. Real optimizer endpoints
/// time out, flake under load, and return garbage; decorators that model
/// or absorb those failures (runtime::resilience) speak this contract,
/// and the drivers (discovery, extraction) degrade per-point instead of
/// aborting a whole run on one bad reply.
class FalliblePlanOracle {
 public:
  virtual ~FalliblePlanOracle() = default;

  /// Optimizes under resource costs `c`, or reports why it could not:
  /// kUnavailable for transient faults, kDeadlineExceeded for blown time
  /// budgets, kInternal for replies rejected by validation.
  [[nodiscard]] virtual Result<OracleResult> TryOptimize(const CostVector& c) = 0;

  virtual size_t dims() const = 0;

  /// Same contract as PlanOracle::Recall: true means TryOptimize(c) would
  /// have succeeded with this reply, and the call is counted as such.
  /// A decorator that can fail or stall on a memoized key (a fault
  /// injector) keeps the default false, so every probe through it takes
  /// TryOptimize.
  virtual bool Recall(const CostVector& /*c*/, RecalledReply& /*out*/) {
    return false;
  }
};

/// Adapts an infallible PlanOracle to the fallible interface (every call
/// succeeds by contract). Lets the degradation-aware driver internals run
/// unchanged on oracles that cannot fail, with identical behavior to the
/// pre-resilience code path.
class InfallibleOracleAdapter final : public FalliblePlanOracle {
 public:
  /// `base` is not owned and must outlive this.
  explicit InfallibleOracleAdapter(PlanOracle& base) : base_(base) {}

  [[nodiscard]] Result<OracleResult> TryOptimize(const CostVector& c) override {
    return base_.Optimize(c);
  }
  size_t dims() const override { return base_.dims(); }
  bool Recall(const CostVector& c, RecalledReply& out) override {
    return base_.Recall(c, out);
  }

 private:
  PlanOracle& base_;
};

}  // namespace costsense::core

#endif  // COSTSENSE_CORE_ORACLE_H_
