#ifndef COSTSENSE_RUNTIME_RESILIENCE_FAULT_INJECTOR_H_
#define COSTSENSE_RUNTIME_RESILIENCE_FAULT_INJECTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/oracle.h"
#include "runtime/resilience/clock.h"

namespace costsense::runtime::resilience {

/// The fault taxonomy the injector draws from — the failure modes a real
/// narrow optimizer interface exhibits under production load.
enum class FaultKind {
  kNone = 0,
  /// The interface transiently refuses to answer (typed kUnavailable).
  kTransientError,
  /// The reply arrives, but only after the simulated latency has been
  /// charged to the injected clock — it spends a caller's run deadline.
  kLatencyOverrun,
  /// The reply carries a non-finite total cost.
  kGarbageCost,
  /// The reply carries an empty (stale/invalid) plan id.
  kInvalidPlanId,
};

/// Returns a human-readable name for `kind` (e.g. "transient").
const char* FaultKindName(FaultKind kind);

/// Tuning for FaultInjectingOracle. Fault decisions are a pure function of
/// (seed, quantized cost vector, attempt index at that vector), so a run is
/// reproducible at any thread count and any probe interleaving.
struct FaultInjectionOptions {
  /// Probability that a given cost-vector key starts a fault burst: its
  /// first `burst` attempts fail, every later attempt returns the clean
  /// base reply. 0 disables injection entirely.
  double fault_rate = 0.0;
  /// Cap on consecutive faulting attempts per key. A retry budget larger
  /// than this cap is guaranteed to reach the clean reply, which is what
  /// makes the fault-sweep equivalence invariant provable rather than
  /// merely probable.
  size_t max_burst = 3;
  /// Relative weights for the fault kinds drawn within a burst; a zero
  /// weight disables that kind. All zero falls back to transient errors.
  double weight_transient = 1.0;
  double weight_latency = 0.0;
  double weight_garbage_cost = 0.0;
  double weight_invalid_plan = 0.0;
  /// Simulated service time of a kLatencyOverrun reply, charged to the
  /// injected clock before the (otherwise clean) reply is returned.
  uint64_t latency_nanos = 10'000'000;
  /// Probability that a key's replies carry a *persistent* multiplicative
  /// total-cost perturbation (every call at that key, forever). This
  /// models bounded optimizer cost noise; it is undetectable per call by
  /// design and therefore kept separate from the burst machinery — enable
  /// it for the noisy-extraction property tests, never for byte-equality
  /// sweeps.
  double perturb_rate = 0.0;
  /// Relative amplitude of the persistent perturbation: the factor is
  /// drawn uniformly from [1 - e, 1 + e].
  double perturb_rel_error = 0.01;
  uint64_t seed = 0xFA17FA17;
};

/// Running totals of injected faults. `faults` counts individual fault
/// events (one per faulting attempt), which is the quantity the
/// graceful-degradation accounting must reproduce: with a zero retry
/// budget every event surfaces as exactly one failed driver probe.
struct FaultLog {
  size_t calls = 0;
  size_t clean_calls = 0;
  size_t faults = 0;
  size_t transient = 0;
  size_t latency = 0;
  size_t garbage_cost = 0;
  size_t invalid_plan = 0;
  /// Calls whose (clean) reply was perturbed.
  size_t perturbed_calls = 0;
  /// Distinct keys that carry a fault burst.
  size_t faulty_keys = 0;
};

/// A deterministic, seeded fault-injecting PlanOracle decorator.
///
/// Wraps an infallible oracle (typically a runtime::CachingOracle) behind
/// the fallible interface and injects the taxonomy above at configurable
/// rates. Determinism contract: each quantized cost vector derives, via an
/// Rng::Fork stream keyed by its hash, a fixed fault burst (length and
/// per-attempt kinds). Attempt indices are claimed from a per-key atomic
/// counter, so the *total* fault events at a key equal
/// min(burst, attempts made there) no matter how concurrent callers
/// interleave — fault logs are reproducible at any thread count.
class FaultInjectingOracle final : public core::FalliblePlanOracle {
 public:
  /// `base` is not owned and must outlive this. `clock` defaults to the
  /// real steady clock; pass a ManualClock to make latency faults free.
  FaultInjectingOracle(core::PlanOracle& base,
                       const FaultInjectionOptions& options,
                       Clock* clock = nullptr);
  ~FaultInjectingOracle() override;

  [[nodiscard]] Result<core::OracleResult> TryOptimize(const core::CostVector& c) override;
  size_t dims() const override { return base_.dims(); }

  FaultLog log() const;

  /// Forgets every key's attempt counter and zeroes the log, so the next
  /// run replays the identical fault sequence from scratch.
  void Reset();

 private:
  struct Shard;
  struct KeyState;

  core::PlanOracle& base_;
  const FaultInjectionOptions options_;
  Clock& clock_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace costsense::runtime::resilience

#endif  // COSTSENSE_RUNTIME_RESILIENCE_FAULT_INJECTOR_H_
