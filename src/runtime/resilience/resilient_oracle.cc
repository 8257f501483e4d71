#include "runtime/resilience/resilient_oracle.h"

#include <cmath>
#include <optional>
#include <utility>

#include "common/rng.h"
#include "runtime/oracle_cache.h"

namespace costsense::runtime::resilience {
namespace {

/// Exponential backoff between retries: attempt k sleeps
/// kBackoffBaseNs * kBackoffMultiplier^k, scaled by a deterministic jitter
/// factor in [1, 1 + kBackoffJitter] drawn from a stream keyed by (seed,
/// quantized cost vector).
constexpr uint64_t kBackoffBaseNs = 1000;
constexpr double kBackoffMultiplier = 2.0;
constexpr double kBackoffJitter = 0.25;
constexpr uint64_t kJitterSeed = 0x0e51113e;

[[nodiscard]] Status ValidateReply(const core::OracleResult& r) {
  if (core::WellFormedReply(r.plan_id, r.total_cost)) return Status::Ok();
  if (!std::isfinite(r.total_cost)) {
    return Status::Internal("oracle reply has non-finite total cost");
  }
  return Status::Internal("oracle reply has an empty plan id");
}

}  // namespace

double ProbeCoverage(size_t calls, size_t failures) {
  return calls == 0 ? 1.0
                    : static_cast<double>(calls - failures) /
                          static_cast<double>(calls);
}

ResilientOracle::ResilientOracle(core::FalliblePlanOracle& base,
                                 const ResilientOracleOptions& options,
                                 Clock* clock)
    : base_(base),
      options_(options),
      clock_(clock != nullptr ? *clock : Clock::Real()),
      run_start_ns_(clock_.NowNanos()) {}

bool ResilientOracle::RunBudgetSpent() const {
  return options_.run_deadline_ns != 0 &&
         clock_.NowNanos() - run_start_ns_ >= options_.run_deadline_ns;
}

bool ResilientOracle::Recall(const core::CostVector& c,
                             core::RecalledReply& out) {
  if (RunBudgetSpent() || !base_.Recall(c, out)) return false;
  // A base that hands up a malformed reply anyway has counted its lookup;
  // TryOptimize then counts the rejected attempt as usual.
  if (!core::WellFormedReply(out.reply->plan_id, out.total_cost)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.calls;
  ++stats_.attempts;
  return true;
}

Result<core::OracleResult> ResilientOracle::TryOptimize(
    const core::CostVector& c) {
  // Admission: a spent run budget fails the call before any attempt.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.calls;
    if (RunBudgetSpent()) {
      ++stats_.failures;
      ++stats_.deadline_exceeded;
      return Status::DeadlineExceeded("oracle run deadline budget spent");
    }
  }

  // Jitter stream: a pure function of the quantized cost vector, so
  // backoff schedules replay identically run to run. Built on the first
  // retry only; a clean first attempt never needs it.
  std::optional<Rng> jitter;

  Status last_error;
  for (size_t attempt = 0; attempt <= options_.max_retries; ++attempt) {
    Result<core::OracleResult> reply = base_.TryOptimize(c);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.attempts;
      if (attempt > 0) ++stats_.retries;
    }

    if (!reply.ok()) {
      last_error = reply.status();
    } else {
      Status valid = ValidateReply(*reply);
      if (valid.ok()) {
        if (attempt > 0) {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.recovered;
        }
        return reply;
      }
      last_error = std::move(valid);
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.invalid_replies;
    }

    if (attempt == options_.max_retries || RunBudgetSpent()) break;

    if (!jitter.has_value()) {
      const std::vector<uint64_t> key = QuantizeKey(c);
      jitter.emplace(
          Rng(kJitterSeed).Fork(HashKey(key.data(), key.size(), kJitterSeed)));
    }
    double backoff = static_cast<double>(kBackoffBaseNs);
    for (size_t k = 0; k < attempt; ++k) backoff *= kBackoffMultiplier;
    backoff *= 1.0 + kBackoffJitter * jitter->Uniform();
    const uint64_t wait = static_cast<uint64_t>(backoff);
    clock_.SleepFor(wait);
    std::lock_guard<std::mutex> lock(mu_);
    stats_.backoff_waited_ns += wait;
  }

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.failures;
  return last_error.ok()
             ? Status::Unavailable("oracle call failed without a status")
             : last_error;
}

ResilienceStats ResilientOracle::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace costsense::runtime::resilience
