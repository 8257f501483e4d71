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
/// Mantissa bits of the jitter-stream key (matches the oracle cache and
/// fault injector keying).
constexpr int kKeyMantissaBits = 40;

uint64_t HashQuantized(const core::CostVector& c) {
  uint64_t h = 0xcbf29ce484222325ULL ^ kJitterSeed;
  for (double v : c) {
    const uint64_t q = QuantizeCost(v, kKeyMantissaBits);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (q >> (byte * 8)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  return h;
}

[[nodiscard]] Status ValidateReply(const core::OracleResult& r) {
  if (!std::isfinite(r.total_cost)) {
    return Status::Internal("oracle reply has non-finite total cost");
  }
  if (r.plan_id.empty()) {
    return Status::Internal("oracle reply has an empty plan id");
  }
  return Status::Ok();
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

Result<core::OracleResult> ResilientOracle::TryOptimize(
    const core::CostVector& c) {
  auto run_budget_spent = [&]() -> bool {
    return options_.run_deadline_ns != 0 &&
           clock_.NowNanos() - run_start_ns_ >= options_.run_deadline_ns;
  };

  // Admission: a spent run budget fails the call before any attempt.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.calls;
    if (run_budget_spent()) {
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

    if (attempt == options_.max_retries || run_budget_spent()) break;

    if (!jitter.has_value()) {
      jitter.emplace(Rng(kJitterSeed).Fork(HashQuantized(c)));
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
