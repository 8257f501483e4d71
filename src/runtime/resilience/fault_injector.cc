#include "runtime/resilience/fault_injector.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
// costsense-lint: allow(R2, "per-key fault state; the only iteration sums integer counters, see Shard::keys below")
#include <unordered_map>
#include <utility>

#include "common/macros.h"
#include "common/rng.h"
#include "common/strings.h"
#include "runtime/oracle_cache.h"

namespace costsense::runtime::resilience {
namespace {

using Key = std::vector<uint64_t>;

/// Fault keys are the oracle cache's keys (QuantizeKey/HashKey), so a
/// fault key corresponds to exactly one cache entry.
struct KeyHash {
  size_t operator()(const Key& key) const {
    return HashKey(key.data(), key.size());
  }
};

constexpr size_t kNumShards = 16;  // power of two

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kTransientError:
      return "transient";
    case FaultKind::kLatencyOverrun:
      return "latency";
    case FaultKind::kGarbageCost:
      return "garbage-cost";
    case FaultKind::kInvalidPlanId:
      return "invalid-plan";
  }
  return "unknown";
}

/// Everything the injector decided about one cost-vector key, fixed at
/// first touch from the key's forked RNG stream and immutable afterwards.
/// `attempts` is the only mutable field; fetch_add distributes attempt
/// indices across concurrent callers.
struct FaultInjectingOracle::KeyState {
  std::vector<FaultKind> burst;  // kinds of the first burst.size() attempts
  double perturb_factor = 1.0;   // multiplicative, 1.0 = clean
  std::atomic<uint64_t> attempts{0};
};

struct FaultInjectingOracle::Shard {
  std::mutex mu;
  // costsense-lint: allow(R2, "audited: log() is the only iteration and it accumulates uint64 counters with +=, which is exactly commutative, so iteration order cannot change the FaultLog; all other access is point lookup")
  std::unordered_map<Key, std::unique_ptr<KeyState>, KeyHash> keys;
};

FaultInjectingOracle::FaultInjectingOracle(core::PlanOracle& base,
                                           const FaultInjectionOptions& options,
                                           Clock* clock)
    : base_(base),
      options_(options),
      clock_(clock != nullptr ? *clock : Clock::Real()) {
  COSTSENSE_CHECK_MSG(
      options_.fault_rate >= 0.0 && options_.fault_rate <= 1.0,
      "fault_rate must be a probability");
  COSTSENSE_CHECK_MSG(
      options_.perturb_rate >= 0.0 && options_.perturb_rate <= 1.0,
      "perturb_rate must be a probability");
  shards_.reserve(kNumShards);
  for (size_t i = 0; i < kNumShards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

FaultInjectingOracle::~FaultInjectingOracle() = default;

Result<core::OracleResult> FaultInjectingOracle::TryOptimize(
    const core::CostVector& c) {
  Key key = QuantizeKey(c);
  const uint64_t key_hash = HashKey(key.data(), key.size());
  Shard& shard = *shards_[key_hash & (kNumShards - 1)];

  KeyState* state = nullptr;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.keys.try_emplace(std::move(key));
    if (inserted) {
      // First touch: derive this key's whole fault script from a stream
      // that depends only on (seed, key), never on arrival order.
      it->second = std::make_unique<KeyState>();
      Rng stream = Rng(options_.seed).Fork(key_hash);
      double wt = options_.weight_transient;
      double wl = options_.weight_latency;
      double wg = options_.weight_garbage_cost;
      double wi = options_.weight_invalid_plan;
      if (wt + wl + wg + wi <= 0.0) wt = 1.0;
      const double wsum = wt + wl + wg + wi;
      // Burst length is geometric in the fault rate, capped at max_burst:
      // the first draw doubles as the "does this key fault at all"
      // decision, each further draw extends the burst.
      size_t burst = 0;
      while (burst < options_.max_burst &&
             stream.Uniform() < options_.fault_rate) {
        ++burst;
      }
      for (size_t a = 0; a < burst; ++a) {
        const double pick = stream.Uniform() * wsum;
        FaultKind kind;
        if (pick < wt) {
          kind = FaultKind::kTransientError;
        } else if (pick < wt + wl) {
          kind = FaultKind::kLatencyOverrun;
        } else if (pick < wt + wl + wg) {
          kind = FaultKind::kGarbageCost;
        } else {
          kind = FaultKind::kInvalidPlanId;
        }
        it->second->burst.push_back(kind);
      }
      if (options_.perturb_rate > 0.0 &&
          stream.Uniform() < options_.perturb_rate) {
        it->second->perturb_factor =
            1.0 + stream.Uniform(-1.0, 1.0) * options_.perturb_rel_error;
      }
    }
    state = it->second.get();
  }

  const uint64_t attempt =
      state->attempts.fetch_add(1, std::memory_order_relaxed);
  const FaultKind kind = attempt < state->burst.size()
                             ? state->burst[attempt]
                             : FaultKind::kNone;

  switch (kind) {
    case FaultKind::kTransientError:
      return Status::Unavailable(
          StrFormat("injected transient fault (attempt %llu)",
                    static_cast<unsigned long long>(attempt)));
    case FaultKind::kLatencyOverrun: {
      // The reply itself is clean; it just takes too long. The caller
      // accepts it, but the latency spends its run deadline.
      clock_.SleepFor(options_.latency_nanos);
      core::OracleResult r = base_.Optimize(c);
      r.total_cost *= state->perturb_factor;
      return r;
    }
    case FaultKind::kGarbageCost: {
      core::OracleResult r = base_.Optimize(c);
      r.total_cost = std::numeric_limits<double>::quiet_NaN();
      return r;
    }
    case FaultKind::kInvalidPlanId: {
      core::OracleResult r = base_.Optimize(c);
      r.plan_id.clear();
      return r;
    }
    case FaultKind::kNone:
      break;
  }
  core::OracleResult r = base_.Optimize(c);
  r.total_cost *= state->perturb_factor;
  return r;
}

FaultLog FaultInjectingOracle::log() const {
  // The log is reconstructed from per-key state rather than kept as global
  // counters: min(burst, attempts) per key is interleaving-independent, so
  // two runs that made the same probes report byte-identical logs even if
  // their threads raced differently.
  FaultLog log;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [key, state] : shard->keys) {
      const uint64_t attempts =
          state->attempts.load(std::memory_order_relaxed);
      log.calls += attempts;
      const uint64_t faulted =
          std::min<uint64_t>(attempts, state->burst.size());
      log.faults += faulted;
      if (!state->burst.empty()) ++log.faulty_keys;
      for (uint64_t a = 0; a < faulted; ++a) {
        switch (state->burst[a]) {
          case FaultKind::kTransientError:
            ++log.transient;
            break;
          case FaultKind::kLatencyOverrun:
            ++log.latency;
            break;
          case FaultKind::kGarbageCost:
            ++log.garbage_cost;
            break;
          case FaultKind::kInvalidPlanId:
            ++log.invalid_plan;
            break;
          case FaultKind::kNone:
            break;
        }
      }
      const uint64_t clean = attempts - faulted;
      log.clean_calls += clean;
      if (state->perturb_factor != 1.0) {
        // Latency replies are also perturbed when the key carries a
        // factor; only hard faults (transient/garbage/invalid) are not
        // counted as perturbed replies.
        uint64_t latency_replies = 0;
        for (uint64_t a = 0; a < faulted; ++a) {
          if (state->burst[a] == FaultKind::kLatencyOverrun) {
            ++latency_replies;
          }
        }
        log.perturbed_calls += clean + latency_replies;
      }
    }
  }
  return log;
}

void FaultInjectingOracle::Reset() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->keys.clear();
  }
}

}  // namespace costsense::runtime::resilience
