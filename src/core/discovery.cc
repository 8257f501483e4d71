#include "core/discovery.h"

#include <cmath>
#include <map>
#include <optional>
#include <utility>

#include "common/hash.h"
#include "common/macros.h"
#include "core/region_of_influence.h"
#include "runtime/thread_pool.h"

namespace costsense::core {
namespace {

/// Cap on witness pairs refined by bisection; above it a random subset of
/// pairs is used (plan-rich queries would otherwise spend quadratic
/// optimizer calls on segment refinement).
constexpr size_t kMaxBisectionPairs = 300;

/// Safety cap on the total number of plans to discover.
constexpr size_t kMaxPlans = 512;

/// Book-keeping for one plan while discovery is running.
struct Found {
  CostVector witness;
  std::optional<UsageVector> usage;  // white-box usage if the oracle gave it
};

class Discoverer {
 public:
  Discoverer(FalliblePlanOracle& oracle, const Box& box, Rng& rng,
             const DiscoveryOptions& options)
      : oracle_(oracle), box_(box), rng_(rng), options_(options) {}

  Result<DiscoveryResult> Run() {
    SeedProbes();
    BisectBetweenWitnesses();

    // Resolve usage vectors (least squares where the oracle is narrow),
    // then iterate the completeness check: find a deep-interior witness of
    // each region of influence implied by the discovered set and confirm
    // the oracle agrees there. A disagreement *is* a new plan.
    bool complete = false;
    std::vector<DiscoveredPlan> plans;
    for (size_t round = 0; round <= options_.completeness_rounds; ++round) {
      Result<std::vector<DiscoveredPlan>> resolved = ResolveUsageVectors();
      if (!resolved.ok()) return resolved.status();
      plans = std::move(resolved).value();
      if (round == options_.completeness_rounds) break;
      // Each probe LP carries one constraint per discovered plan; for
      // extremely rich plan sets (hundreds of candidates over a 10^4-wide
      // band) the probing cost outweighs its marginal coverage.
      if (plans.size() > 150) break;
      const size_t before = found_.size();
      Status st = CompletenessProbe(plans);
      if (!st.ok()) return st;
      if (found_.size() == before) {
        complete = true;
        break;
      }
    }

    ComputeMargins(plans);
    DiscoveryResult out;
    out.plans = std::move(plans);
    out.oracle_calls = calls_;
    out.complete = complete;
    out.failed_probes = failed_probes_;
    return out;
  }

 private:
  /// Evaluates the oracle at every point and records first-seen witnesses
  /// in point order — the same order a serial probe loop would, so the
  /// discovered set is independent of thread count and scheduling. Points
  /// the oracle has memoized are answered on this thread; only the rest,
  /// which run the optimizer, fan out over the pool. A probe that errors
  /// leaves an empty slot and is counted, never recorded: degradation is
  /// losing witnesses, not inventing them.
  std::vector<std::optional<OracleResult>> ProbeBatch(
      const std::vector<CostVector>& points) {
    std::vector<std::optional<OracleResult>> results(points.size());
    auto probe = [&](size_t i) {
      Result<OracleResult> r = oracle_.TryOptimize(points[i]);
      if (r.ok()) results[i] = std::move(r).value();
    };
    std::vector<size_t> pooled;
    for (size_t i = 0; i < points.size(); ++i) {
      if (oracle_.Memoized(points[i])) {
        probe(i);
      } else {
        pooled.push_back(i);
      }
    }
    const Status pool_status =
        runtime::ForEachIndex(options_.pool, pooled.size(), [&](size_t k) {
      probe(pooled[k]);
      return Status::Ok();
    });
    COSTSENSE_CHECK(pool_status.ok());  // bodies always return Ok
    calls_ += points.size();
    for (size_t i = 0; i < points.size(); ++i) {
      if (results[i].has_value()) {
        Record(points[i], *results[i]);
      } else {
        ++failed_probes_;
      }
    }
    return results;
  }

  void Record(const CostVector& c, const OracleResult& r) {
    auto [it, inserted] = found_.try_emplace(r.plan_id);
    if (inserted) {
      it->second.witness = c;
      it->second.usage = r.usage;
    }
  }

  void SeedProbes() {
    // Generate every seed point serially (all rng_ draws happen here, in
    // the fixed order the serial algorithm used), then probe as one batch.
    std::vector<CostVector> points;
    points.push_back(box_.Center());
    // Axis extremes: cheapest / most expensive along each single resource.
    for (size_t i = 0; i < box_.dims(); ++i) {
      CostVector lo = box_.Center();
      lo[i] = box_.lower()[i];
      points.push_back(std::move(lo));
      CostVector hi = box_.Center();
      hi[i] = box_.upper()[i];
      points.push_back(std::move(hi));
    }
    // Vertices: exhaustive when small, sampled otherwise. Vertices matter
    // because worst cases live there (Observation 2).
    if (box_.dims() <= options_.full_vertex_sweep_max_dims) {
      const uint64_t n = box_.VertexCount();
      for (uint64_t mask = 0; mask < n; ++mask) {
        points.emplace_back(box_.dims());
        box_.VertexInto(mask, points.back());
      }
    } else {
      for (size_t k = 0; k < options_.sampled_vertices; ++k) {
        uint64_t mask = rng_.Next();
        if (box_.dims() < 64) mask &= (uint64_t{1} << box_.dims()) - 1;
        points.emplace_back(box_.dims());
        box_.VertexInto(mask, points.back());
      }
    }
    for (size_t k = 0; k < options_.random_samples; ++k) {
      points.push_back(box_.SampleLogUniform(rng_));
    }
    ProbeBatch(points);
  }

  /// Geometric midpoint of two cost vectors (log-space bisection, matching
  /// the multiplicative structure of the region).
  static CostVector GeoMid(const CostVector& a, const CostVector& b) {
    CostVector m(a.size());
    for (size_t i = 0; i < a.size(); ++i) m[i] = std::sqrt(a[i] * b[i]);
    return m;
  }

  /// One segment whose endpoints are witnesses of *different* plans: by
  /// Observation 3 an undiscovered plan can only hide between differing
  /// endpoints, so these are the only segments worth refining.
  struct Segment {
    CostVector a;
    std::string plan_a;
    CostVector b;
    std::string plan_b;
  };

  void BisectBetweenWitnesses() {
    // Snapshot witnesses first; probing mutates found_.
    std::vector<std::pair<std::string, CostVector>> snapshot;
    snapshot.reserve(found_.size());
    for (const auto& [id, f] : found_) snapshot.emplace_back(id, f.witness);

    std::vector<std::pair<size_t, size_t>> pairs;
    for (size_t i = 0; i < snapshot.size(); ++i) {
      for (size_t j = i + 1; j < snapshot.size(); ++j) {
        pairs.emplace_back(i, j);
      }
    }
    // Plan-rich queries would spend quadratic optimizer calls here; refine
    // a random subset of segments instead (the completeness probe catches
    // anything bisection misses).
    if (pairs.size() > kMaxBisectionPairs) {
      rng_.Shuffle(pairs);
      pairs.resize(kMaxBisectionPairs);
    }

    // Level-synchronous bisection: each level probes the midpoints of
    // every open segment as one parallel batch, then splits segments whose
    // midpoint plan differs from an endpoint. The probe tree is the same
    // one the recursive serial bisection explores; batching it per depth
    // exposes hundreds of independent optimizer calls at a time. Shared
    // midpoints (e.g. every complementary vertex pair meets the center)
    // collapse in the oracle cache rather than re-running the optimizer.
    std::vector<Segment> frontier;
    frontier.reserve(pairs.size());
    for (const auto& [i, j] : pairs) {
      if (snapshot[i].first == snapshot[j].first) continue;
      frontier.push_back(Segment{snapshot[i].second, snapshot[i].first,
                                 snapshot[j].second, snapshot[j].first});
    }
    for (size_t depth = options_.bisection_depth;
         depth > 0 && !frontier.empty(); --depth) {
      if (found_.size() >= kMaxPlans) return;
      std::vector<CostVector> mids;
      mids.reserve(frontier.size());
      for (const Segment& s : frontier) mids.push_back(GeoMid(s.a, s.b));
      const std::vector<std::optional<OracleResult>> results =
          ProbeBatch(mids);
      std::vector<Segment> next;
      for (size_t k = 0; k < frontier.size(); ++k) {
        // A failed midpoint stops refinement of this segment; later
        // completeness rounds can still recover plans hiding inside it.
        if (!results[k].has_value()) continue;
        const Segment& s = frontier[k];
        const std::string& mid_plan = results[k]->plan_id;
        if (mid_plan != s.plan_a) {
          next.push_back(Segment{s.a, s.plan_a, mids[k], mid_plan});
        }
        if (mid_plan != s.plan_b) {
          next.push_back(Segment{mids[k], mid_plan, s.b, s.plan_b});
        }
      }
      frontier = std::move(next);
    }
  }

  Result<std::vector<DiscoveredPlan>> ResolveUsageVectors() {
    // Deterministic work list in found_'s (sorted) iteration order.
    std::vector<std::pair<std::string, const Found*>> todo;
    todo.reserve(found_.size());
    for (const auto& [id, f] : found_) todo.emplace_back(id, &f);

    // White-box plans take the usage the oracle revealed, on this thread.
    // Only least-squares extractions probe the oracle, so only they fan
    // out. Each gets its own RNG stream forked from the shared generator
    // and keyed by plan id, so the sample set — and therefore the fit — is
    // the same whether plans extract one after another or all at once. A
    // failed extraction (thin region) yields an empty slot: skip the plan
    // rather than poison the set.
    std::vector<std::optional<DiscoveredPlan>> slots(todo.size());
    std::vector<ExtractionTelemetry> telemetry(todo.size());
    std::vector<size_t> narrow;
    for (size_t k = 0; k < todo.size(); ++k) {
      const auto& [id, f] = todo[k];
      DiscoveredPlan& dp = slots[k].emplace();
      dp.plan.plan_id = id;
      dp.witness = f->witness;
      if (f->usage.has_value()) {
        dp.plan.usage = *f->usage;
      } else {
        narrow.push_back(k);
      }
    }
    Status st = runtime::ForEachIndex(
        options_.pool, narrow.size(), [&](size_t n) {
          const size_t k = narrow[n];
          const auto& [id, f] = todo[k];
          // Keyed by the plan id's hash: the same plan always extracts
          // with the same stream, however many plans came first and on
          // whichever thread it runs.
          Rng stream = rng_.Fork(Fnv1a(kFnv1aOffsetBasis, id));
          Result<ExtractedUsage> ex =
              ExtractUsageVector(oracle_, id, f->witness, box_, stream,
                                 options_.extraction, &telemetry[k]);
          // Thin region or probes lost to oracle failures: skip the plan
          // rather than poison the set (telemetry keeps the accounting).
          if (!ex.ok()) {
            slots[k].reset();
            return Status::Ok();
          }
          DiscoveredPlan& dp = *slots[k];
          dp.plan.usage = ex->usage;
          dp.usage_from_least_squares = true;
          dp.extraction_error = ex->validation_error;
          return Status::Ok();
        });
    if (!st.ok()) return st;

    std::vector<DiscoveredPlan> plans;
    plans.reserve(todo.size());
    for (size_t k = 0; k < todo.size(); ++k) {
      calls_ += telemetry[k].oracle_calls;
      failed_probes_ += telemetry[k].failed_probes;
      if (slots[k].has_value()) plans.push_back(std::move(*slots[k]));
    }
    return plans;
  }

  /// Annotates per-plan interior margins. Each margin is one LP with
  /// |plans| constraints, so this is quadratic in the plan count; it is
  /// informational only and skipped for very large plan sets. The LPs are
  /// microseconds each and run on this thread: a pool hand-off would cost
  /// more than the work.
  void ComputeMargins(std::vector<DiscoveredPlan>& plans) const {
    if (plans.size() > 96) return;
    for (size_t i = 0; i < plans.size(); ++i) {
      std::vector<PlanUsage> rivals;
      rivals.reserve(plans.size() - 1);
      for (size_t j = 0; j < plans.size(); ++j) {
        if (j != i) rivals.push_back(plans[j].plan);
      }
      Result<CandidacyResult> cr =
          FindRegionWitness(plans[i].plan.usage, rivals, box_);
      if (cr.ok() && cr->candidate) plans[i].margin = cr->margin;
    }
  }

  Status CompletenessProbe(const std::vector<DiscoveredPlan>& plans) {
    // Each probe solves an LP with |plans| constraints; for very rich plan
    // sets check a random subset per round (coverage accumulates across
    // rounds).
    std::vector<size_t> order(plans.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    constexpr size_t kMaxProbesPerRound = 128;
    if (order.size() > kMaxProbesPerRound) {
      rng_.Shuffle(order);
      order.resize(kMaxProbesPerRound);
    }
    // Phase 1 (pure LP, on this thread like ComputeMargins): a
    // deep-interior witness per region.
    std::vector<CostVector> probes;
    for (size_t k : order) {
      const DiscoveredPlan& dp = plans[k];
      std::vector<PlanUsage> rivals;
      for (const DiscoveredPlan& other : plans) {
        if (other.plan.plan_id != dp.plan.plan_id) {
          rivals.push_back(other.plan);
        }
      }
      Result<CandidacyResult> cr =
          FindRegionWitness(dp.plan.usage, rivals, box_);
      if (!cr.ok()) return cr.status();
      if (!cr->candidate || cr->margin <= 0.0) continue;
      if (found_.size() + probes.size() >= kMaxPlans) break;
      probes.push_back(cr->witness);
    }
    // Phase 2 (batched): the discovered set predicts each plan at its
    // witness; probe them all — where the oracle disagrees, Record adds
    // the new plan automatically.
    ProbeBatch(probes);
    return Status::Ok();
  }

  FalliblePlanOracle& oracle_;
  const Box& box_;
  Rng& rng_;
  const DiscoveryOptions& options_;
  std::map<std::string, Found> found_;
  size_t calls_ = 0;
  size_t failed_probes_ = 0;
};

}  // namespace

Result<DiscoveryResult> DiscoverCandidatePlans(
    PlanOracle& oracle, const Box& box, Rng& rng,
    const DiscoveryOptions& options) {
  InfallibleOracleAdapter adapter(oracle);
  return DiscoverCandidatePlans(adapter, box, rng, options);
}

Result<DiscoveryResult> DiscoverCandidatePlans(
    FalliblePlanOracle& oracle, const Box& box, Rng& rng,
    const DiscoveryOptions& options) {
  if (oracle.dims() != box.dims()) {
    return Status::InvalidArgument("oracle and box dimensions differ");
  }
  Discoverer d(oracle, box, rng, options);
  return d.Run();
}

}  // namespace costsense::core
