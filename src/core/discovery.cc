#include "core/discovery.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string_view>
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

/// Margins are informational; each is one LP with |plans| constraints, so
/// they are skipped above this many plans.
constexpr size_t kMaxMarginPlans = 96;

/// Plan index of a probe that failed.
constexpr uint32_t kNoPlan = UINT32_MAX;

/// Book-keeping for one plan while discovery is running. Plans are small
/// integers in first-seen order; their ids become strings again only in
/// the returned DiscoveredPlans.
struct Found {
  /// The plan id (the key of Discoverer::index_of_).
  const std::string* id = nullptr;
  /// Row of Discoverer::points_ where the oracle first chose the plan.
  size_t witness = 0;
  /// White-box usage if the oracle gave it, else this round's
  /// least-squares extraction (empty when that failed).
  std::optional<UsageVector> usage;
  bool from_oracle = false;
  double extraction_error = 0.0;
};

class Discoverer {
 public:
  Discoverer(FalliblePlanOracle& oracle, const Box& box, Rng& rng,
             const DiscoveryOptions& options)
      : oracle_(oracle),
        box_(box),
        rng_(rng),
        options_(options),
        dims_(box.dims()),
        probe_(box.dims()) {}

  Result<DiscoveryResult> Run() {
    SeedProbes();
    BisectBetweenWitnesses();

    // Resolve usage vectors (least squares where the oracle is narrow),
    // then iterate the completeness check: find a deep-interior witness of
    // each region of influence implied by the discovered set and confirm
    // the oracle agrees there. A disagreement *is* a new plan.
    bool complete = false;
    for (size_t round = 0; round <= options_.completeness_rounds; ++round) {
      Status st = ResolveUsageVectors();
      if (!st.ok()) return st;
      if (round == options_.completeness_rounds) break;
      // Each probe LP carries one constraint per discovered plan; for
      // extremely rich plan sets (hundreds of candidates over a 10^4-wide
      // band) the probing cost outweighs its marginal coverage.
      if (resolved_.size() > 150) break;
      const size_t before = found_.size();
      st = CompletenessProbe();
      if (!st.ok()) return st;
      if (found_.size() == before) {
        complete = true;
        break;
      }
    }

    // A complete run's last round solved every plan's witness LP against
    // exactly the set returned here (same rivals in the same order, same
    // box), so its margins are those LPs' margins.
    ComputeMargins(/*reuse_round=*/complete);

    DiscoveryResult out;
    out.plans.reserve(resolved_.size());
    for (size_t k = 0; k < resolved_.size(); ++k) {
      const Found& f = found_[resolved_[k]];
      DiscoveredPlan& dp = out.plans.emplace_back();
      dp.plan.plan_id = *f.id;
      dp.plan.usage = *f.usage;
      dp.witness = Point(f.witness);
      dp.margin = margins_[k];
      dp.usage_from_least_squares = !f.from_oracle;
      dp.extraction_error = f.extraction_error;
    }
    out.oracle_calls = calls_;
    out.complete = complete && failed_extractions_ == 0;
    out.failed_probes = failed_probes_;
    out.failed_extractions = failed_extractions_;
    return out;
  }

 private:
  /// Probe points, one row of dims_ coordinates each, in generation order.
  std::span<double> Row(size_t r) {
    return {points_.data() + r * dims_, dims_};
  }
  /// Appends `count` zeroed rows and returns the first one's index.
  size_t AppendRows(size_t count) {
    const size_t first = num_points_;
    num_points_ += count;
    points_.resize(num_points_ * dims_, 0.0);
    return first;
  }
  CostVector Point(size_t r) const {
    const double* row = points_.data() + r * dims_;
    return CostVector(std::vector<double>(row, row + dims_));
  }

  /// Evaluates the oracle at rows [first, first + count) and records
  /// first-seen witnesses in row order — the same order a serial probe
  /// loop would, so the discovered set is independent of thread count and
  /// scheduling. Rows the oracle recalls from memory are answered on this
  /// thread, by reference; only the rest, which run the optimizer, fan out
  /// over the pool. Leaves batch_[k] = the plan of row first + k, or
  /// kNoPlan for a probe that errored: it is counted, never recorded —
  /// degradation is losing witnesses, not inventing them.
  void ProbeBatch(size_t first, size_t count) {
    answers_.assign(count, nullptr);
    pooled_.clear();
    for (size_t k = 0; k < count; ++k) {
      const std::span<const double> row = Row(first + k);
      std::copy(row.begin(), row.end(), probe_.span().begin());
      RecalledReply hit;
      if (oracle_.Recall(probe_, hit)) {
        answers_[k] = hit.reply;
      } else {
        pooled_.push_back(k);
      }
    }
    // Replies of the pooled rows, in pooled_ order (none on a warm batch,
    // which then allocates nothing here).
    std::vector<std::optional<OracleResult>> owned(pooled_.size());
    if (!pooled_.empty()) {
      const Status pool_status = runtime::ForEachIndex(
          options_.pool, pooled_.size(), [&](size_t j) {
            Result<OracleResult> r =
                oracle_.TryOptimize(Point(first + pooled_[j]));
            if (r.ok()) owned[j] = std::move(r).value();
            return Status::Ok();
          });
      COSTSENSE_CHECK(pool_status.ok());  // bodies always return Ok
    }
    calls_ += count;
    batch_.resize(count);
    size_t next_owned = 0;
    for (size_t k = 0; k < count; ++k) {
      if (answers_[k] != nullptr) {
        batch_[k] = Record(first + k, *answers_[k], /*stable=*/true);
        continue;
      }
      const std::optional<OracleResult>& r = owned[next_owned++];
      if (r.has_value()) {
        batch_[k] = Record(first + k, *r, /*stable=*/false);
      } else {
        batch_[k] = kNoPlan;
        ++failed_probes_;
      }
    }
  }

  /// The plan index of `reply`, registering the plan with witness row `row`
  /// when it is new. A `stable` reply (recalled, so it outlives the run)
  /// is remembered by address, which is all a warm probe pays.
  uint32_t Record(size_t row, const OracleResult& reply, bool stable) {
    if (stable) {
      for (const auto& [known, index] : by_reply_) {
        if (known == &reply) return index;
      }
    }
    auto it = index_of_.find(std::string_view(reply.plan_id));
    if (it == index_of_.end()) {
      it = index_of_
               .emplace(reply.plan_id, static_cast<uint32_t>(found_.size()))
               .first;
      Found& f = found_.emplace_back();
      f.id = &it->first;
      f.witness = row;
      f.usage = reply.usage;
      f.from_oracle = reply.usage.has_value();
    }
    if (stable) by_reply_.emplace_back(&reply, it->second);
    return it->second;
  }

  void SeedProbes() {
    // Generate every seed point serially (all rng_ draws happen here, in
    // the fixed order the serial algorithm used), then probe as one batch.
    const size_t vertices = dims_ <= options_.full_vertex_sweep_max_dims
                                ? box_.VertexCount()
                                : options_.sampled_vertices;
    points_.reserve((1 + 2 * dims_ + vertices + options_.random_samples) *
                    dims_);
    const size_t first = AppendRows(1);
    box_.CenterInto(Row(first));
    // Axis extremes: cheapest / most expensive along each single resource.
    for (size_t i = 0; i < dims_; ++i) {
      const size_t lo = AppendRows(2);
      std::copy(Row(first).begin(), Row(first).end(), Row(lo).begin());
      std::copy(Row(first).begin(), Row(first).end(), Row(lo + 1).begin());
      Row(lo)[i] = box_.lower()[i];
      Row(lo + 1)[i] = box_.upper()[i];
    }
    // Vertices: exhaustive when small, sampled otherwise. Vertices matter
    // because worst cases live there (Observation 2).
    if (dims_ <= options_.full_vertex_sweep_max_dims) {
      const uint64_t n = box_.VertexCount();
      for (uint64_t mask = 0; mask < n; ++mask) {
        box_.VertexInto(mask, Row(AppendRows(1)));
      }
    } else {
      for (size_t k = 0; k < options_.sampled_vertices; ++k) {
        uint64_t mask = rng_.Next();
        if (dims_ < 64) mask &= (uint64_t{1} << dims_) - 1;
        box_.VertexInto(mask, Row(AppendRows(1)));
      }
    }
    for (size_t k = 0; k < options_.random_samples; ++k) {
      box_.SampleLogUniformInto(rng_, Row(AppendRows(1)));
    }
    ProbeBatch(first, num_points_ - first);
  }

  /// One segment whose endpoints are witnesses of *different* plans: by
  /// Observation 3 an undiscovered plan can only hide between differing
  /// endpoints, so these are the only segments worth refining. Endpoints
  /// are rows of points_, plans are indices into found_.
  struct Segment {
    size_t a;
    uint32_t plan_a;
    size_t b;
    uint32_t plan_b;
  };

  void BisectBetweenWitnesses() {
    // Snapshot witnesses in plan-id order first; probing mutates found_.
    std::vector<uint32_t> snapshot;
    snapshot.reserve(index_of_.size());
    for (const auto& [id, index] : index_of_) snapshot.push_back(index);

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
      frontier.push_back(Segment{found_[snapshot[i]].witness, snapshot[i],
                                 found_[snapshot[j]].witness, snapshot[j]});
    }
    std::vector<Segment> next;
    for (size_t depth = options_.bisection_depth;
         depth > 0 && !frontier.empty(); --depth) {
      if (found_.size() >= kMaxPlans) return;
      // Geometric midpoints (log-space bisection, matching the
      // multiplicative structure of the region).
      const size_t first = AppendRows(frontier.size());
      for (size_t k = 0; k < frontier.size(); ++k) {
        const double* a = points_.data() + frontier[k].a * dims_;
        const double* b = points_.data() + frontier[k].b * dims_;
        const std::span<double> m = Row(first + k);
        for (size_t i = 0; i < dims_; ++i) m[i] = std::sqrt(a[i] * b[i]);
      }
      ProbeBatch(first, frontier.size());
      next.clear();
      for (size_t k = 0; k < frontier.size(); ++k) {
        // A failed midpoint stops refinement of this segment; later
        // completeness rounds can still recover plans hiding inside it.
        const uint32_t mid_plan = batch_[k];
        if (mid_plan == kNoPlan) continue;
        const Segment& s = frontier[k];
        if (mid_plan != s.plan_a) {
          next.push_back(Segment{s.a, s.plan_a, first + k, mid_plan});
        }
        if (mid_plan != s.plan_b) {
          next.push_back(Segment{first + k, mid_plan, s.b, s.plan_b});
        }
      }
      std::swap(frontier, next);
    }
  }

  /// Fills resolved_ with the plans whose usage is known, in plan-id
  /// order. White-box plans take the usage the oracle revealed, on this
  /// thread. Only least-squares extractions probe the oracle, so only they
  /// fan out. Each gets its own RNG stream forked from the shared
  /// generator and keyed by plan id, so the sample set — and therefore the
  /// fit — is the same whether plans extract one after another or all at
  /// once. A failed extraction (thin region, or probes lost to oracle
  /// failures) leaves the plan out of this round's set rather than
  /// poisoning it, and is counted in failed_extractions_.
  Status ResolveUsageVectors() {
    std::vector<uint32_t> narrow;
    for (const auto& [id, index] : index_of_) {
      if (!found_[index].from_oracle) narrow.push_back(index);
    }
    failed_extractions_ = 0;
    if (!narrow.empty()) {
      std::vector<ExtractionTelemetry> telemetry(narrow.size());
      Status st = runtime::ForEachIndex(
          options_.pool, narrow.size(), [&](size_t n) {
            Found& f = found_[narrow[n]];
            // Keyed by the plan id's hash: the same plan always extracts
            // with the same stream, however many plans came first and on
            // whichever thread it runs.
            Rng stream = rng_.Fork(Fnv1a(kFnv1aOffsetBasis, *f.id));
            Result<ExtractedUsage> ex =
                ExtractUsageVector(oracle_, *f.id, Point(f.witness), box_,
                                   stream, options_.extraction,
                                   &telemetry[n]);
            if (ex.ok()) {
              f.usage = std::move(ex->usage);
              f.extraction_error = ex->validation_error;
            } else {
              f.usage.reset();
            }
            return Status::Ok();
          });
      if (!st.ok()) return st;
      for (size_t n = 0; n < narrow.size(); ++n) {
        calls_ += telemetry[n].oracle_calls;
        failed_probes_ += telemetry[n].failed_probes;
        if (!found_[narrow[n]].usage.has_value()) ++failed_extractions_;
      }
    }
    resolved_.clear();
    for (const auto& [id, index] : index_of_) {
      if (found_[index].usage.has_value()) resolved_.push_back(index);
    }
    return Status::Ok();
  }

  /// The witness LP of resolved_[k] against every other resolved plan, in
  /// resolved_ order.
  Result<CandidacyResult> WitnessLp(size_t k) {
    rivals_.clear();
    for (size_t j = 0; j < resolved_.size(); ++j) {
      if (j != k) rivals_.push_back(&*found_[resolved_[j]].usage);
    }
    return FindRegionWitness(*found_[resolved_[k]].usage, rivals_, box_,
                             &lp_scratch_);
  }

  /// Annotates per-plan interior margins (0 = boundary-only / tie, and
  /// for every plan when there are more than kMaxMarginPlans). Each margin
  /// is one LP with |plans| constraints; with `reuse_round`, the last
  /// completeness round's LPs stand in for the ones it solved. The LPs are
  /// microseconds each and run on this thread: a pool hand-off would cost
  /// more than the work.
  void ComputeMargins(bool reuse_round) {
    margins_.assign(resolved_.size(), 0.0);
    if (resolved_.size() > kMaxMarginPlans) return;
    for (size_t k = 0; k < resolved_.size(); ++k) {
      if (reuse_round && k < round_margins_.size() &&
          round_margins_[k].has_value()) {
        margins_[k] = *round_margins_[k];
        continue;
      }
      Result<CandidacyResult> cr = WitnessLp(k);
      if (cr.ok() && cr->candidate) margins_[k] = cr->margin;
    }
  }

  Status CompletenessProbe() {
    // Each probe solves an LP with |plans| constraints; for very rich plan
    // sets check a random subset per round (coverage accumulates across
    // rounds).
    std::vector<size_t> order(resolved_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    constexpr size_t kMaxProbesPerRound = 128;
    if (order.size() > kMaxProbesPerRound) {
      rng_.Shuffle(order);
      order.resize(kMaxProbesPerRound);
    }
    // Phase 1 (pure LP, on this thread like ComputeMargins): a
    // deep-interior witness per region. Each solved LP's margin is kept
    // for ComputeMargins.
    round_margins_.assign(resolved_.size(), std::nullopt);
    const size_t first = num_points_;
    size_t probes = 0;
    for (size_t k : order) {
      Result<CandidacyResult> cr = WitnessLp(k);
      if (!cr.ok()) return cr.status();
      round_margins_[k] = cr->candidate ? cr->margin : 0.0;
      if (!cr->candidate || cr->margin <= 0.0) continue;
      if (found_.size() + probes >= kMaxPlans) break;
      std::copy(cr->witness.begin(), cr->witness.end(),
                Row(AppendRows(1)).begin());
      ++probes;
    }
    // Phase 2 (batched): the discovered set predicts each plan at its
    // witness; probe them all — where the oracle disagrees, Record adds
    // the new plan automatically.
    ProbeBatch(first, probes);
    return Status::Ok();
  }

  FalliblePlanOracle& oracle_;
  const Box& box_;
  Rng& rng_;
  const DiscoveryOptions& options_;
  const size_t dims_;

  /// Every probed point, dims_ coordinates per row, in probe order.
  std::vector<double> points_;
  size_t num_points_ = 0;
  /// Scratch vector the calling thread probes through.
  CostVector probe_;
  /// ProbeBatch's per-row answers and plan indices, and its pooled rows.
  std::vector<const OracleResult*> answers_;
  std::vector<uint32_t> batch_;
  std::vector<size_t> pooled_;

  /// Plans by index, their indices by id (iterated in id order wherever
  /// the order shows in the result), and by recalled reply.
  std::vector<Found> found_;
  std::map<std::string, uint32_t, std::less<>> index_of_;
  std::vector<std::pair<const OracleResult*, uint32_t>> by_reply_;

  /// This round's plans with a usage vector, in plan-id order, and the
  /// margins that belong to them.
  std::vector<uint32_t> resolved_;
  std::vector<std::optional<double>> round_margins_;
  std::vector<double> margins_;
  std::vector<const UsageVector*> rivals_;
  RegionWitnessScratch lp_scratch_;

  size_t calls_ = 0;
  size_t failed_probes_ = 0;
  size_t failed_extractions_ = 0;
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
