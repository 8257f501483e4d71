#ifndef COSTSENSE_EXP_FIGURE_RUNNER_H_
#define COSTSENSE_EXP_FIGURE_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "blackbox/narrow_optimizer.h"
#include "catalog/catalog.h"
#include "common/status.h"
#include "core/complementarity.h"
#include "core/discovery.h"
#include "core/vectors.h"
#include "opt/optimizer.h"
#include "query/query.h"
#include "runtime/cache_store.h"
#include "runtime/oracle_cache.h"
#include "runtime/oracle_stack.h"
#include "runtime/thread_pool.h"
#include "storage/layout.h"
#include "storage/resource_space.h"

namespace costsense::exp {

/// Everything learned about one (query, storage layout) pair: the initial
/// plan chosen at the DB2-default baseline costs and the candidate optimal
/// plan set over the widest feasible region — sufficient to evaluate the
/// worst-case curve at every delta by pure geometry afterwards.
struct QueryAnalysis {
  std::string query_name;
  storage::LayoutPolicy policy = storage::LayoutPolicy::kSharedDevice;
  size_t dims = 0;
  core::CostVector baseline;
  std::vector<core::DimInfo> dim_info;
  /// The paper's "initial query plan": optimal at the baseline costs.
  std::string initial_plan_id;
  core::UsageVector initial_usage;
  /// Candidate optimal plans discovered over the delta_max band.
  std::vector<core::PlanUsage> candidate_plans;
  /// Distinct optimizer invocations (cache misses reach the optimizer;
  /// hits do not).
  size_t oracle_calls = 0;
  bool discovery_complete = false;
  /// Memoizing-oracle effectiveness during this analysis.
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  /// Entries seeded from a persisted snapshot before the first probe (0
  /// on a cold start or when no store is attached).
  size_t cache_imported = 0;
  /// The probe chain's counters for this analysis: probe calls, attempts
  /// (including retries), calls that failed after the whole retry budget,
  /// and the fault events the injector delivered.
  runtime::ProbeTelemetry probes;
  /// The analysis's view: discovery probe points it skipped
  /// because their oracle call failed. With a zero retry budget
  /// each injected fault surfaces as exactly one degraded point, so
  /// degraded_points == probes.resilience.failures == probes.faults.faults.
  size_t degraded_points = 0;
};

/// One point of a worst-case curve (paper Figures 5-7): at error level
/// `delta`, the initial plan can be `gtc` times costlier than optimal.
struct GtcPoint {
  double delta = 1.0;
  double gtc = 1.0;
  std::string worst_rival;
};

/// A full curve for one query.
struct FigureSeries {
  std::string query_name;
  std::vector<GtcPoint> points;
  /// Theorem 2's constant bound over the candidate set (infinity when
  /// complementary plans exist and only the delta^2 law applies).
  double constant_bound = 0.0;
  size_t num_candidate_plans = 0;
  bool has_complementary_plans = false;
};

/// Seed of every discovery probe stream, shared by figure runs and the
/// server so both replay the same probe sequence for a pair.
inline constexpr uint64_t kDiscoverySeed = 0x5eed;

/// The paper's per-pair procedure (Section 6.2 / Section 8.1) for one
/// (query, storage layout) pair: the layout, its resource space, the
/// white-box optimizer, and the memoizing oracle stack with persistence
/// scope "<query>/<layout>". Construction probes the initial plan — the
/// optimum at the DB2-default baseline costs — once through the cache
/// (below any fallible tier, so it is never degraded); it also warms the
/// box center every multiplicative band shares.
///
/// FigureRunner::Analyze builds one per analysis; serve::Dispatcher keeps
/// one per (query, layout) that every request shares. Immutable after
/// construction except through the thread-safe cache. Not movable: its
/// layers point at each other.
class PairContext {
 public:
  PairContext(const catalog::Catalog& catalog, query::Query query,
              storage::LayoutPolicy policy,
              const runtime::OracleStackBuilder& builder);
  PairContext(const PairContext&) = delete;
  PairContext& operator=(const PairContext&) = delete;

  /// Discovers the candidate optimal plans over `box`, probing through
  /// `oracle` (a runtime::ProbeChain stacked above stack().cache()) with
  /// the probe stream seeded by `seed`; every probe batch fans out on
  /// `pool`.
  [[nodiscard]] Result<core::DiscoveryResult> Discover(
      core::FalliblePlanOracle& oracle, const core::Box& box, uint64_t seed,
      core::DiscoveryOptions options, runtime::ThreadPool& pool) const;

  const query::Query& query() const { return query_; }
  const storage::ResourceSpace& space() const { return space_; }
  const core::CostVector& baseline() const { return baseline_; }
  const std::string& initial_plan_id() const { return initial_plan_id_; }
  const core::UsageVector& initial_usage() const { return initial_usage_; }
  /// Distinct optimizer invocations so far (cache hits never reach it).
  size_t oracle_calls() const { return narrow_.calls(); }

  runtime::OracleStack& stack() { return stack_; }

 private:
  query::Query query_;
  storage::StorageLayout layout_;
  storage::ResourceSpace space_;
  opt::Optimizer optimizer_;
  blackbox::NarrowOptimizer narrow_;
  runtime::OracleStack stack_;
  core::CostVector baseline_;
  std::string initial_plan_id_;
  core::UsageVector initial_usage_;
};

/// Drives the paper's worst-case experiments (Section 6.1 / Section 8.1):
/// per query and storage layout, find the initial plan at the DB2-default
/// baseline, discover the candidate optimal plans over the widest
/// multiplicative error band, and evaluate worst-case global relative cost
/// at each delta via the exact linear-fractional program.
///
/// Work fans out over a runtime::ThreadPool at two granularities —
/// across queries (AnalyzeMany) and within a query (discovery probes,
/// least-squares extraction) — and every optimizer call goes through a
/// sharded memoizing runtime::CachingOracle. The LPs (margins,
/// completeness witnesses, the worst-case series) run on the calling
/// thread. Results are bit-identical for any thread count, including 1
/// (the serial path).
class FigureRunner {
 public:
  struct Options {
    /// Error levels reported on the x-axis.
    std::vector<double> deltas = {2, 5, 10, 100, 1000, 10000};
    /// Plans are discovered once over the widest band (deltas.back()).
    uint64_t seed = kDiscoverySeed;
    core::DiscoveryOptions discovery;
    /// Pool for per-query and per-miss fan-out; null uses the
    /// process-global pool (sized by runtime::GlobalThreadCount(), which
    /// engine::Engine::Create configures; 1 = serial).
    runtime::ThreadPool* pool = nullptr;
    /// Memoizing oracle cache applied around each per-query optimizer.
    runtime::OracleCacheOptions cache;
    /// Optional snapshot store (not owned; null = no persistence). Each
    /// per-query stack imports the scope "<query>/<layout>" before its
    /// first probe and publishes its cache back after a successful
    /// analysis; the owner decides when to CacheStore::Save(). Thread-safe
    /// for AnalyzeMany's fan-out. Warm analyses produce byte-identical
    /// content (imported results were computed at the same canonical
    /// points); only the hit/miss split moves.
    runtime::CacheStore* store = nullptr;
    /// The probe chain above each per-query cache (see
    /// runtime/oracle_stack.h for the decorator order and why faults sit
    /// above the cache). Analyze degrades gracefully instead of failing:
    /// probes the chain cannot answer are skipped and accounted in the
    /// QueryAnalysis counters. With no faults, or any fault rate whose
    /// bursts the retry budget absorbs (max_retries > max_burst), analysis
    /// content is byte-identical to a fault-free run.
    runtime::ProbeOptions probes;
  };

  FigureRunner(const catalog::Catalog& catalog, Options options);

  /// Discovers plans and the initial plan for one query under `policy`.
  [[nodiscard]] Result<QueryAnalysis> Analyze(const query::Query& query,
                                storage::LayoutPolicy policy) const;

  /// Analyzes every query concurrently (one task per query, each of which
  /// fans out further). Results arrive in input order; a failed analysis
  /// occupies its slot as an error Result so callers can report and skip.
  std::vector<Result<QueryAnalysis>> AnalyzeMany(
      const std::vector<query::Query>& queries,
      storage::LayoutPolicy policy) const;

  /// Evaluates the worst-case curve from an analysis (pure geometry; no
  /// further optimizer calls). The per-delta, per-rival fractional
  /// programs run on the calling thread.
  [[nodiscard]] Result<FigureSeries> GtcSeries(const QueryAnalysis& analysis) const;

  /// Section 8.2's census of the candidate plan set.
  core::ComplementarityReport Complementarity(
      const QueryAnalysis& analysis) const;

  const Options& options() const { return options_; }

 private:
  runtime::ThreadPool& pool() const;

  const catalog::Catalog& catalog_;
  Options options_;
  runtime::OracleStackBuilder builder_;
};

}  // namespace costsense::exp

#endif  // COSTSENSE_EXP_FIGURE_RUNNER_H_
