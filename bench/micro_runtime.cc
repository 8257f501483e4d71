// Micro-benchmarks of the parallel analysis runtime: fork-join dispatch
// overhead of ThreadPool::ParallelFor at several pool sizes, the hit/miss
// path costs of the sharded memoizing oracle cache, and a fully warm
// discovery (a warm serve request's probe work, with its heap
// allocations). These price the fixed
// costs that the figure drivers amortize over real optimizer calls (an
// optimizer invocation is ~100us-10ms; a cache hit should be ~100ns, so
// memoization pays off after a single duplicate probe).
#include <benchmark/benchmark.h>

#include <atomic>
#include <vector>

#include "bench/alloc_counter.h"
#include "bench/bench_util.h"
#include "catalog/catalog.h"
#include "common/macros.h"
#include "common/rng.h"
#include "core/discovery.h"
#include "core/vectors.h"
#include "exp/figure_runner.h"
#include "exp/report.h"
#include "runtime/oracle_stack.h"
#include "runtime/oracle_cache.h"
#include "runtime/thread_pool.h"
#include "storage/layout.h"
#include "tests/core/fake_oracle.h"
#include "tpch/queries.h"
#include "tpch/schema.h"

namespace costsense {
namespace {

void BM_ParallelForDispatch(benchmark::State& state) {
  runtime::ThreadPool pool(static_cast<size_t>(state.range(0)));
  const size_t n = 256;
  std::atomic<size_t> sink{0};
  for (auto _ : state) {
    (void)pool.ParallelFor(n, [&](size_t i) {
      sink.fetch_add(i, std::memory_order_relaxed);
      return Status::Ok();
    });
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_ParallelForDispatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

std::vector<core::PlanUsage> MakePlans(size_t dims, size_t count) {
  Rng rng(17);
  std::vector<core::PlanUsage> plans;
  for (size_t p = 0; p < count; ++p) {
    core::UsageVector u(dims);
    for (size_t i = 0; i < dims; ++i) u[i] = rng.LogUniform(1.0, 1e4);
    plans.push_back({"p" + std::to_string(p), std::move(u)});
  }
  return plans;
}

void BM_OracleCacheHit(benchmark::State& state) {
  const size_t dims = 8;
  core::FakeOracle base(MakePlans(dims, 16), /*white_box=*/true);
  runtime::OracleStack stack = runtime::OracleStackBuilder().Build(base);
  runtime::CachingOracle& cache = stack.cache();
  const core::CostVector c(dims, 1.0);
  cache.Optimize(c);  // prime
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Optimize(c).total_cost);
  }
}
BENCHMARK(BM_OracleCacheHit)->Unit(benchmark::kNanosecond);

void BM_OracleCacheMiss(benchmark::State& state) {
  const size_t dims = 8;
  core::FakeOracle base(MakePlans(dims, 16), /*white_box=*/true);
  runtime::OracleCacheOptions options;
  options.max_entries = 1 << 10;  // force steady-state eviction
  runtime::OracleStack stack =
      runtime::OracleStackBuilder().WithCache(options).Build(base);
  runtime::CachingOracle& cache = stack.cache();
  Rng rng(3);
  core::CostVector c(dims, 1.0);
  for (auto _ : state) {
    c[0] = rng.LogUniform(1.0, 1e6);
    benchmark::DoNotOptimize(cache.Optimize(c).total_cost);
  }
  state.counters["evictions"] =
      static_cast<double>(cache.stats().evictions);
}
BENCHMARK(BM_OracleCacheMiss)->Unit(benchmark::kNanosecond);

void BM_OracleCacheConcurrent(benchmark::State& state) {
  const size_t dims = 8;
  core::FakeOracle base(MakePlans(dims, 16), /*white_box=*/true);
  runtime::OracleStack stack = runtime::OracleStackBuilder().Build(base);
  runtime::CachingOracle& cache = stack.cache();
  runtime::ThreadPool pool(static_cast<size_t>(state.range(0)));
  std::vector<core::CostVector> points;
  Rng rng(11);
  for (size_t i = 0; i < 512; ++i) {
    core::CostVector c(dims, 1.0);
    c[i % dims] = rng.LogUniform(1.0, 1e3);
    points.push_back(std::move(c));
  }
  for (auto _ : state) {
    (void)pool.ParallelFor(points.size(), [&](size_t i) {
      benchmark::DoNotOptimize(cache.Optimize(points[i]).total_cost);
      return Status::Ok();
    });
  }
  state.counters["hit_rate"] = cache.stats().hit_rate();
}
BENCHMARK(BM_OracleCacheConcurrent)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

/// One quick-mode discovery of a query (range 0: Q8, the plan-richest
/// quick query, or Q11) on the shared layout over the 1000x band, with
/// every probe already in the pair's cache: a serve request's discovery
/// after a warm restart, or after the discovery memo evicted its box.
/// Probe batches fan out over the pool (range 1: its size); `pool_tasks`
/// is the loops handed to its workers per iteration, and `allocs` the
/// heap allocations per iteration, probe chain included.
void BM_WarmDiscovery(benchmark::State& state) {
  const catalog::Catalog catalog = tpch::MakeTpchCatalog(100.0);
  runtime::OracleStackBuilder builder;
  exp::PairContext pair(
      catalog, tpch::MakeTpchQuery(catalog, static_cast<int>(state.range(0))),
      storage::LayoutPolicy::kSharedDevice, builder);
  runtime::ThreadPool pool(static_cast<size_t>(state.range(1)));
  const core::Box box = core::Box::MultiplicativeBand(pair.baseline(), 1000);
  auto discover = [&] {
    runtime::ProbeChain probes(pair.stack().cache(), {});
    Result<core::DiscoveryResult> d =
        pair.Discover(probes.oracle(), box, exp::kDiscoverySeed,
                      exp::QuickDiscovery(), pool);
    COSTSENSE_CHECK(d.ok());
    return d->plans.size();
  };
  discover();  // warm the cache
  const size_t tasks_before = pool.stats().tasks_run;
  const size_t allocs_before = bench::HeapAllocations();
  for (auto _ : state) benchmark::DoNotOptimize(discover());
  const size_t allocs = bench::HeapAllocations() - allocs_before;
  state.counters["pool_tasks"] = benchmark::Counter(
      static_cast<double>(pool.stats().tasks_run - tasks_before),
      benchmark::Counter::kAvgIterations);
  state.counters["allocs"] = benchmark::Counter(
      static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_WarmDiscovery)
    ->ArgNames({"query", "pool"})
    ->Args({8, 1})
    ->Args({8, 4})
    ->Args({11, 1})
    ->Args({11, 4})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace costsense

int main(int argc, char** argv) {
  return costsense::bench::RunBenchMain(
      argc, argv, "micro_runtime",
      [](costsense::engine::Engine&, int gb_argc, char** gb_argv) {
        benchmark::Initialize(&gb_argc, gb_argv);
        if (benchmark::ReportUnrecognizedArguments(gb_argc, gb_argv)) return 1;
        benchmark::RunSpecifiedBenchmarks();
        benchmark::Shutdown();
        return 0;
      });
}
