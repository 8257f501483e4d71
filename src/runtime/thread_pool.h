#ifndef COSTSENSE_RUNTIME_THREAD_POOL_H_
#define COSTSENSE_RUNTIME_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/status.h"

namespace costsense::runtime {

/// Hardware concurrency (>= 1) — the global pool's size when nothing has
/// been configured.
size_t DefaultThreadCount();

/// The concurrency level the global pool will be (or was) built with: the
/// engine-configured count, or DefaultThreadCount() when unset. A value
/// of 1 recovers the fully serial execution path.
size_t GlobalThreadCount();

/// Installs `count` (0 = DefaultThreadCount()) as the global pool's size.
/// engine::Engine::Create is the only caller that translates
/// COSTSENSE_THREADS into a pool size — the pool itself never reads the
/// environment. kFailedPrecondition when the global pool was already
/// constructed at a different size (the setting could no longer take
/// effect; fail loudly instead of running mis-sized).
[[nodiscard]] Status ConfigureGlobalThreadCount(size_t count);

/// One ParallelFor loop's shared state (thread_pool.cc).
struct LoopState;

/// Counters exported by a ThreadPool (see RuntimeMetrics for the rendered
/// form). Snapshots are consistent but not atomic across fields.
struct PoolStats {
  /// Concurrency level (worker threads + the participating caller).
  size_t threads = 1;
  /// Loops handed to the workers since construction: ParallelFor calls
  /// with n >= 2 on a pool that has workers. Counted when the loop is
  /// announced, so the count is exact once ParallelFor returns; a pool
  /// of one thread, n <= 1 and ForEachIndex without a pool add none.
  size_t tasks_run = 0;
  /// Most loops with unclaimed iterations at once, the new one included.
  size_t queue_high_water = 0;
};

/// A fixed-size thread pool of fork-join loops.
///
/// ParallelFor/ParallelMap use a caller-participates design: the calling
/// thread claims and executes loop iterations alongside the workers, so a
/// nested ParallelFor issued from inside an iteration always makes
/// progress even when every worker is busy — saturation degrades to
/// inline execution instead of deadlocking.
///
/// Every loop is announced to each loop it is nested in and to the pool,
/// the outermost ancestor of them all. A thread finds work one way: it
/// waits on one ancestor and runs unclaimed iterations of the loops
/// announced there. A worker waits on the pool until it stops, so it runs
/// any loop; a caller that has claimed every iteration of its own loop
/// waits on that loop until it is done, so it runs only loops started
/// inside its loop's iterations, at any depth (say, each query's probe
/// batches under FigureRunner::AnalyzeMany), and unrelated callers
/// sharing the pool (serve sessions) keep their scheduling. Each iteration
/// runs exactly once, so results do not depend on which thread ran it.
///
/// Loop bodies must not throw (the repo-wide no-exceptions convention);
/// fallible bodies report through the returned Status.
class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers (the caller is the remaining lane).
  /// 0 means GlobalThreadCount(); 1 spawns no workers and runs every loop
  /// inline, byte-identical to the pre-pool serial code path.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return num_threads_; }
  PoolStats stats() const;

  /// Runs body(i) for every i in [0, n), fanning out over the pool. All
  /// iterations execute even if some fail; the returned Status is OK or
  /// the failure with the smallest index (deterministic regardless of
  /// thread count or scheduling). Once it returns, no thread calls `body`.
  [[nodiscard]] Status ParallelFor(
      size_t n, const std::function<Status(size_t)>& body);

  /// Maps fn(i, items[i]) over `items` concurrently and returns the
  /// results in input order. fn must be copyable and is invoked exactly
  /// once per item.
  template <typename T, typename Fn>
  auto ParallelMap(const std::vector<T>& items, Fn fn)
      -> std::vector<std::decay_t<decltype(fn(size_t{0}, items[0]))>> {
    using R = std::decay_t<decltype(fn(size_t{0}, items[0]))>;
    std::vector<std::optional<R>> slots(items.size());
    const Status status = ParallelFor(items.size(), [&](size_t i) {
      slots[i].emplace(fn(i, items[i]));
      return Status::Ok();
    });
    COSTSENSE_CHECK(status.ok());  // bodies always return Ok
    std::vector<R> out;
    out.reserve(items.size());
    for (auto& slot : slots) out.push_back(std::move(*slot));
    return out;
  }

  /// Process-wide pool sized by GlobalThreadCount(); constructed on
  /// first use and intentionally leaked (workers outlive static teardown).
  static ThreadPool& Global();

 private:
  const size_t num_threads_;
  /// The outermost ancestor of every loop on this pool: the workers wait
  /// on it. Its mutex also guards the three fields below.
  const std::unique_ptr<LoopState> root_;
  bool stop_ = false;
  size_t tasks_run_ = 0;
  size_t queue_high_water_ = 0;
  std::vector<std::thread> workers_;
};

/// Runs body(i) for i in [0, n) on `pool` when non-null, inline otherwise.
/// The serial path keeps ParallelFor's all-iterations/lowest-index-error
/// semantics, so callers behave identically with and without a pool.
[[nodiscard]] Status ForEachIndex(ThreadPool* pool, size_t n,
                    const std::function<Status(size_t)>& body);

}  // namespace costsense::runtime

#endif  // COSTSENSE_RUNTIME_THREAD_POOL_H_
