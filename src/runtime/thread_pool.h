#ifndef COSTSENSE_RUNTIME_THREAD_POOL_H_
#define COSTSENSE_RUNTIME_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
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

/// Counters exported by a ThreadPool (see RuntimeMetrics for the rendered
/// form). Snapshots are consistent but not atomic across fields.
struct PoolStats {
  /// Concurrency level (worker threads + the participating caller).
  size_t threads = 1;
  /// Submitted tasks run since construction: by a worker thread, or
  /// inline by Submit itself on a pool without workers (num_threads ==
  /// 1). Loop iterations ParallelFor's caller runs, its own or those of
  /// loops nested under it, are not tasks, so a ParallelFor adds at most
  /// min(threads - 1, n - 1) helper tasks and ForEachIndex without a pool
  /// adds none.
  size_t tasks_run = 0;
  /// Tasks waiting in the queue right now (instantaneous depth — the
  /// quantity admission control and load monitoring watch).
  size_t queue_depth = 0;
  /// High-water mark of the pending-task queue depth.
  size_t queue_high_water = 0;
};

/// A fixed-size thread pool with a work queue and fork-join helpers.
///
/// ParallelFor/ParallelMap use a caller-participates design: the calling
/// thread claims and executes loop iterations alongside the workers, so a
/// nested ParallelFor issued from inside a task always makes progress even
/// when every worker is busy — saturation degrades to inline execution
/// instead of deadlocking.
///
/// A caller that has claimed every iteration of its loop does not just
/// sleep until the others finish: it runs unclaimed iterations of the
/// loops started inside its loop's iterations, at any depth (say, each
/// query's probe batches under FigureRunner::AnalyzeMany), and sleeps only
/// when none is left. It never runs an iteration of a loop outside its
/// own, so unrelated callers sharing the pool (serve sessions) keep their
/// scheduling. Each iteration still runs exactly once, so results do not
/// depend on which thread ran it.
///
/// Loop bodies must not throw (the repo-wide no-exceptions convention);
/// fallible bodies report through the returned Status.
class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers (the caller is the remaining lane).
  /// 0 means GlobalThreadCount(); 1 spawns no workers and runs all
  /// helpers inline, byte-identical to the pre-pool serial code path.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return num_threads_; }
  PoolStats stats() const;

  /// Enqueues a task for a worker. With num_threads() == 1 there are no
  /// workers and the task runs inline before Submit returns.
  void Submit(std::function<void()> task);

  /// Quiesces the pool: blocks until the queue is empty and no worker is
  /// executing a task. The pool stays fully usable afterwards — unlike
  /// the destructor this is a rendezvous, not a teardown — which is what
  /// a graceful server shutdown needs before releasing shared state that
  /// queued tasks may reference. Tasks submitted after Drain returns are
  /// unaffected; callers are responsible for stopping producers first.
  void Drain();

  /// Runs body(i) for every i in [0, n), fanning out over the pool. All
  /// iterations execute even if some fail; the returned Status is OK or
  /// the failure with the smallest index (deterministic regardless of
  /// thread count or scheduling).
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
  void WorkerLoop();

  const size_t num_threads_;
  mutable std::mutex mu_;  // guards queue_/stop_/active_/queue_high_water_
  std::condition_variable cv_;
  /// Signals Drain waiters whenever the queue empties or a worker
  /// finishes its task.
  std::condition_variable drained_cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  /// Worker tasks currently executing (claimed from the queue but not yet
  /// finished).
  size_t active_ = 0;
  size_t queue_high_water_ = 0;
  std::atomic<size_t> tasks_run_{0};
  std::vector<std::thread> workers_;
};

/// Runs body(i) for i in [0, n) on `pool` when non-null, inline otherwise.
/// The serial path keeps ParallelFor's all-iterations/lowest-index-error
/// semantics, so callers behave identically with and without a pool.
[[nodiscard]] Status ForEachIndex(ThreadPool* pool, size_t n,
                    const std::function<Status(size_t)>& body);

}  // namespace costsense::runtime

#endif  // COSTSENSE_RUNTIME_THREAD_POOL_H_
