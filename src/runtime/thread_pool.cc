#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>

#include "common/strings.h"

namespace costsense::runtime {

/// One ParallelFor's shared state. Threads race on `next` to claim
/// iterations; `done` counts finished ones. It is heap-held so a thread
/// that takes it from a list after every iteration was claimed can still
/// read `next`, see it exhausted, and move on without touching the
/// caller's dead stack frame. A pool's root is a LoopState of no
/// iterations: the loops announced to it are every loop on the pool.
struct LoopState {
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  size_t n = 0;
  const std::function<Status(size_t)>* body = nullptr;
  /// The loop whose iteration started this one; null for a root loop.
  /// Followed only when a loop nested under this one starts.
  LoopState* parent = nullptr;
  std::mutex mu;  // guards error_index, error and announced
  /// Wakes the threads waiting on this loop: on completion, when a loop
  /// is announced, and (a pool's root) when the pool stops.
  std::condition_variable cv;
  size_t error_index = 0;
  Status error;
  /// Loops announced to this one (started under its iterations, at any
  /// depth) that had unclaimed iterations when last looked at.
  std::vector<std::shared_ptr<LoopState>> announced;
};

namespace {

/// The engine-configured size for the global pool (0 = unset) and the
/// size the global pool was actually built with (0 = not built yet).
std::atomic<size_t> g_configured_threads{0};
std::atomic<size_t> g_global_built_threads{0};

/// The loop whose iteration this thread is running, if any.
thread_local LoopState* tl_running_loop = nullptr;

bool Exhausted(const std::shared_ptr<LoopState>& s) {
  return s->next.load(std::memory_order_relaxed) >= s->n;
}

/// Lists `loop` among those announced to `to`, whose mutex the caller
/// holds, dropping the exhausted ones; returns the list's length.
size_t AnnounceLocked(LoopState& to, const std::shared_ptr<LoopState>& loop) {
  std::erase_if(to.announced, Exhausted);
  to.announced.push_back(loop);
  return to.announced.size();
}

/// Claims and runs iterations of `s` until none is left unclaimed.
void Drive(LoopState& s) {
  LoopState* const enclosing = tl_running_loop;
  tl_running_loop = &s;
  for (;;) {
    const size_t i = s.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= s.n) break;
    Status st = (*s.body)(i);
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(s.mu);
      if (i < s.error_index) {
        s.error_index = i;
        s.error = std::move(st);
      }
    }
    if (s.done.fetch_add(1, std::memory_order_acq_rel) + 1 == s.n) {
      // Lock before notifying so the caller cannot miss the wakeup
      // between its predicate check and its wait.
      std::lock_guard<std::mutex> lock(s.mu);
      s.cv.notify_all();
    }
  }
  tl_running_loop = enclosing;
}

/// The one way a pool thread finds work: until `finished()` (read under
/// s.mu) holds, drives the oldest loop announced to `s` that has
/// unclaimed iterations, and sleeps while there is none. A worker waits
/// so on its pool's root, a ParallelFor caller on its own loop.
template <typename Finished>
void DriveAnnounced(LoopState& s, Finished finished) {
  for (;;) {
    std::shared_ptr<LoopState> next;
    {
      std::unique_lock<std::mutex> lock(s.mu);
      s.cv.wait(lock, [&] {
        if (finished()) return true;
        std::erase_if(s.announced, Exhausted);
        if (s.announced.empty()) return false;
        next = s.announced.front();
        return true;
      });
      if (next == nullptr) return;
    }
    Drive(*next);
  }
}

}  // namespace

size_t DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

size_t GlobalThreadCount() {
  const size_t configured =
      g_configured_threads.load(std::memory_order_relaxed);
  return configured != 0 ? configured : DefaultThreadCount();
}

Status ConfigureGlobalThreadCount(size_t count) {
  if (count == 0) count = DefaultThreadCount();
  const size_t built = g_global_built_threads.load(std::memory_order_acquire);
  if (built != 0 && built != count) {
    return Status::FailedPrecondition(StrFormat(
        "global thread pool already built with %zu threads; cannot "
        "reconfigure to %zu — apply the engine config before first use",
        built, count));
  }
  g_configured_threads.store(count, std::memory_order_relaxed);
  return Status::Ok();
}

ThreadPool::ThreadPool(size_t num_threads)
    : num_threads_(num_threads == 0 ? GlobalThreadCount() : num_threads),
      root_(std::make_unique<LoopState>()) {
  workers_.reserve(num_threads_ - 1);
  for (size_t i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back(
        [this] { DriveAnnounced(*root_, [this] { return stop_; }); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(root_->mu);
    stop_ = true;
  }
  root_->cv.notify_all();
  for (std::thread& w : workers_) w.join();
}

PoolStats ThreadPool::stats() const {
  PoolStats s;
  s.threads = num_threads_;
  std::lock_guard<std::mutex> lock(root_->mu);
  s.tasks_run = tasks_run_;
  s.queue_high_water = queue_high_water_;
  return s;
}

Status ThreadPool::ParallelFor(size_t n,
                               const std::function<Status(size_t)>& body) {
  if (workers_.empty() || n <= 1) return ForEachIndex(nullptr, n, body);

  auto state = std::make_shared<LoopState>();
  state->n = n;
  state->body = &body;
  state->parent = tl_running_loop;
  state->error_index = n;

  // Announce the loop to every enclosing loop, so a caller waiting there
  // can run its iterations, and to this pool's root, so idle workers can.
  // Each ancestor is alive: it is waiting, at least, on the iteration
  // that led here. The chain may pass through another pool's loops, but
  // the pool is told once, and only this one.
  for (LoopState* a = state->parent; a != nullptr; a = a->parent) {
    {
      std::lock_guard<std::mutex> lock(a->mu);
      AnnounceLocked(*a, state);
    }
    a->cv.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(root_->mu);
    queue_high_water_ =
        std::max(queue_high_water_, AnnounceLocked(*root_, state));
    ++tasks_run_;
  }
  for (size_t k = std::min(workers_.size(), n - 1); k > 0; --k) {
    root_->cv.notify_one();
  }

  Drive(*state);  // the caller is a full participant: nested-safe
  // Every iteration is claimed. Until the last one finishes, run
  // iterations of loops nested under this one; they hold it up anyway.
  DriveAnnounced(*state, [&] {
    return state->done.load(std::memory_order_acquire) >= n;
  });
  return state->error_index == n ? Status::Ok() : std::move(state->error);
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = [] {
    auto* p = new ThreadPool(GlobalThreadCount());
    g_global_built_threads.store(p->num_threads(),
                                 std::memory_order_release);
    return p;
  }();
  return *pool;
}

Status ForEachIndex(ThreadPool* pool, size_t n,
                    const std::function<Status(size_t)>& body) {
  if (pool != nullptr) return pool->ParallelFor(n, body);
  // The one serial loop: ParallelFor runs here too when it fans out to
  // no worker.
  Status first;
  for (size_t i = 0; i < n; ++i) {
    Status st = body(i);
    if (!st.ok() && first.ok()) first = std::move(st);
  }
  return first;
}

}  // namespace costsense::runtime
