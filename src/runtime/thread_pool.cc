#include "runtime/thread_pool.h"

#include <algorithm>
#include <memory>

#include "common/macros.h"
#include "common/strings.h"

namespace costsense::runtime {
namespace {

/// The engine-configured size for the global pool (0 = unset) and the
/// size the global pool was actually built with (0 = not built yet).
std::atomic<size_t> g_configured_threads{0};
std::atomic<size_t> g_global_built_threads{0};

/// One ParallelFor's shared state. Threads race on `next` to claim
/// iterations; `done` counts finished ones. It is heap-held so a helper
/// task that starts after every iteration was claimed can still read
/// `next`, see it exhausted, and exit without touching the caller's dead
/// stack frame.
struct LoopState {
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  size_t n = 0;
  const std::function<Status(size_t)>* body = nullptr;
  /// The loop whose iteration started this one; null for a root loop.
  /// Followed only when a loop nested under this one starts.
  LoopState* parent = nullptr;
  std::mutex mu;  // guards error_index, error and nested
  /// Wakes the caller on completion or when a nested loop is announced.
  std::condition_variable cv;
  size_t error_index = 0;
  Status error;
  /// Loops started under this one's iterations, at any depth, that had
  /// unclaimed iterations when last looked at.
  std::vector<std::shared_ptr<LoopState>> nested;
};

/// The loop whose iteration this thread is running, if any.
thread_local LoopState* tl_running_loop = nullptr;

bool Exhausted(const std::shared_ptr<LoopState>& s) {
  return s->next.load(std::memory_order_relaxed) >= s->n;
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
    : num_threads_(num_threads == 0 ? GlobalThreadCount() : num_threads) {
  workers_.reserve(num_threads_ - 1);
  for (size_t i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

PoolStats ThreadPool::stats() const {
  PoolStats s;
  s.threads = num_threads_;
  s.tasks_run = tasks_run_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.queue_depth = queue_.size();
    s.queue_high_water = queue_high_water_;
  }
  return s;
}

void ThreadPool::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    COSTSENSE_CHECK_MSG(!stop_, "Submit on a stopped ThreadPool");
    queue_.push_back(std::move(task));
    if (queue_.size() > queue_high_water_) queue_high_water_ = queue_.size();
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) drained_cv_.notify_all();
    }
  }
}

Status ThreadPool::ParallelFor(size_t n,
                               const std::function<Status(size_t)>& body) {
  if (n == 0) return Status::Ok();
  if (num_threads_ <= 1 || n == 1) {
    Status first;
    for (size_t i = 0; i < n; ++i) {
      Status st = body(i);
      if (!st.ok() && first.ok()) first = std::move(st);
    }
    return first;
  }

  auto state = std::make_shared<LoopState>();
  state->n = n;
  state->body = &body;
  state->parent = tl_running_loop;
  state->error_index = n;

  // A loop started inside another loop's iteration is announced to every
  // enclosing loop, so a caller waiting there can run its iterations.
  // Each ancestor is alive: it is waiting, at least, on the iteration
  // that led here.
  for (LoopState* a = state->parent; a != nullptr; a = a->parent) {
    {
      std::lock_guard<std::mutex> lock(a->mu);
      std::erase_if(a->nested, Exhausted);
      a->nested.push_back(state);
    }
    a->cv.notify_all();
  }

  const size_t helpers = std::min(num_threads_ - 1, n - 1);
  for (size_t h = 0; h < helpers; ++h) {
    Submit([state] { Drive(*state); });
  }
  Drive(*state);  // the caller is a full participant: nested-safe

  // Every iteration is claimed. Until the last one finishes, run
  // iterations of loops nested under this one; they hold it up anyway.
  for (;;) {
    std::shared_ptr<LoopState> nested;
    {
      std::unique_lock<std::mutex> lock(state->mu);
      state->cv.wait(lock, [&] {
        if (state->done.load(std::memory_order_acquire) >= n) return true;
        std::erase_if(state->nested, Exhausted);
        if (state->nested.empty()) return false;
        nested = state->nested.front();
        return true;
      });
      if (nested == nullptr) break;
    }
    Drive(*nested);
  }
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
  Status first;
  for (size_t i = 0; i < n; ++i) {
    Status st = body(i);
    if (!st.ok() && first.ok()) first = std::move(st);
  }
  return first;
}

}  // namespace costsense::runtime
