// Tests of the fixed-size thread pool: startup/shutdown, fork-join
// correctness, deterministic Status propagation, the nested-loop
// no-deadlock guarantee the discovery driver depends on, a waiting
// caller running nested iterations (only those of its own loop's tree),
// workers finding every loop through their pool, and exact counters.
#include "runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace costsense::runtime {
namespace {

TEST(GlobalThreadCountTest, CountsAreAtLeastOne) {
  // The pool never reads the environment itself; engine::Engine::Create
  // translates the typed config into ConfigureGlobalThreadCount.
  EXPECT_GE(DefaultThreadCount(), 1u);
  EXPECT_GE(GlobalThreadCount(), 1u);
}

TEST(GlobalThreadCountTest, ReconfigureAfterBuildFailsLoudly) {
  // Force the global pool into existence, then ask for a different size:
  // the setting could no longer take effect, so it must refuse rather
  // than run mis-sized.
  const size_t built = ThreadPool::Global().num_threads();
  EXPECT_TRUE(ConfigureGlobalThreadCount(built).ok());
  EXPECT_TRUE(ConfigureGlobalThreadCount(0).ok() ||
              built != DefaultThreadCount());
  const Status mismatched = ConfigureGlobalThreadCount(built + 1);
  EXPECT_EQ(mismatched.code(), StatusCode::kFailedPrecondition);
  // Restore the matching setting so later tests see a consistent state.
  EXPECT_TRUE(ConfigureGlobalThreadCount(built).ok());
}

TEST(ThreadPoolTest, StartupAndShutdownAcrossSizes) {
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    // Destruction of an idle pool must not hang (checked by exiting the
    // loop body).
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  // No workers: every iteration runs on the calling thread, in order.
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  EXPECT_TRUE(pool.ParallelFor(5, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
    return Status::Ok();
  }).ok());
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    const size_t n = 1000;
    std::vector<std::atomic<int>> seen(n);
    const Status s = pool.ParallelFor(n, [&](size_t i) {
      seen[i].fetch_add(1);
      return Status::Ok();
    });
    EXPECT_TRUE(s.ok());
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(seen[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroAndOne) {
  ThreadPool pool(4);
  EXPECT_TRUE(pool.ParallelFor(0, [](size_t) { return Status::Ok(); }).ok());
  int runs = 0;
  EXPECT_TRUE(pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++runs;
    return Status::Ok();
  }).ok());
  EXPECT_EQ(runs, 1);
}

TEST(ThreadPoolTest, StatusPropagatesLowestFailingIndex) {
  // All iterations run even when some fail, and the reported error is the
  // one with the smallest index — deterministic for any schedule.
  for (size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    const size_t n = 500;
    std::atomic<size_t> executed{0};
    const Status s = pool.ParallelFor(n, [&](size_t i) -> Status {
      executed.fetch_add(1);
      if (i == 7 || i == 3 || i == 400) {
        return Status::Internal("boom at " + std::to_string(i));
      }
      return Status::Ok();
    });
    EXPECT_EQ(executed.load(), n);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("boom at 3"), std::string::npos)
        << s.ToString();
  }
}

TEST(ThreadPoolTest, MassFailureUnderContentionReportsLowestIndex) {
  // Adversarial variant of the test above, modeled on a fault-injected
  // probe sweep: hundreds of iterations fail, and the lowest failing
  // index is deliberately the *slowest* to report, so an implementation
  // that kept the first error to arrive would return a higher index.
  // Every round on the contended pool must still run all iterations and
  // report the lowest failing index.
  ThreadPool pool(4);
  const size_t n = 1000;
  for (size_t round = 0; round < 5; ++round) {
    const size_t lowest = 11 + 31 * round;
    std::atomic<size_t> executed{0};
    const Status s = pool.ParallelFor(n, [&](size_t i) -> Status {
      executed.fetch_add(1);
      if (i < lowest || (i - lowest) % 3 != 0) return Status::Ok();
      if (i == lowest) {
        // Make the winning error the last one to arrive in wall time.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      return Status::Unavailable("fault at " + std::to_string(i));
    });
    EXPECT_EQ(executed.load(), n);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("fault at " + std::to_string(lowest)),
              std::string::npos)
        << "round " << round << ": " << s.ToString();
  }
}

TEST(ThreadPoolTest, ParallelMapPreservesInputOrder) {
  ThreadPool pool(4);
  std::vector<int> items;
  for (int i = 0; i < 300; ++i) items.push_back(i);
  const std::vector<long> out =
      pool.ParallelMap(items, [](size_t i, int v) -> long {
        EXPECT_EQ(static_cast<int>(i), v);
        return static_cast<long>(v) * v;
      });
  ASSERT_EQ(out.size(), items.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<long>(i) * static_cast<long>(i));
  }
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // The discovery driver nests loops (queries -> probes -> extraction);
  // caller participation means a saturated pool degrades to inline
  // execution instead of deadlocking.
  ThreadPool pool(4);
  std::atomic<size_t> inner_total{0};
  const Status s = pool.ParallelFor(16, [&](size_t) {
    return pool.ParallelFor(16, [&](size_t) {
      inner_total.fetch_add(1);
      return Status::Ok();
    });
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(inner_total.load(), 16u * 16u);
}

/// Polls `flag` for about five seconds, so a scheduling bug fails the
/// test instead of hanging it.
bool AwaitFlag(const std::atomic<bool>& flag) {
  for (int i = 0; i < 50000 && !flag.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return flag.load();
}

/// Two outer iterations, one of which starts a nested loop of `inner`
/// iterations; returns each nested result and, on a multi-lane pool, the
/// number of nested iterations the outer caller ran. There the iteration
/// that lands on the caller's thread waits until a worker is inside the
/// other, so the nested loop runs on that worker while the caller has
/// nothing of its own left, and each nested iteration on a worker waits
/// until the caller has run one.
std::vector<size_t> OuterIterationStartsNestedLoop(ThreadPool& pool,
                                                   size_t inner,
                                                   size_t* run_by_caller) {
  const bool gated = pool.num_threads() > 1;
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> worker_inside{false};
  std::atomic<bool> released{false};
  std::atomic<size_t> by_caller{0};
  std::vector<size_t> results(inner, 0);
  const Status s = pool.ParallelFor(2, [&](size_t) -> Status {
    if (gated && std::this_thread::get_id() == caller) {
      EXPECT_TRUE(AwaitFlag(worker_inside));
      return Status::Ok();
    }
    worker_inside.store(true);
    return pool.ParallelFor(inner, [&](size_t j) -> Status {
      if (std::this_thread::get_id() == caller) {
        by_caller.fetch_add(1);
        released.store(true);
      } else if (gated && !AwaitFlag(released)) {
        released.store(true);  // fail once, not once per iteration
        return Status::Internal("the waiting caller ran no nested iteration");
      }
      results[j] = j * j + 7;
      return Status::Ok();
    });
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  *run_by_caller = by_caller.load();
  return results;
}

TEST(ThreadPoolTest, WaitingCallerDrivesNestedLoops) {
  // A caller whose own iterations are all claimed runs iterations of a
  // loop nested under its loop instead of sleeping (how AnalyzeMany's
  // caller helps each query's probe batches).
  const size_t inner = 32;
  ThreadPool serial(1);
  size_t unused = 0;
  const std::vector<size_t> expected =
      OuterIterationStartsNestedLoop(serial, inner, &unused);
  for (size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    size_t by_caller = 0;
    EXPECT_EQ(OuterIterationStartsNestedLoop(pool, inner, &by_caller),
              expected)
        << threads << " threads";
    EXPECT_GE(by_caller, 1u) << threads << " threads";
  }
}

TEST(ThreadPoolTest, UnrelatedRootLoopsNeverShareIterations) {
  // Two threads outside the pool each run a root loop of slow iterations
  // on a pool with one worker: the worker serves one loop while the other
  // loop's iterations wait on the pool. A caller waiting for the worker
  // must not pick up the other root's unclaimed work; it may run only its
  // own loop and loops nested under it.
  ThreadPool pool(2);
  const size_t n = 12;
  for (int round = 0; round < 4; ++round) {
    std::vector<std::thread::id> ran_a(n), ran_b(n);
    std::atomic<int> ready{0};
    auto run_root = [&](std::vector<std::thread::id>* ran) {
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
      const Status s = pool.ParallelFor(n, [&, ran](size_t i) {
        (*ran)[i] = std::this_thread::get_id();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return Status::Ok();
      });
      EXPECT_TRUE(s.ok());
    };
    std::thread a(run_root, &ran_a);
    std::thread b(run_root, &ran_b);
    const std::thread::id id_a = a.get_id();
    const std::thread::id id_b = b.get_id();
    a.join();
    b.join();
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NE(ran_a[i], id_b) << "round " << round << " index " << i;
      EXPECT_NE(ran_b[i], id_a) << "round " << round << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, ThreeLevelNestingReportsLowestFailingIndex) {
  // Loops three deep, with slow leaves so waiting callers find nested
  // work to run: every leaf runs once, nothing deadlocks, and each level
  // reports its lowest failing index, so the top-level error names the
  // lowest failing (i, j, k) for any pool size.
  for (size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    for (int round = 0; round < 3; ++round) {
      std::atomic<size_t> leaves{0};
      const Status s = pool.ParallelFor(4, [&](size_t i) {
        return pool.ParallelFor(4, [&, i](size_t j) {
          return pool.ParallelFor(8, [&, i, j](size_t k) -> Status {
            leaves.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            if (i >= 1 && j >= 2 && (k == 3 || k == 6)) {
              return Status::Internal("leaf " + std::to_string(i) + "/" +
                                      std::to_string(j) + "/" +
                                      std::to_string(k));
            }
            return Status::Ok();
          });
        });
      });
      EXPECT_EQ(leaves.load(), 4u * 4u * 8u);
      ASSERT_FALSE(s.ok());
      EXPECT_NE(s.message().find("leaf 1/2/3"), std::string::npos)
          << threads << " threads, round " << round << ": " << s.ToString();
    }
  }
}

TEST(ThreadPoolTest, StatsCountWork) {
  // A loop counts when it is handed to the workers, so the counters are
  // exact as soon as ParallelFor returns; loops of one iteration and
  // pools without workers hand out none.
  ThreadPool pool(4);
  auto ok = [](size_t) { return Status::Ok(); };
  EXPECT_TRUE(pool.ParallelFor(64, ok).ok());
  EXPECT_TRUE(pool.ParallelFor(1, ok).ok());
  EXPECT_TRUE(pool.ParallelFor(0, ok).ok());
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.threads, 4u);
  EXPECT_EQ(stats.tasks_run, 1u);
  EXPECT_EQ(stats.queue_high_water, 1u);
  ThreadPool serial(1);
  EXPECT_TRUE(serial.ParallelFor(64, ok).ok());
  EXPECT_EQ(serial.stats().tasks_run, 0u);
  EXPECT_EQ(serial.stats().queue_high_water, 0u);
}

TEST(ThreadPoolTest, NestedLoopsLeaveNoStaleWork) {
  // Four outer iterations each run 100 small loops one after another.
  // Every loop counts once, and at most the outer loop and one inner loop
  // per outer iteration have unclaimed iterations at any moment.
  ThreadPool pool(4);
  std::atomic<size_t> leaves{0};
  const Status s = pool.ParallelFor(4, [&](size_t) -> Status {
    for (int loop = 0; loop < 100; ++loop) {
      const Status inner = pool.ParallelFor(8, [&](size_t) {
        leaves.fetch_add(1);
        return Status::Ok();
      });
      if (!inner.ok()) return inner;
    }
    return Status::Ok();
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(leaves.load(), 4u * 100u * 8u);
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.tasks_run, 401u);
  EXPECT_LE(stats.queue_high_water, 5u);
}

TEST(ThreadPoolTest, NestedLoopOnAnotherPoolUsesItsWorkers) {
  // A pool-B loop started inside a pool-A iteration is announced to B, so
  // B's workers run its iterations, not only the A threads that started
  // or wait on it. First learn B's worker threads: a root loop of three
  // iterations on B(3) runs one on each of its three lanes.
  ThreadPool a(2);
  ThreadPool b(3);
  std::mutex mu;
  std::vector<std::thread::id> b_lanes;
  std::atomic<size_t> arrived{0};
  EXPECT_TRUE(b.ParallelFor(3, [&](size_t) {
    {
      std::lock_guard<std::mutex> lock(mu);
      b_lanes.push_back(std::this_thread::get_id());
    }
    arrived.fetch_add(1);
    for (int i = 0; i < 50000 && arrived.load() < 3; ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return Status::Ok();
  }).ok());
  ASSERT_EQ(arrived.load(), 3u);
  std::erase(b_lanes, std::this_thread::get_id());
  ASSERT_EQ(b_lanes.size(), 2u);
  auto is_b_worker = [&](std::thread::id id) {
    return std::find(b_lanes.begin(), b_lanes.end(), id) != b_lanes.end();
  };

  // Each nested iteration on a thread that is not a B worker waits until
  // a B worker has run one, so the A threads cannot finish the loop alone.
  std::atomic<bool> b_worker_ran{false};
  const Status s = a.ParallelFor(2, [&](size_t) {
    return b.ParallelFor(16, [&](size_t) -> Status {
      if (is_b_worker(std::this_thread::get_id())) {
        b_worker_ran.store(true);
      } else if (!AwaitFlag(b_worker_ran)) {
        b_worker_ran.store(true);  // fail once, not once per iteration
        return Status::Internal("no B worker ran a nested B iteration");
      }
      return Status::Ok();
    });
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ForEachIndexTest, NullPoolRunsSerially) {
  std::vector<int> seen(10, 0);
  const Status ok = ForEachIndex(nullptr, 10, [&](size_t i) {
    seen[i] += 1;
    return Status::Ok();
  });
  EXPECT_TRUE(ok.ok());
  for (int v : seen) EXPECT_EQ(v, 1);

  // Same lowest-index-error, all-iterations semantics as the pool path.
  int executed = 0;
  const Status err = ForEachIndex(nullptr, 10, [&](size_t i) -> Status {
    ++executed;
    if (i == 6 || i == 2) return Status::Internal("x" + std::to_string(i));
    return Status::Ok();
  });
  EXPECT_EQ(executed, 10);
  ASSERT_FALSE(err.ok());
  EXPECT_NE(err.message().find("x2"), std::string::npos);
}

}  // namespace
}  // namespace costsense::runtime
