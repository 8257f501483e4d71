#include "serve/snapshotter.h"

#include <algorithm>

namespace costsense::serve {

namespace {
/// Upper bound on one uninterrupted sleep inside the interval, so Stop()
/// latency is bounded by this rather than by the (possibly long) snapshot
/// interval.
constexpr uint64_t kMaxSleepStepNs = 50'000'000;  // 50 ms
}  // namespace

StatsSnapshotter::StatsSnapshotter(Server& server,
                                   engine::ArtifactWriter& writer,
                                   SnapshotterOptions options)
    : server_(server), writer_(writer), options_(options) {}

StatsSnapshotter::~StatsSnapshotter() { Stop(); }

runtime::resilience::Clock& StatsSnapshotter::clock() const {
  return options_.clock != nullptr ? *options_.clock
                                   : runtime::resilience::Clock::Real();
}

uint64_t StatsSnapshotter::period_ns() const {
  return options_.interval_ns != 0 ? options_.interval_ns
                                   : server_.options().idle_timeout_ns;
}

void StatsSnapshotter::Start() {
  if (period_ns() == 0 || thread_.joinable()) return;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
}

void StatsSnapshotter::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void StatsSnapshotter::Loop() {
  runtime::resilience::Clock& clk = clock();
  const uint64_t period = period_ns();
  while (!stop_.load(std::memory_order_acquire)) {
    // Sleep one period in bounded steps, re-checking the stop flag so
    // shutdown never waits out a long period.
    uint64_t slept = 0;
    while (slept < period && !stop_.load(std::memory_order_acquire)) {
      const uint64_t step = std::min(kMaxSleepStepNs, period - slept);
      clk.SleepFor(step);
      slept += step;
    }
    if (stop_.load(std::memory_order_acquire)) break;
    if (options_.interval_ns != 0) {
      TickOnce();
    } else {
      server_.ReapIdleSessions();
    }
  }
}

size_t StatsSnapshotter::TickOnce() {
  // Reap before taking the tick lock: ReapIdleSessions force-closes idle
  // transports, and holding tick_mu_ across that close would let one
  // wedged connection stall every concurrent manual Tick() caller
  // (lint rule R8: no lock held across a transport boundary).
  const size_t reaped = server_.ReapIdleSessions();
  std::lock_guard<std::mutex> lock(tick_mu_);
  const ServerStats stats = server_.stats();
  const uint64_t seq = ticks_.fetch_add(1, std::memory_order_relaxed) + 1;

  runtime::RuntimeMetrics metrics;
  metrics.AddCacheStats(stats.dispatcher.cache);
  writer_.WriteRunMetrics(
      "serve-stats", metrics,
      {{"snapshot_seq", static_cast<double>(seq)},
       {"requests", static_cast<double>(stats.dispatcher.requests)},
       {"failed_requests",
        static_cast<double>(stats.dispatcher.failed_requests)},
       {"discoveries", static_cast<double>(stats.dispatcher.discoveries)},
       {"discoveries_recalled",
        static_cast<double>(stats.dispatcher.discoveries_recalled)},
       {"contexts", static_cast<double>(stats.dispatcher.contexts)},
       {"admitted", static_cast<double>(stats.admission.admitted)},
       {"rejected", static_cast<double>(stats.admission.rejected)},
       {"sessions", static_cast<double>(stats.sessions)},
       {"active_sessions", static_cast<double>(stats.active_sessions)},
       {"idle_reaped", static_cast<double>(stats.idle_reaped)}});
  // Checkpoint semantics: an aborted server keeps everything up to here.
  const Status flushed = writer_.Flush();
  (void)flushed;  // a failing sink must not take the server down
  return reaped;
}

}  // namespace costsense::serve
