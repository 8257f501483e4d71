#ifndef COSTSENSE_SERVE_SNAPSHOTTER_H_
#define COSTSENSE_SERVE_SNAPSHOTTER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>

#include "engine/artifact.h"
#include "runtime/resilience/clock.h"
#include "serve/server.h"

namespace costsense::serve {

/// Tuning for the periodic stats snapshotter.
struct SnapshotterOptions {
  /// Interval between snapshots (COSTSENSE_SERVE_STATS_INTERVAL_MS).
  /// 0 writes no periodic snapshot; TickOnce() still works.
  uint64_t interval_ns = 0;
  /// Clock the background thread sleeps on; null = real steady clock.
  /// Tests drive TickOnce() directly, or run the thread on a ManualClock.
  runtime::resilience::Clock* clock = nullptr;
};

/// Emits periodic server-side stats snapshots through the artifact sinks
/// while the server is serving — not only at shutdown — and runs the idle
/// watchdog on the same cadence. Each tick writes one RuntimeMetrics
/// record named "serve-stats" (sequence number, admission, discovery-memo
/// and cache counters, active sessions) and flushes the sinks, so an
/// aborted server still leaves every snapshot up to the last tick on
/// disk. With no snapshot interval but a server idle timeout, the
/// background thread still runs the watchdog, once per idle timeout, and
/// writes nothing.
///
/// The server and the writer must outlive this object. Stop() (or
/// destruction) joins the background thread; after that the writer is
/// exclusively the caller's again — costsense-serve stops the snapshotter
/// before writing its final shutdown record.
class StatsSnapshotter {
 public:
  StatsSnapshotter(Server& server, engine::ArtifactWriter& writer,
                   SnapshotterOptions options);
  ~StatsSnapshotter();

  StatsSnapshotter(const StatsSnapshotter&) = delete;
  StatsSnapshotter& operator=(const StatsSnapshotter&) = delete;

  /// Launches the background thread: when interval_ns or the server's
  /// idle_timeout_ns is nonzero, and not already started.
  void Start();

  /// Stops and joins the background thread. Idempotent; pending sleep is
  /// abandoned within the poll step, not the full interval.
  void Stop();

  /// One snapshot now, on the caller's thread: reap idle sessions, write
  /// the stats record, flush the sinks. Serialized against the background
  /// thread. Returns the number of idle sessions reaped.
  size_t TickOnce();

  /// Snapshots written so far (both threaded and manual ticks).
  uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }

 private:
  runtime::resilience::Clock& clock() const;
  /// The background thread's cadence: the snapshot interval, else the
  /// idle timeout; 0 = no thread.
  uint64_t period_ns() const;
  void Loop();

  Server& server_;
  engine::ArtifactWriter& writer_;
  const SnapshotterOptions options_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> ticks_{0};
  std::mutex tick_mu_;
  std::thread thread_;
};

}  // namespace costsense::serve

#endif  // COSTSENSE_SERVE_SNAPSHOTTER_H_
