#ifndef COSTSENSE_SERVE_SERVER_H_
#define COSTSENSE_SERVE_SERVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "runtime/resilience/clock.h"
#include "runtime/sink/sink.h"
#include "serve/admission.h"
#include "serve/dispatcher.h"
#include "serve/protocol.h"
#include "serve/transport.h"

namespace costsense::serve {

class Session;

/// Server-wide tuning: the dispatcher policy plus admission bounds.
struct ServerOptions {
  DispatcherOptions dispatcher;
  /// Requests executing at once across all sessions.
  size_t max_inflight = 4;
  /// Requests allowed to wait for a slot; beyond this, kUnavailable.
  size_t max_queued = 16;
  /// Bound on Shutdown()/ServeBlocking waiting for live sessions before
  /// force-closing their transports (the --drain-timeout). 0 = wait
  /// forever — one wedged session then wedges shutdown, which is exactly
  /// what this knob exists to prevent. Measured on the dispatcher clock.
  uint64_t drain_timeout_ns = 0;
  /// Idle threshold for ReapIdleSessions(): a session whose last protocol
  /// activity is older than this gets its transport force-closed. 0 =
  /// never reap. Must comfortably exceed the longest expected analysis,
  /// since a session is "idle" from its last completed frame.
  uint64_t idle_timeout_ns = 0;
};

/// How the last Shutdown()/drain went. All zero until one has run.
struct ShutdownStats {
  /// A drain (graceful or forced) has completed.
  bool ran = false;
  /// Sessions force-closed because the drain timeout expired; 0 means
  /// every session ended gracefully.
  uint64_t forced_sessions = 0;
  /// Total time drains spent waiting, on the server clock (accumulated
  /// across ServeBlocking's exit drain and Shutdown()).
  uint64_t drain_wait_ns = 0;
  /// Set when the shutdown cache snapshot failed to persist (the server
  /// still shuts down; the next start is just cold).
  bool persist_failed = false;
};

/// Everything the server can report about itself.
struct ServerStats {
  AdmissionStats admission;
  DispatcherStats dispatcher;
  /// Sessions ever accepted by ServeBlocking (in-process sessions
  /// constructed directly against the server are not counted here).
  uint64_t sessions = 0;
  /// Sessions currently registered: accepted by ServeBlocking or inside
  /// Session::Run().
  size_t active_sessions = 0;
  /// Sessions reclaimed by the idle watchdog over the server's lifetime.
  uint64_t idle_reaped = 0;
  ShutdownStats shutdown;
};

/// The long-lived analysis server: admission control in front of the
/// shared dispatcher. Sessions (any number, on any threads) funnel their
/// requests through HandleStreaming(), which bounds concurrent work and
/// sheds load with typed kUnavailable once saturated — the server never
/// hangs a client and never crashes from overload.
class Server {
 public:
  explicit Server(ServerOptions options);

  /// Admission-controlled request execution; the single entry point for
  /// every session. Body records go through `records` as they are
  /// produced. Returns the analysis status the session turns into the
  /// terminal status frame — admission failures are kUnavailable, never
  /// hangs; on a non-OK status any records already streamed are
  /// discarded by the client's reassembler.
  [[nodiscard]] Status HandleStreaming(const AnalysisRequest& request,
                                       runtime::sink::Sink& records);

  /// Accepts connections until the listener is closed (or `max_sessions`
  /// sessions have finished, when nonzero — benches use this for a
  /// drivable shutdown), running each session on its own thread. Returns
  /// after every accepted session has drained.
  [[nodiscard]] Status ServeBlocking(SocketListener& listener,
                                     size_t max_sessions = 0);

  /// Graceful shutdown, bounded by options().drain_timeout_ns: stop
  /// admitting, reject waiters, wait for live sessions to drain (forcing
  /// any stragglers closed at the deadline), and persist the oracle cache
  /// when a snapshot path is configured. The outcome lands in
  /// stats().shutdown. Idempotent.
  void Shutdown();

  /// Force-closes every registered session idle longer than
  /// options().idle_timeout_ns (no-op when 0). Returns the number
  /// reclaimed. Called periodically by the stats snapshotter; safe from
  /// any thread.
  size_t ReapIdleSessions();

  /// Session registry. A registered session is reachable by the drain and
  /// the watchdog; deregistration happens before the Session is
  /// destroyed. BeginSession is idempotent: ServeBlocking registers each
  /// accepted session before its thread exists (so a drain starting
  /// immediately after the accept loop cannot miss it), and Session::Run()
  /// registers again via RAII to cover directly constructed sessions.
  void BeginSession(Session& session);
  void EndSession(Session& session);

  /// The clock drains, watchdogs and session activity stamps run on: the
  /// dispatcher's injected clock, or the real steady clock.
  runtime::resilience::Clock& clock() const;

  ServerStats stats() const;

  /// Exposed so tests can saturate admission directly.
  AdmissionController& admission() { return admission_; }
  Dispatcher& dispatcher() { return dispatcher_; }

  const ServerOptions& options() const { return options_; }

 private:
  /// Waits for the registry to empty, force-closing whatever remains once
  /// the drain timeout expires. Records the outcome in shutdown stats.
  void DrainSessions();

  ServerOptions options_;
  Dispatcher dispatcher_;
  AdmissionController admission_;

  mutable std::mutex mu_;
  uint64_t sessions_ = 0;
  std::vector<Session*> active_;
  uint64_t idle_reaped_ = 0;
  ShutdownStats shutdown_;
};

}  // namespace costsense::serve

#endif  // COSTSENSE_SERVE_SERVER_H_
