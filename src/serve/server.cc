#include "serve/server.h"

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "serve/session.h"

namespace costsense::serve {

namespace {
/// Drain poll granularity. Real-clock drains re-check the registry every
/// millisecond; under a ManualClock each poll advances virtual time by
/// exactly this much, so the drain-timeout tests are deterministic.
constexpr uint64_t kDrainPollNs = 1'000'000;
}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      dispatcher_(options_.dispatcher),
      admission_(options_.max_inflight, options_.max_queued) {}

runtime::resilience::Clock& Server::clock() const {
  return options_.dispatcher.clock != nullptr
             ? *options_.dispatcher.clock
             : runtime::resilience::Clock::Real();
}

void Server::BeginSession(Session& session) {
  std::lock_guard<std::mutex> lock(mu_);
  // Idempotent: ServeBlocking registers at accept time and Session::Run()
  // registers again via RAII; the session must appear exactly once.
  if (std::find(active_.begin(), active_.end(), &session) == active_.end()) {
    active_.push_back(&session);
  }
}

void Server::EndSession(Session& session) {
  std::lock_guard<std::mutex> lock(mu_);
  active_.erase(std::remove(active_.begin(), active_.end(), &session),
                active_.end());
}

size_t Server::ReapIdleSessions() {
  if (options_.idle_timeout_ns == 0) return 0;
  const uint64_t now = clock().NowNanos();
  size_t reaped = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (Session* session : active_) {
    const uint64_t last = session->last_activity_ns();
    // Abort() only touches the transport (thread-safe close); the
    // session deregisters itself before destruction, so this pointer is
    // valid for as long as we hold the registry lock.
    if (now > last && now - last >= options_.idle_timeout_ns &&
        // costsense-lint: allow(R8, "Abort closes, never blocks; the session pointer is only valid while the registry lock pins it")
        session->Abort()) {
      ++reaped;
    }
  }
  idle_reaped_ += reaped;
  return reaped;
}

void Server::DrainSessions() {
  runtime::resilience::Clock& clk = clock();
  const uint64_t start = clk.NowNanos();
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (active_.empty()) break;
      if (options_.drain_timeout_ns != 0 &&
          clk.NowNanos() - start >= options_.drain_timeout_ns) {
        // Deadline: force-close the stragglers. Their blocked Recv calls
        // wake with end-of-stream and the sessions deregister on exit.
        for (Session* session : active_) {
          // costsense-lint: allow(R8, "Abort closes, never blocks; the session pointer is only valid while the registry lock pins it")
          if (session->Abort()) ++shutdown_.forced_sessions;
        }
        break;
      }
    }
    clk.SleepFor(kDrainPollNs);
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Accumulated: ServeBlocking drains on exit and Shutdown() drains
  // again; the stat must keep the wait that actually happened rather
  // than be overwritten by a later already-empty drain.
  shutdown_.drain_wait_ns += clk.NowNanos() - start;
  shutdown_.ran = true;
}

Status Server::HandleStreaming(const AnalysisRequest& request,
                               runtime::sink::Sink& records) {
  Status admitted = admission_.Admit();
  if (!admitted.ok()) return admitted;
  const Status st = dispatcher_.HandleStreaming(request, records);
  admission_.Release();
  return st;
}

Status Server::ServeBlocking(SocketListener& listener, size_t max_sessions) {
  std::vector<std::thread> threads;
  uint64_t accepted = 0;
  Status terminal = Status::Ok();
  for (;;) {
    if (max_sessions != 0 && accepted >= max_sessions) break;
    Result<std::unique_ptr<SocketTransport>> conn = listener.Accept();
    if (!conn.ok()) {
      // kUnavailable is the listener's close signal — a clean shutdown,
      // not an error to propagate.
      if (conn.status().code() != StatusCode::kUnavailable) {
        terminal = conn.status();
      }
      break;
    }
    ++accepted;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++sessions_;
    }
    auto session = std::make_unique<Session>(*this, std::move(conn).value());
    // Register before spawning the thread: the moment the accept loop can
    // fall through to DrainSessions(), every accepted session must be
    // visible to the drain. Registering inside the session thread loses a
    // race where the drain sees an empty registry (and declares victory)
    // before a wedged connection's thread has reached Run() — which would
    // wedge the join below forever.
    BeginSession(*session);
    threads.emplace_back([session = std::move(session)]() mutable {
      // A failed session only affects its own connection; the peer
      // already received a typed error frame where one was possible.
      const Status session_status = session->Run();
      (void)session_status;
    });
  }
  // Bound the joins: a wedged session would otherwise block this loop
  // forever. After the drain (graceful or forced at the deadline) every
  // session thread is on its way out, so the joins complete.
  DrainSessions();
  for (std::thread& t : threads) t.join();
  return terminal;
}

void Server::Shutdown() {
  admission_.Close();
  DrainSessions();
  const Status persisted = dispatcher_.PersistCache();
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_.persist_failed = !persisted.ok();
}

ServerStats Server::stats() const {
  ServerStats out;
  out.admission = admission_.stats();
  out.dispatcher = dispatcher_.stats();
  std::lock_guard<std::mutex> lock(mu_);
  out.sessions = sessions_;
  out.active_sessions = active_.size();
  out.idle_reaped = idle_reaped_;
  out.shutdown = shutdown_;
  return out;
}

}  // namespace costsense::serve
