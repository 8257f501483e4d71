#include "serve/session.h"

#include <utility>

#include "serve/record_sink.h"
#include "serve/server.h"

namespace costsense::serve {

namespace {

/// Deregisters the session on every Run() exit path, before the Session
/// (and its transport) can be destroyed — which is what makes the
/// server's Abort()-under-registry-lock free of use-after-free.
/// BeginSession is idempotent, so a session ServeBlocking already
/// registered at accept time is not double-counted.
struct SessionRegistration {
  Server& server;
  Session& session;
  SessionRegistration(Server& s, Session& sess) : server(s), session(sess) {
    server.BeginSession(session);
  }
  ~SessionRegistration() { server.EndSession(session); }
};

}  // namespace

Session::Session(Server& server, std::unique_ptr<FrameTransport> transport)
    : server_(server), transport_(std::move(transport)) {
  // Stamped at construction: ServeBlocking registers sessions before
  // their thread first runs, and the idle watchdog must never observe a
  // zero timestamp (it would reap the session as infinitely idle).
  last_activity_ns_.store(server_.clock().NowNanos(),
                          std::memory_order_relaxed);
}

bool Session::Abort() {
  if (aborted_.exchange(true)) return false;
  transport_->Close();
  return true;
}

Status Session::Run() {
  runtime::resilience::Clock& clock = server_.clock();
  last_activity_ns_.store(clock.NowNanos(), std::memory_order_relaxed);
  SessionRegistration registration(server_, *this);
  for (;;) {
    Result<std::string> frame = transport_->RecvFrame();
    if (!frame.ok()) {
      transport_->Close();
      if (frame.status().code() == StatusCode::kNotFound) {
        return Status::Ok();  // clean end of stream
      }
      return frame.status();
    }
    last_activity_ns_.store(clock.NowNanos(), std::memory_order_relaxed);

    Result<AnalysisRequest> request = DecodeRequest(*frame);
    if (!request.ok()) {
      // Answer an undecodable frame with a lone status frame carrying the
      // decoder's own code — the one frame a reassembler accepts without
      // a header — then drop the connection rather than guess at where
      // the next frame starts.
      ResponseFrame status_frame;
      status_frame.type = ResponseFrameType::kStatus;
      status_frame.code = request.status().code();
      status_frame.message = request.status().message();
      const Status sent =
          transport_->SendFrame(EncodeResponseFrame(status_frame));
      transport_->Close();
      return sent.ok() ? request.status() : sent;
    }
    const Status served = ServeStreaming(*request);
    if (!served.ok()) {
      transport_->Close();
      return served;
    }
    ++requests_served_;
    last_activity_ns_.store(clock.NowNanos(), std::memory_order_relaxed);
  }
}

Status Session::ServeStreaming(const AnalysisRequest& request) {
  FrameRecordSink stream(*transport_, request);
  const Status analysis = server_.HandleStreaming(request, stream);
  // Only a transport failure here is a session error: an analysis failure
  // still ends with a well-formed status frame telling the client to
  // discard records.
  return stream.Finish(analysis);
}

Result<AnalysisResponse> CallV2(FrameTransport& transport,
                                const AnalysisRequest& request) {
  const Status sent = transport.SendFrame(EncodeRequest(request));
  if (!sent.ok()) return sent;
  ResponseReassembler reassembler;
  while (!reassembler.done()) {
    Result<std::string> frame = transport.RecvFrame();
    if (!frame.ok()) {
      if (frame.status().code() == StatusCode::kNotFound) {
        return Status::Unavailable("server closed the stream mid-call");
      }
      return frame.status();
    }
    Status fed = reassembler.Feed(*frame);
    if (!fed.ok()) return fed;
  }
  return reassembler.TakeResponse();
}

}  // namespace costsense::serve
