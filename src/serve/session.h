#ifndef COSTSENSE_SERVE_SESSION_H_
#define COSTSENSE_SERVE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/status.h"
#include "serve/protocol.h"
#include "serve/transport.h"

namespace costsense::serve {

class Server;

/// One client connection: a strict request/response loop over one
/// transport endpoint. All analysis state is shared (the server's
/// dispatcher); per-session state is just the transport and counters,
/// which is the MariaDB-style split that makes sessions cheap.
class Session {
 public:
  /// `server` must outlive the session; the transport is owned.
  Session(Server& server, std::unique_ptr<FrameTransport> transport);

  /// Serves requests until the peer closes (returns OK) or the transport
  /// fails. A decodable request gets a streamed response (header, record
  /// frames, terminal status). A frame that does not decode gets a lone
  /// status frame carrying the decoder's code and ends the session —
  /// after a framing error the stream position is untrustworthy. The session registers with the server for the
  /// duration, so the bounded drain and idle watchdog can reach it.
  [[nodiscard]] Status Run();

  /// Force-closes the transport from another thread (the server's drain
  /// deadline or idle watchdog). A Run() blocked in Recv wakes with end
  /// of stream and exits; an idle peer just sees its connection drop.
  /// True only for the first call, so a session that stays registered
  /// until its thread exits is counted as reclaimed once.
  bool Abort();

  /// Server-clock timestamp of the last protocol activity (frame received
  /// or response sent); the idle watchdog's input.
  uint64_t last_activity_ns() const {
    return last_activity_ns_.load(std::memory_order_relaxed);
  }

  uint64_t requests_served() const { return requests_served_; }

 private:
  /// Serves one decoded request through a FrameRecordSink: header frame,
  /// record frames streamed straight from the dispatcher, terminal status
  /// frame, sent in as few bursts as the record batching allows.
  [[nodiscard]] Status ServeStreaming(const AnalysisRequest& request);

  Server& server_;
  std::unique_ptr<FrameTransport> transport_;
  uint64_t requests_served_ = 0;
  std::atomic<uint64_t> last_activity_ns_{0};
  std::atomic<bool> aborted_{false};
};

/// Client-side round trip: sends `request` and reassembles the response
/// frame stream into one AnalysisResponse (on
/// kOk the body is byte-identical to Dispatcher::Handle's for the same
/// request). Transport failures and grammar violations in the stream come
/// back as typed errors; a reassembled response carries its own code.
[[nodiscard]] Result<AnalysisResponse> CallV2(FrameTransport& transport,
                                              const AnalysisRequest& request);

}  // namespace costsense::serve

#endif  // COSTSENSE_SERVE_SESSION_H_
