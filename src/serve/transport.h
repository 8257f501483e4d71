#ifndef COSTSENSE_SERVE_TRANSPORT_H_
#define COSTSENSE_SERVE_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>

#include "common/status.h"
#include "serve/protocol.h"

namespace costsense::serve {

/// One endpoint of a bidirectional frame stream (see protocol.h for the
/// framing). Implementations deliver whole frames or typed errors; the
/// session/server layers never see partial reads.
///
/// Sending has one implementation per transport: SendBurst hands a run of
/// frames to the peer in one go (one lock and one wake-up in process, one
/// send loop over one buffer on a socket), and SendFrame is the one-frame
/// burst. A response
/// stream goes out in as few bursts as its batching allows, so a blocked
/// client wakes once per burst rather than once per frame.
///
/// A transport endpoint is owned by one session and is not required to be
/// safe for concurrent Send/Recv from multiple threads; concurrency in
/// costsense-serve comes from running many sessions, not from sharing one.
/// Close() is the exception: it is safe to call from any thread while the
/// owner is blocked in Send/Recv — the watchdog and bounded drain reclaim
/// wedged sessions exactly this way.
class FrameTransport {
 public:
  virtual ~FrameTransport() = default;

  /// Sends `frames` in order as one hand-off. The payloads may be moved
  /// from. Either every frame is sent or none is: kInvalidArgument when
  /// one exceeds kMaxFrameBytes, kUnavailable once the peer has closed.
  [[nodiscard]] virtual Status SendBurst(std::span<std::string> frames) = 0;

  /// Sends one frame: a one-frame burst.
  [[nodiscard]] Status SendFrame(std::string payload) {
    return SendBurst(std::span<std::string>(&payload, 1));
  }

  /// Blocks for the next frame. kNotFound signals a clean end of stream
  /// (peer closed with nothing buffered — the session's normal exit);
  /// kInvalidArgument marks a malformed frame on the wire.
  [[nodiscard]] virtual Result<std::string> RecvFrame() = 0;

  /// Closes this endpoint; pending and future Recv calls on the peer see
  /// end of stream once the buffered frames drain. Idempotent.
  virtual void Close() = 0;
};

/// Same-process transport: a pair of endpoints connected by two
/// in-memory frame queues. This is what the deterministic serve tests and
/// the default loadgen mode run on — byte-for-byte the same frames as the
/// socket transport, with no kernel in the loop.
class InProcessTransport final : public FrameTransport {
 public:
  /// Creates a connected endpoint pair (client, server).
  static std::pair<std::unique_ptr<InProcessTransport>,
                   std::unique_ptr<InProcessTransport>>
  CreatePair();

  [[nodiscard]] Status SendBurst(std::span<std::string> frames) override;
  [[nodiscard]] Result<std::string> RecvFrame() override;
  void Close() override;

 private:
  /// One direction of the pair: a frame queue with its own lock, plus the
  /// closed flag that turns blocking receives into end-of-stream.
  struct Channel {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::string> frames;
    bool closed = false;
  };

  InProcessTransport(std::shared_ptr<Channel> in, std::shared_ptr<Channel> out)
      : in_(std::move(in)), out_(std::move(out)) {}

  std::shared_ptr<Channel> in_;
  std::shared_ptr<Channel> out_;
};

/// A connected stream socket speaking the length-prefixed framing.
/// Constructed by SocketListener::Accept on the server side and
/// ConnectUnixSocket on the client side.
class SocketTransport final : public FrameTransport {
 public:
  /// Takes ownership of a connected socket descriptor.
  explicit SocketTransport(int fd) : fd_(fd) {}
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  [[nodiscard]] Status SendBurst(std::span<std::string> frames) override;
  [[nodiscard]] Result<std::string> RecvFrame() override;
  void Close() override;

 private:
  /// The descriptor stays valid (and is only ::close()d) until
  /// destruction; Close() merely shuts the stream down. That split is
  /// what makes cross-thread Close() safe: a session blocked in recv()
  /// wakes on the shutdown without ever touching a reused descriptor.
  const int fd_;
  std::atomic<bool> closed_{false};
};

/// Connects to a costsense-serve Unix-domain socket at `path`.
[[nodiscard]] Result<std::unique_ptr<SocketTransport>> ConnectUnixSocket(
    const std::string& path);

/// A bound, listening Unix-domain server socket.
class SocketListener {
 public:
  ~SocketListener();

  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  /// Binds and listens on `path`, replacing any stale socket file there.
  [[nodiscard]] static Result<std::unique_ptr<SocketListener>> Bind(
      const std::string& path);

  /// Blocks for the next connection. kUnavailable after Close() (the
  /// server's accept loop uses this as its shutdown signal).
  [[nodiscard]] Result<std::unique_ptr<SocketTransport>> Accept();

  /// Stops accepting and unlinks the socket file; a blocked Accept
  /// returns kUnavailable. Idempotent.
  void Close();

  const std::string& path() const { return path_; }

 private:
  SocketListener(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_;
  std::string path_;
};

}  // namespace costsense::serve

#endif  // COSTSENSE_SERVE_TRANSPORT_H_
