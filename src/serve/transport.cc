#include "serve/transport.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/bytes.h"
#include "common/strings.h"

namespace costsense::serve {
namespace {

[[nodiscard]] Status CheckFrameSize(size_t length) {
  if (length > kMaxFrameBytes) {
    return Status::InvalidArgument(
        StrFormat("frame of %zu bytes exceeds the %u-byte protocol limit",
                  length, kMaxFrameBytes));
  }
  return Status::Ok();
}

/// CheckFrameSize over every frame of a burst, so a burst is refused
/// before any of it is sent.
[[nodiscard]] Status CheckFrameSizes(std::span<const std::string> frames) {
  for (const std::string& frame : frames) {
    Status st = CheckFrameSize(frame.size());
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

/// Writes all of `data`, retrying on EINTR and short writes. MSG_NOSIGNAL
/// turns a closed peer into EPIPE instead of a process-killing SIGPIPE.
[[nodiscard]] Status SendAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(
          StrFormat("socket send failed: %s", std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

/// Reads exactly `size` bytes. `*eof` is set when the peer closed before
/// the first byte — a clean end of stream, not an error.
[[nodiscard]] Status RecvAll(int fd, char* data, size_t size, bool* eof) {
  *eof = false;
  size_t got = 0;
  while (got < size) {
    ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(
          StrFormat("socket recv failed: %s", std::strerror(errno)));
    }
    if (n == 0) {
      if (got == 0) {
        *eof = true;
        return Status::Ok();
      }
      return Status::InvalidArgument(StrFormat(
          "peer closed mid-frame: got %zu of %zu byte(s)", got, size));
    }
    got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

std::pair<std::unique_ptr<InProcessTransport>,
          std::unique_ptr<InProcessTransport>>
InProcessTransport::CreatePair() {
  auto a_to_b = std::make_shared<Channel>();
  auto b_to_a = std::make_shared<Channel>();
  auto client = std::unique_ptr<InProcessTransport>(
      new InProcessTransport(b_to_a, a_to_b));
  auto server = std::unique_ptr<InProcessTransport>(
      new InProcessTransport(a_to_b, b_to_a));
  return {std::move(client), std::move(server)};
}

Status InProcessTransport::SendBurst(std::span<std::string> frames) {
  Status st = CheckFrameSizes(frames);
  if (!st.ok()) return st;
  {
    std::lock_guard<std::mutex> lock(out_->mu);
    if (out_->closed) {
      return Status::Unavailable("transport closed; frame not sent");
    }
    for (std::string& frame : frames) {
      out_->frames.push_back(std::move(frame));
    }
  }
  out_->cv.notify_one();
  return Status::Ok();
}

Result<std::string> InProcessTransport::RecvFrame() {
  std::unique_lock<std::mutex> lock(in_->mu);
  in_->cv.wait(lock, [this] { return !in_->frames.empty() || in_->closed; });
  if (in_->frames.empty()) {
    return Status::NotFound("end of stream");
  }
  std::string frame = std::move(in_->frames.front());
  in_->frames.pop_front();
  return frame;
}

void InProcessTransport::Close() {
  for (const auto& channel : {in_, out_}) {
    {
      std::lock_guard<std::mutex> lock(channel->mu);
      channel->closed = true;
    }
    channel->cv.notify_all();
  }
}

SocketTransport::~SocketTransport() {
  Close();
  if (fd_ >= 0) ::close(fd_);
}

Status SocketTransport::SendBurst(std::span<std::string> frames) {
  Status st = CheckFrameSizes(frames);
  if (!st.ok()) return st;
  if (closed_.load(std::memory_order_acquire)) {
    return Status::Unavailable("transport closed; frame not sent");
  }
  size_t total = 0;
  for (const std::string& frame : frames) total += 4 + frame.size();
  std::string wire;
  wire.reserve(total);
  for (const std::string& frame : frames) {
    PutU32(&wire, static_cast<uint32_t>(frame.size()));
    wire += frame;
  }
  return SendAll(fd_, wire.data(), wire.size());
}

Result<std::string> SocketTransport::RecvFrame() {
  if (closed_.load(std::memory_order_acquire)) {
    return Status::NotFound("end of stream");
  }
  char prefix[4];
  bool eof = false;
  Status st = RecvAll(fd_, prefix, sizeof(prefix), &eof);
  if (!st.ok()) return st;
  if (eof) return Status::NotFound("end of stream");
  const uint32_t length =
      ByteReader(std::string_view(prefix, sizeof(prefix))).U32();
  st = CheckFrameSize(length);
  if (!st.ok()) return st;
  std::string payload(length, '\0');
  if (length > 0) {
    st = RecvAll(fd_, payload.data(), payload.size(), &eof);
    if (!st.ok()) return st;
    if (eof) {
      return Status::InvalidArgument(
          "peer closed between frame prefix and payload");
    }
  }
  return payload;
}

void SocketTransport::Close() {
  // First closer shuts the stream down; the descriptor itself lives until
  // destruction. A thread blocked in recv() wakes with end-of-stream, and
  // no thread can race against descriptor reuse.
  if (fd_ >= 0 && !closed_.exchange(true, std::memory_order_acq_rel)) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

Result<std::unique_ptr<SocketTransport>> ConnectUnixSocket(
    const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument(StrFormat(
        "socket path '%s' exceeds the %zu-byte sockaddr_un limit",
        path.c_str(), sizeof(addr.sun_path) - 1));
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Unavailable(
        StrFormat("socket() failed: %s", std::strerror(errno)));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    Status st = Status::Unavailable(StrFormat(
        "connect to '%s' failed: %s", path.c_str(), std::strerror(errno)));
    ::close(fd);
    return st;
  }
  return std::make_unique<SocketTransport>(fd);
}

SocketListener::~SocketListener() { Close(); }

Result<std::unique_ptr<SocketListener>> SocketListener::Bind(
    const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument(StrFormat(
        "socket path '%s' exceeds the %zu-byte sockaddr_un limit",
        path.c_str(), sizeof(addr.sun_path) - 1));
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Unavailable(
        StrFormat("socket() failed: %s", std::strerror(errno)));
  }
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status st = Status::Unavailable(StrFormat(
        "bind to '%s' failed: %s", path.c_str(), std::strerror(errno)));
    ::close(fd);
    return st;
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    Status st = Status::Unavailable(StrFormat(
        "listen on '%s' failed: %s", path.c_str(), std::strerror(errno)));
    ::close(fd);
    ::unlink(path.c_str());
    return st;
  }
  return std::unique_ptr<SocketListener>(new SocketListener(fd, path));
}

Result<std::unique_ptr<SocketTransport>> SocketListener::Accept() {
  if (fd_ < 0) return Status::Unavailable("listener closed");
  for (;;) {
    int conn = ::accept(fd_, nullptr, nullptr);
    if (conn >= 0) return std::make_unique<SocketTransport>(conn);
    if (errno == EINTR) continue;
    // Close() shuts the listening socket down; accept then fails with
    // EINVAL (or EBADF on some kernels), which is the shutdown signal.
    return Status::Unavailable(
        StrFormat("accept failed: %s", std::strerror(errno)));
  }
}

void SocketListener::Close() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
    ::unlink(path_.c_str());
  }
}

}  // namespace costsense::serve
