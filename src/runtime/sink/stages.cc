#include "runtime/sink/stages.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/bytes.h"
#include "runtime/sink/crc32.h"

namespace costsense::runtime::sink {
namespace {

[[nodiscard]] Status ClosedError(const char* stage) {
  return Status::FailedPrecondition(std::string(stage) +
                                    " sink used after Close");
}

}  // namespace

// ---------------------------------------------------------------------------
// StringSink
// ---------------------------------------------------------------------------

Status StringSink::Write(std::string_view span) {
  if (closed_) return ClosedError("string");
  out_->append(span);
  return Status::Ok();
}

Status StringSink::Close() {
  closed_ = true;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// StdioSink
// ---------------------------------------------------------------------------

Status StdioSink::Write(std::string_view span) {
  if (span.empty()) return Status::Ok();
  const size_t written = std::fwrite(span.data(), 1, span.size(), stream_);
  if (written != span.size()) {
    return Status::Internal("short write to stdio stream");
  }
  return Status::Ok();
}

Status StdioSink::Flush() {
  if (std::fflush(stream_) != 0) {
    return Status::Internal(std::string("fflush failed: ") +
                            std::strerror(errno));
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// CrcFrameSink
// ---------------------------------------------------------------------------

Status CrcFrameSink::Write(std::string_view record) {
  std::string frame;
  frame.reserve(8 + record.size());
  PutU32(&frame, static_cast<uint32_t>(record.size()));
  PutU32(&frame, Crc32(record));
  frame.append(record);
  return down_.Write(frame);
}

// ---------------------------------------------------------------------------
// FileSink
// ---------------------------------------------------------------------------

FileSink::~FileSink() {
  if (file_ != nullptr) std::fclose(file_);
}

Status FileSink::EnsureOpen() {
  if (file_ != nullptr) return Status::Ok();
  file_ = std::fopen(path_.c_str(), mode_ == Mode::kAppend ? "ab" : "wb");
  if (file_ == nullptr) {
    return Status::Internal("cannot open " + path_ + ": " +
                            std::strerror(errno));
  }
  return Status::Ok();
}

Status FileSink::Write(std::string_view span) {
  if (closed_) return ClosedError("file");
  Status st = EnsureOpen();
  if (!st.ok()) return st;
  if (span.empty()) return Status::Ok();
  const size_t written = std::fwrite(span.data(), 1, span.size(), file_);
  if (written != span.size()) {
    return Status::Internal("short write to " + path_);
  }
  return Status::Ok();
}

Status FileSink::Flush() {
  if (closed_) return ClosedError("file");
  if (file_ == nullptr) return Status::Ok();  // nothing ever written
  if (std::fflush(file_) != 0) {
    return Status::Internal("fflush(" + path_ + ") failed: " +
                            std::strerror(errno));
  }
  return Status::Ok();
}

Status FileSink::Close() {
  if (closed_) return Status::Ok();
  closed_ = true;
  if (file_ == nullptr) return Status::Ok();
  std::FILE* file = std::exchange(file_, nullptr);
  if (std::fclose(file) != 0) {
    return Status::Internal("fclose(" + path_ + ") failed: " +
                            std::strerror(errno));
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// AtomicFileSink
// ---------------------------------------------------------------------------

AtomicFileSink::~AtomicFileSink() { Abort(); }

Status AtomicFileSink::FailAndClean(const std::string& what, int err) {
  failed_ = true;
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  ::unlink(tmp_.c_str());
  return Status::Internal(what + " failed: " + std::strerror(err));
}

Status AtomicFileSink::EnsureOpen() {
  if (fd_ >= 0) return Status::Ok();
  fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) return FailAndClean("open(" + tmp_ + ")", errno);
  return Status::Ok();
}

Status AtomicFileSink::Write(std::string_view span) {
  if (closed_ || failed_) return ClosedError("atomic file");
  Status st = EnsureOpen();
  if (!st.ok()) return st;
  size_t written = 0;
  while (written < span.size()) {
    const ssize_t n =
        ::write(fd_, span.data() + written, span.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return FailAndClean("write(" + tmp_ + ")", errno);
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status AtomicFileSink::Flush() {
  // Durability is Close's job (fsync before rename). Flushing the staging
  // file early would not change what a crash leaves behind: until the
  // rename, readers only ever see the previous file.
  if (closed_ || failed_) return ClosedError("atomic file");
  return Status::Ok();
}

Status AtomicFileSink::Close() {
  if (closed_) return Status::Ok();
  if (failed_) return ClosedError("atomic file");
  Status st = EnsureOpen();  // an empty close still publishes an empty file
  if (!st.ok()) return st;
  closed_ = true;
  if (::fsync(fd_) != 0) return FailAndClean("fsync(" + tmp_ + ")", errno);
  const int fd = std::exchange(fd_, -1);
  if (::close(fd) != 0) {
    failed_ = true;
    ::unlink(tmp_.c_str());
    return Status::Internal("close(" + tmp_ + ") failed: " +
                            std::strerror(errno));
  }
  if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    failed_ = true;
    ::unlink(tmp_.c_str());
    return Status::Internal("rename to " + path_ + " failed: " +
                            std::strerror(errno));
  }
  return Status::Ok();
}

void AtomicFileSink::Abort() {
  if (closed_) return;
  closed_ = true;
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    ::unlink(tmp_.c_str());
  }
}

}  // namespace costsense::runtime::sink
