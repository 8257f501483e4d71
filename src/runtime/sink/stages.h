#ifndef COSTSENSE_RUNTIME_SINK_STAGES_H_
#define COSTSENSE_RUNTIME_SINK_STAGES_H_

#include <cstdio>
#include <string>
#include <string_view>

#include "common/status.h"
#include "runtime/sink/sink.h"

namespace costsense::runtime::sink {

/// Terminal stage: appends every span to a caller-owned string. The
/// in-memory leaf the tests and Dispatcher::Handle use — a chain ending in
/// a StringSink proves byte-identity against any other chain ending in a
/// file or socket.
class StringSink final : public Sink {
 public:
  /// `out` must outlive the sink.
  explicit StringSink(std::string* out) : out_(out) {}

  [[nodiscard]] Status Write(std::string_view span) override;
  [[nodiscard]] Status Flush() override { return Status::Ok(); }
  [[nodiscard]] Status Close() override;

 private:
  std::string* out_;
  bool closed_ = false;
};

/// Terminal stage over an existing stdio stream (stdout, stderr). The
/// stream is borrowed, never fclosed: Close only flushes, so the figure
/// drivers can route their byte-compared stdout through a chain without
/// surrendering the process's stream.
class StdioSink final : public Sink {
 public:
  explicit StdioSink(std::FILE* stream) : stream_(stream) {}

  [[nodiscard]] Status Write(std::string_view span) override;
  [[nodiscard]] Status Flush() override;
  [[nodiscard]] Status Close() override { return Flush(); }

 private:
  std::FILE* stream_;
};

/// Record framing: each Write() becomes one downstream record
///
///   u32 body length (big-endian) | u32 CRC32(body) | body bytes
///
/// — exactly the cache-store snapshot record layout, so the snapshot
/// writer is this stage over an atomic file instead of bespoke code.
class CrcFrameSink final : public Sink {
 public:
  explicit CrcFrameSink(Sink& down) : down_(down) {}

  [[nodiscard]] Status Write(std::string_view record) override;
  [[nodiscard]] Status Flush() override { return down_.Flush(); }
  [[nodiscard]] Status Close() override { return down_.Close(); }

 private:
  Sink& down_;
};

/// Terminal file stage. The file opens lazily on the first Write (a chain
/// that never writes never touches the disk) and closes on Close. Append
/// mode is what the sidecar writers use so batch runs accumulate.
class FileSink final : public Sink {
 public:
  enum class Mode { kAppend, kTruncate };

  explicit FileSink(std::string path, Mode mode = Mode::kAppend)
      : path_(std::move(path)), mode_(mode) {}
  ~FileSink() override;

  [[nodiscard]] Status Write(std::string_view span) override;
  [[nodiscard]] Status Flush() override;
  [[nodiscard]] Status Close() override;

 private:
  [[nodiscard]] Status EnsureOpen();

  const std::string path_;
  const Mode mode_;
  std::FILE* file_ = nullptr;
  bool closed_ = false;
};

/// Crash-safe terminal file stage: writes stream into `<path>.tmp`; Close
/// fsyncs, closes and renames over `path`. A crash (or Abort) at any
/// point leaves either the previous file or a complete new one at
/// `path`, never a torn write — the cache-store durability contract as a
/// reusable stage. Any I/O failure unlinks the staging file and reports a
/// typed error; the sink is then unusable.
class AtomicFileSink final : public Sink {
 public:
  explicit AtomicFileSink(std::string path)
      : path_(std::move(path)), tmp_(path_ + ".tmp") {}
  ~AtomicFileSink() override;

  [[nodiscard]] Status Write(std::string_view span) override;
  [[nodiscard]] Status Flush() override;
  /// Publishes the staged bytes: fsync + close + rename onto path().
  [[nodiscard]] Status Close() override;

  /// Discards the staged bytes (unlinks the tmp file); the previous file
  /// at path() survives untouched. Idempotent; also runs from the
  /// destructor when the sink was never Closed.
  void Abort();

  const std::string& path() const { return path_; }

 private:
  [[nodiscard]] Status EnsureOpen();
  [[nodiscard]] Status FailAndClean(const std::string& what, int err);

  const std::string path_;
  const std::string tmp_;
  int fd_ = -1;
  bool closed_ = false;
  bool failed_ = false;
};

}  // namespace costsense::runtime::sink

#endif  // COSTSENSE_RUNTIME_SINK_STAGES_H_
