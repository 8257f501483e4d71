#ifndef COSTSENSE_SERVE_RECORD_SINK_H_
#define COSTSENSE_SERVE_RECORD_SINK_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "common/status.h"
#include "runtime/sink/sink.h"
#include "serve/protocol.h"
#include "serve/transport.h"

namespace costsense::serve {

/// The serve-side writer of one response stream (protocol.h): the header
/// frame, kRecords frames of up to kRecordsPerFrame records, and the
/// terminal status frame. Each Write() is one logical record.
///
/// Frames leave in bursts (FrameTransport::SendBurst), one wake-up of the
/// client each. The header waits and travels with the first full batch;
/// every full batch leaves as soon as it fills, so a long series keeps
/// streaming; the last partial batch and the status frame leave together.
/// A response of at most kRecordsPerFrame records is therefore a single
/// burst [header, records, status]. The frames and their bytes are the
/// same as sending each frame on its own.
///
/// This is the piece that makes Dispatcher::HandleStreaming a network
/// protocol: the dispatcher writes plain records, this stage wraps them
/// in protocol frames, the transport frames the bytes onto the socket.
/// The transport is borrowed (the session owns its lifecycle, as
/// StdioSink borrows its stream).
class FrameRecordSink final : public runtime::sink::Sink {
 public:
  static constexpr size_t kRecordsPerFrame = 8;

  /// The header frame echoes `request`'s kind, policy and query.
  FrameRecordSink(FrameTransport& transport, const AnalysisRequest& request);

  [[nodiscard]] Status Write(std::string_view record) override;
  /// Sends the header, if still held, and the partial batch.
  [[nodiscard]] Status Flush() override;
  /// Ends the stream with a kOk status frame: Finish(Status::Ok()).
  [[nodiscard]] Status Close() override { return Finish(Status::Ok()); }

  /// Ends the stream: the header if still held, the partial batch and a
  /// status frame carrying `analysis`'s code (and its message when it
  /// failed, which tells the client to discard the records), in one
  /// burst. Like Close, whose general form it is: afterwards Write and
  /// Flush are kFailedPrecondition and a second Finish or Close is a
  /// no-op success. An error is the transport's.
  [[nodiscard]] Status Finish(const Status& analysis);

 private:
  /// Sends the held header and the partial batch, then the status frame
  /// for `terminal` when it is set, in one SendBurst; nothing when
  /// nothing is pending.
  [[nodiscard]] Status SendPending(const Status* terminal);

  FrameTransport& transport_;
  /// The encoded header frame until the first burst takes it; then empty.
  std::string header_;
  /// The records frame being filled: its payload and its record count.
  std::string batch_;
  size_t batched_ = 0;
  bool closed_ = false;
};

}  // namespace costsense::serve

#endif  // COSTSENSE_SERVE_RECORD_SINK_H_
