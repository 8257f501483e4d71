#ifndef COSTSENSE_SERVE_RECORD_SINK_H_
#define COSTSENSE_SERVE_RECORD_SINK_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "runtime/sink/sink.h"
#include "serve/protocol.h"
#include "serve/transport.h"

namespace costsense::serve {

/// The serve-side record stage of a response stream: each Write() is one
/// logical record, batched into kRecords frames of up to
/// `records_per_frame` records and sent through the transport. Flush()
/// sends the partial batch; Close() flushes (the transport is borrowed —
/// the session owns its lifecycle, as StdioSink borrows its stream).
///
/// This is the piece that makes Dispatcher::HandleStreaming a network
/// protocol: the dispatcher writes plain records, this stage wraps them
/// in protocol frames, the transport frames the bytes onto the socket.
class FrameRecordSink final : public runtime::sink::Sink {
 public:
  explicit FrameRecordSink(FrameTransport& transport,
                           size_t records_per_frame = 8)
      : transport_(transport),
        records_per_frame_(records_per_frame == 0 ? 1 : records_per_frame) {
    pending_.type = ResponseFrameType::kRecords;
  }

  [[nodiscard]] Status Write(std::string_view record) override;
  [[nodiscard]] Status Flush() override;
  [[nodiscard]] Status Close() override { return Flush(); }

  /// Records accepted so far (sent or still batched).
  uint64_t records() const { return records_; }
  /// kRecords frames actually sent.
  uint64_t frames() const { return frames_; }

 private:
  FrameTransport& transport_;
  const size_t records_per_frame_;
  ResponseFrame pending_;
  uint64_t records_ = 0;
  uint64_t frames_ = 0;
};

}  // namespace costsense::serve

#endif  // COSTSENSE_SERVE_RECORD_SINK_H_
