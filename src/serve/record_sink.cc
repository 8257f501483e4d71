#include "serve/record_sink.h"

#include <array>
#include <span>
#include <utility>

namespace costsense::serve {
namespace {

/// The payload of a records frame holding no records yet.
std::string EmptyRecordsFrame() {
  ResponseFrame frame;
  frame.type = ResponseFrameType::kRecords;
  return EncodeResponseFrame(frame);
}

[[nodiscard]] Status ClosedError() {
  return Status::FailedPrecondition("response stream already closed");
}

}  // namespace

FrameRecordSink::FrameRecordSink(FrameTransport& transport,
                                 const AnalysisRequest& request)
    : transport_(transport), batch_(EmptyRecordsFrame()) {
  ResponseFrame header;
  header.type = ResponseFrameType::kHeader;
  header.kind = request.kind;
  header.policy = request.policy;
  header.query_number = request.query_number;
  header_ = EncodeResponseFrame(header);
}

Status FrameRecordSink::Write(std::string_view record) {
  if (closed_) return ClosedError();
  AppendResponseRecord(&batch_, record);
  if (++batched_ < kRecordsPerFrame) return Status::Ok();
  return SendPending(nullptr);
}

Status FrameRecordSink::Flush() {
  if (closed_) return ClosedError();
  return SendPending(nullptr);
}

Status FrameRecordSink::Finish(const Status& analysis) {
  if (closed_) return Status::Ok();
  closed_ = true;
  return SendPending(&analysis);
}

Status FrameRecordSink::SendPending(const Status* terminal) {
  std::array<std::string, 3> burst;  // header, records, status
  size_t n = 0;
  if (!header_.empty()) burst[n++] = std::exchange(header_, std::string());
  if (batched_ > 0) {
    burst[n++] = std::exchange(batch_, EmptyRecordsFrame());
    batched_ = 0;
  }
  if (terminal != nullptr) {
    ResponseFrame status;
    status.type = ResponseFrameType::kStatus;
    status.code = terminal->code();
    if (!terminal->ok()) status.message = terminal->message();
    burst[n++] = EncodeResponseFrame(status);
  }
  if (n == 0) return Status::Ok();
  return transport_.SendBurst(std::span<std::string>(burst.data(), n));
}

}  // namespace costsense::serve
