#include "serve/protocol.h"

#include <cmath>

#include "common/bytes.h"
#include "common/strings.h"

namespace costsense::serve {
namespace {

[[nodiscard]] Status TakeKind(ByteReader& r, AnalysisKind* out) {
  const uint8_t kind = r.U8();
  if (!r.ok()) return r.status();
  if (kind > static_cast<uint8_t>(AnalysisKind::kGtcSeries)) {
    return Status::InvalidArgument(StrFormat("unknown analysis kind %u", kind));
  }
  *out = static_cast<AnalysisKind>(kind);
  return Status::Ok();
}

[[nodiscard]] Status TakePolicy(ByteReader& r, storage::LayoutPolicy* out) {
  const uint8_t policy = r.U8();
  if (!r.ok()) return r.status();
  if (policy >
      static_cast<uint8_t>(storage::LayoutPolicy::kPerTableColocated)) {
    return Status::InvalidArgument(
        StrFormat("unknown storage layout policy %u", policy));
  }
  *out = static_cast<storage::LayoutPolicy>(policy);
  return Status::Ok();
}

[[nodiscard]] Status TakeQueryNumber(ByteReader& r, uint16_t* out) {
  *out = r.U16();
  if (!r.ok()) return r.status();
  if (*out < 1 || *out > 22) {
    return Status::InvalidArgument(
        StrFormat("query number %u outside TPC-H range 1..22", *out));
  }
  return Status::Ok();
}

}  // namespace

const char* AnalysisKindName(AnalysisKind kind) {
  switch (kind) {
    case AnalysisKind::kDiscovery:
      return "discovery";
    case AnalysisKind::kWorstCase:
      return "worstcase";
    case AnalysisKind::kGtcSeries:
      return "gtcseries";
  }
  return "unknown";
}

std::string EncodeRequest(const AnalysisRequest& request) {
  std::string out;
  out.reserve(16 + 8 * request.deltas.size());
  PutU8(&out, request.version);
  PutU8(&out, static_cast<uint8_t>(request.kind));
  PutU8(&out, static_cast<uint8_t>(request.policy));
  PutU16(&out, request.query_number);
  PutU64(&out, request.deadline_ns);
  PutU16(&out, static_cast<uint16_t>(request.deltas.size()));
  for (double delta : request.deltas) PutF64(&out, delta);
  PutU8(&out, request.box.has_value() ? 1 : 0);
  if (request.box.has_value()) {
    const core::Box& box = *request.box;
    PutU16(&out, static_cast<uint16_t>(box.dims()));
    for (size_t i = 0; i < box.dims(); ++i) PutF64(&out, box.lower()[i]);
    for (size_t i = 0; i < box.dims(); ++i) PutF64(&out, box.upper()[i]);
  }
  return out;
}

Result<AnalysisRequest> DecodeRequest(std::string_view payload) {
  ByteReader r(payload, "frame payload");
  const uint8_t version = r.U8();
  if (!r.ok()) return r.status();
  if (version != kProtocolVersionV2) {
    return Status::InvalidArgument(
        StrFormat("unsupported protocol version %u (this server speaks %u)",
                  version, kProtocolVersionV2));
  }

  AnalysisRequest out;
  out.version = version;
  Status st = TakeKind(r, &out.kind);
  if (!st.ok()) return st;
  st = TakePolicy(r, &out.policy);
  if (!st.ok()) return st;
  st = TakeQueryNumber(r, &out.query_number);
  if (!st.ok()) return st;

  out.deadline_ns = r.U64();
  const uint16_t ndeltas = r.U16();
  if (!r.ok()) return r.status();
  if (ndeltas == 0 || ndeltas > kMaxDeltas) {
    return Status::InvalidArgument(
        StrFormat("delta count %u outside 1..%u", ndeltas, kMaxDeltas));
  }
  out.deltas.clear();
  out.deltas.reserve(ndeltas);
  for (uint16_t i = 0; i < ndeltas; ++i) {
    const double delta = r.F64();
    if (!r.ok()) return r.status();
    if (!std::isfinite(delta) || delta <= 1.0) {
      return Status::InvalidArgument(StrFormat(
          "delta %u is %g; error-band factors must be finite and > 1",
          i, delta));
    }
    out.deltas.push_back(delta);
  }
  const uint8_t has_box = r.U8();
  if (!r.ok()) return r.status();
  if (has_box > 1) {
    return Status::InvalidArgument(
        StrFormat("has-box flag is %u; must be 0 or 1", has_box));
  }
  if (has_box == 1) {
    const uint16_t dims = r.U16();
    if (!r.ok()) return r.status();
    if (dims == 0 || dims > kMaxBoxDims) {
      return Status::InvalidArgument(StrFormat(
          "box dimension count %u outside 1..%u", dims, kMaxBoxDims));
    }
    std::vector<double> lower(dims);
    std::vector<double> upper(dims);
    for (double& v : lower) v = r.F64();
    for (double& v : upper) v = r.F64();
    if (!r.ok()) return r.status();
    // Box::Validated enforces positive, finite, element-wise ordered
    // bounds as a typed error — the wire never reaches the CHECKing
    // constructor.
    Result<core::Box> box =
        core::Box::Validated(core::CostVector(std::move(lower)),
                             core::CostVector(std::move(upper)));
    if (!box.ok()) return box.status();
    out.box = std::move(box).value();
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument(StrFormat(
        "%zu trailing byte(s) after request payload", r.remaining()));
  }
  return out;
}

std::string EncodeResponseFrame(const ResponseFrame& frame) {
  std::string out;
  PutU8(&out, kProtocolVersionV2);
  PutU8(&out, static_cast<uint8_t>(frame.type));
  switch (frame.type) {
    case ResponseFrameType::kHeader:
      PutU8(&out, static_cast<uint8_t>(frame.kind));
      PutU8(&out, static_cast<uint8_t>(frame.policy));
      PutU16(&out, frame.query_number);
      break;
    case ResponseFrameType::kRecords:
      for (const std::string& record : frame.records) {
        AppendResponseRecord(&out, record);
      }
      break;
    case ResponseFrameType::kStatus:
      PutU8(&out, static_cast<uint8_t>(frame.code));
      PutU32(&out, static_cast<uint32_t>(frame.message.size()));
      out += frame.message;
      break;
  }
  return out;
}

void AppendResponseRecord(std::string* payload, std::string_view record) {
  PutU32(payload, static_cast<uint32_t>(record.size()));
  payload->append(record);
}

namespace {

/// The one response-frame parser: fills `out` from `payload` and hands
/// each record of a records frame to `on_record` as a view into
/// `payload`, in order. On an error some records may have been handed
/// over already.
template <typename OnRecord>
[[nodiscard]] Status ParseResponseFrame(std::string_view payload,
                                        ResponseFrame* out,
                                        OnRecord on_record) {
  ByteReader r(payload, "frame payload");
  const uint8_t version = r.U8();
  if (!r.ok()) return r.status();
  if (version != kProtocolVersionV2) {
    return Status::InvalidArgument(StrFormat(
        "response frame version %u; the frame stream is version %u only",
        version, kProtocolVersionV2));
  }

  const uint8_t type = r.U8();
  if (!r.ok()) return r.status();
  if (type > static_cast<uint8_t>(ResponseFrameType::kStatus)) {
    return Status::InvalidArgument(
        StrFormat("unknown response frame type %u", type));
  }
  out->type = static_cast<ResponseFrameType>(type);

  switch (out->type) {
    case ResponseFrameType::kHeader: {
      Status st = TakeKind(r, &out->kind);
      if (!st.ok()) return st;
      st = TakePolicy(r, &out->policy);
      if (!st.ok()) return st;
      st = TakeQueryNumber(r, &out->query_number);
      if (!st.ok()) return st;
      break;
    }
    case ResponseFrameType::kRecords: {
      while (r.remaining() > 0) {
        const uint32_t len = r.U32();
        if (!r.ok()) return r.status();
        if (len > r.remaining()) {
          return Status::InvalidArgument(StrFormat(
              "record length %u exceeds %zu frame byte(s) remaining", len,
              r.remaining()));
        }
        on_record(r.Bytes(len));
      }
      break;
    }
    case ResponseFrameType::kStatus: {
      const uint8_t code = r.U8();
      if (!r.ok()) return r.status();
      if (code > static_cast<uint8_t>(StatusCode::kDeadlineExceeded)) {
        return Status::InvalidArgument(
            StrFormat("unknown status code %u", code));
      }
      out->code = static_cast<StatusCode>(code);
      const uint32_t len = r.U32();
      if (!r.ok()) return r.status();
      if (len != r.remaining()) {
        return Status::InvalidArgument(StrFormat(
            "status message length %u disagrees with %zu frame byte(s) "
            "remaining",
            len, r.remaining()));
      }
      out->message = std::string(r.Bytes(len));
      break;
    }
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument(StrFormat(
        "%zu trailing byte(s) after response frame", r.remaining()));
  }
  return Status::Ok();
}

}  // namespace

Result<ResponseFrame> DecodeResponseFrame(std::string_view payload) {
  ResponseFrame out;
  const Status st = ParseResponseFrame(
      payload, &out,
      [&out](std::string_view record) { out.records.emplace_back(record); });
  if (!st.ok()) return st;
  return out;
}

Status ResponseReassembler::Feed(std::string_view payload) {
  if (state_ == State::kDone) {
    return Status::InvalidArgument(
        "response frame after the terminal status frame");
  }
  // Records go straight from the payload onto the body, and only once
  // the header has arrived; a frame that fails to parse takes back what
  // it appended.
  const size_t kept = records_.size();
  ResponseFrame frame;
  const Status parsed =
      ParseResponseFrame(payload, &frame, [this](std::string_view record) {
        if (state_ == State::kStreaming) records_.append(record);
      });
  if (!parsed.ok()) {
    records_.resize(kept);
    return parsed;
  }

  switch (frame.type) {
    case ResponseFrameType::kHeader: {
      if (state_ != State::kExpectHeader) {
        return Status::InvalidArgument("duplicate response header frame");
      }
      has_header_ = true;
      kind_ = frame.kind;
      policy_ = frame.policy;
      query_number_ = frame.query_number;
      state_ = State::kStreaming;
      return Status::Ok();
    }
    case ResponseFrameType::kRecords: {
      if (state_ != State::kStreaming) {
        return Status::InvalidArgument(
            "record frame before the response header frame");
      }
      return Status::Ok();
    }
    case ResponseFrameType::kStatus: {
      // Header-first has one exception: an error status may arrive alone
      // when the request was rejected before any analysis began.
      if (state_ == State::kExpectHeader && frame.code == StatusCode::kOk) {
        return Status::InvalidArgument(
            "OK status frame before the response header frame");
      }
      response_.code = frame.code;
      response_.body = frame.code == StatusCode::kOk
                           ? std::move(records_)
                           : std::move(frame.message);
      state_ = State::kDone;
      return Status::Ok();
    }
  }
  return Status::Internal("unreachable response frame type");
}

}  // namespace costsense::serve
