#include "serve/protocol.h"

#include <cmath>
#include <cstring>

#include "common/strings.h"

namespace costsense::serve {
namespace {

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v >> 8));
  out->push_back(static_cast<char>(v & 0xff));
}

void PutU32(std::string* out, uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void PutF64(std::string* out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

/// Bounds-checked big-endian reader over a frame payload. Every Take*
/// reports truncation as a typed error instead of reading past the end.
class Reader {
 public:
  explicit Reader(std::string_view payload) : rest_(payload) {}

  size_t remaining() const { return rest_.size(); }

  [[nodiscard]] Status TakeU8(uint8_t* out) {
    if (rest_.size() < 1) return Truncated("u8");
    *out = static_cast<uint8_t>(rest_[0]);
    rest_.remove_prefix(1);
    return Status::Ok();
  }

  [[nodiscard]] Status TakeU16(uint16_t* out) {
    if (rest_.size() < 2) return Truncated("u16");
    *out = static_cast<uint16_t>(
        (static_cast<uint16_t>(static_cast<uint8_t>(rest_[0])) << 8) |
        static_cast<uint16_t>(static_cast<uint8_t>(rest_[1])));
    rest_.remove_prefix(2);
    return Status::Ok();
  }

  [[nodiscard]] Status TakeU32(uint32_t* out) {
    if (rest_.size() < 4) return Truncated("u32");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v = (v << 8) | static_cast<uint8_t>(rest_[static_cast<size_t>(i)]);
    }
    *out = v;
    rest_.remove_prefix(4);
    return Status::Ok();
  }

  [[nodiscard]] Status TakeU64(uint64_t* out) {
    if (rest_.size() < 8) return Truncated("u64");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v = (v << 8) | static_cast<uint8_t>(rest_[static_cast<size_t>(i)]);
    }
    *out = v;
    rest_.remove_prefix(8);
    return Status::Ok();
  }

  [[nodiscard]] Status TakeF64(double* out) {
    uint64_t bits = 0;
    Status st = TakeU64(&bits);
    if (!st.ok()) return st;
    std::memcpy(out, &bits, sizeof(bits));
    return Status::Ok();
  }

  [[nodiscard]] Status TakeBytes(size_t n, std::string* out) {
    if (rest_.size() < n) return Truncated("byte block");
    out->assign(rest_.data(), n);
    rest_.remove_prefix(n);
    return Status::Ok();
  }

 private:
  [[nodiscard]] Status Truncated(const char* what) const {
    return Status::InvalidArgument(
        StrFormat("truncated frame payload: expected %s with %zu byte(s) "
                  "remaining",
                  what, rest_.size()));
  }

  std::string_view rest_;
};

[[nodiscard]] Status TakeKind(Reader& r, AnalysisKind* out) {
  uint8_t kind = 0;
  Status st = r.TakeU8(&kind);
  if (!st.ok()) return st;
  if (kind > static_cast<uint8_t>(AnalysisKind::kGtcSeries)) {
    return Status::InvalidArgument(StrFormat("unknown analysis kind %u", kind));
  }
  *out = static_cast<AnalysisKind>(kind);
  return Status::Ok();
}

[[nodiscard]] Status TakePolicy(Reader& r, storage::LayoutPolicy* out) {
  uint8_t policy = 0;
  Status st = r.TakeU8(&policy);
  if (!st.ok()) return st;
  if (policy >
      static_cast<uint8_t>(storage::LayoutPolicy::kPerTableColocated)) {
    return Status::InvalidArgument(
        StrFormat("unknown storage layout policy %u", policy));
  }
  *out = static_cast<storage::LayoutPolicy>(policy);
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
  Reader r(payload);
  uint8_t version = 0;
  Status st = r.TakeU8(&version);
  if (!st.ok()) return st;
  if (version != kProtocolVersionV2) {
    return Status::InvalidArgument(
        StrFormat("unsupported protocol version %u (this server speaks %u)",
                  version, kProtocolVersionV2));
  }

  AnalysisRequest out;
  out.version = version;
  st = TakeKind(r, &out.kind);
  if (!st.ok()) return st;

  st = TakePolicy(r, &out.policy);
  if (!st.ok()) return st;

  st = r.TakeU16(&out.query_number);
  if (!st.ok()) return st;
  if (out.query_number < 1 || out.query_number > 22) {
    return Status::InvalidArgument(
        StrFormat("query number %u outside TPC-H range 1..22",
                  out.query_number));
  }

  st = r.TakeU64(&out.deadline_ns);
  if (!st.ok()) return st;

  uint16_t ndeltas = 0;
  st = r.TakeU16(&ndeltas);
  if (!st.ok()) return st;
  if (ndeltas == 0 || ndeltas > kMaxDeltas) {
    return Status::InvalidArgument(
        StrFormat("delta count %u outside 1..%u", ndeltas, kMaxDeltas));
  }
  out.deltas.clear();
  out.deltas.reserve(ndeltas);
  for (uint16_t i = 0; i < ndeltas; ++i) {
    double delta = 0.0;
    st = r.TakeF64(&delta);
    if (!st.ok()) return st;
    if (!std::isfinite(delta) || delta <= 1.0) {
      return Status::InvalidArgument(StrFormat(
          "delta %u is %g; error-band factors must be finite and > 1",
          i, delta));
    }
    out.deltas.push_back(delta);
  }
  uint8_t has_box = 0;
  st = r.TakeU8(&has_box);
  if (!st.ok()) return st;
  if (has_box > 1) {
    return Status::InvalidArgument(
        StrFormat("has-box flag is %u; must be 0 or 1", has_box));
  }
  if (has_box == 1) {
    uint16_t dims = 0;
    st = r.TakeU16(&dims);
    if (!st.ok()) return st;
    if (dims == 0 || dims > kMaxBoxDims) {
      return Status::InvalidArgument(StrFormat(
          "box dimension count %u outside 1..%u", dims, kMaxBoxDims));
    }
    std::vector<double> lower(dims);
    std::vector<double> upper(dims);
    for (uint16_t i = 0; i < dims; ++i) {
      st = r.TakeF64(&lower[i]);
      if (!st.ok()) return st;
    }
    for (uint16_t i = 0; i < dims; ++i) {
      st = r.TakeF64(&upper[i]);
      if (!st.ok()) return st;
    }
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
        PutU32(&out, static_cast<uint32_t>(record.size()));
        out += record;
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

Result<ResponseFrame> DecodeResponseFrame(std::string_view payload) {
  Reader r(payload);
  uint8_t version = 0;
  Status st = r.TakeU8(&version);
  if (!st.ok()) return st;
  if (version != kProtocolVersionV2) {
    return Status::InvalidArgument(StrFormat(
        "response frame version %u; the frame stream is version %u only",
        version, kProtocolVersionV2));
  }

  ResponseFrame out;
  uint8_t type = 0;
  st = r.TakeU8(&type);
  if (!st.ok()) return st;
  if (type > static_cast<uint8_t>(ResponseFrameType::kStatus)) {
    return Status::InvalidArgument(
        StrFormat("unknown response frame type %u", type));
  }
  out.type = static_cast<ResponseFrameType>(type);

  switch (out.type) {
    case ResponseFrameType::kHeader: {
      st = TakeKind(r, &out.kind);
      if (!st.ok()) return st;
      st = TakePolicy(r, &out.policy);
      if (!st.ok()) return st;
      st = r.TakeU16(&out.query_number);
      if (!st.ok()) return st;
      if (out.query_number < 1 || out.query_number > 22) {
        return Status::InvalidArgument(
            StrFormat("query number %u outside TPC-H range 1..22",
                      out.query_number));
      }
      break;
    }
    case ResponseFrameType::kRecords: {
      while (r.remaining() > 0) {
        uint32_t len = 0;
        st = r.TakeU32(&len);
        if (!st.ok()) return st;
        if (len > r.remaining()) {
          return Status::InvalidArgument(StrFormat(
              "record length %u exceeds %zu frame byte(s) remaining", len,
              r.remaining()));
        }
        std::string record;
        st = r.TakeBytes(len, &record);
        if (!st.ok()) return st;
        out.records.push_back(std::move(record));
      }
      break;
    }
    case ResponseFrameType::kStatus: {
      uint8_t code = 0;
      st = r.TakeU8(&code);
      if (!st.ok()) return st;
      if (code > static_cast<uint8_t>(StatusCode::kDeadlineExceeded)) {
        return Status::InvalidArgument(
            StrFormat("unknown status code %u", code));
      }
      out.code = static_cast<StatusCode>(code);
      uint32_t len = 0;
      st = r.TakeU32(&len);
      if (!st.ok()) return st;
      if (len != r.remaining()) {
        return Status::InvalidArgument(StrFormat(
            "status message length %u disagrees with %zu frame byte(s) "
            "remaining",
            len, r.remaining()));
      }
      st = r.TakeBytes(len, &out.message);
      if (!st.ok()) return st;
      break;
    }
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument(StrFormat(
        "%zu trailing byte(s) after response frame", r.remaining()));
  }
  return out;
}

Status ResponseReassembler::Feed(std::string_view payload) {
  if (state_ == State::kDone) {
    return Status::InvalidArgument(
        "response frame after the terminal status frame");
  }
  Result<ResponseFrame> frame = DecodeResponseFrame(payload);
  if (!frame.ok()) return frame.status();

  switch (frame->type) {
    case ResponseFrameType::kHeader: {
      if (state_ != State::kExpectHeader) {
        return Status::InvalidArgument("duplicate response header frame");
      }
      has_header_ = true;
      kind_ = frame->kind;
      policy_ = frame->policy;
      query_number_ = frame->query_number;
      state_ = State::kStreaming;
      return Status::Ok();
    }
    case ResponseFrameType::kRecords: {
      if (state_ != State::kStreaming) {
        return Status::InvalidArgument(
            "record frame before the response header frame");
      }
      for (const std::string& record : frame->records) records_ += record;
      return Status::Ok();
    }
    case ResponseFrameType::kStatus: {
      // Header-first has one exception: an error status may arrive alone
      // when the request was rejected before any analysis began.
      if (state_ == State::kExpectHeader && frame->code == StatusCode::kOk) {
        return Status::InvalidArgument(
            "OK status frame before the response header frame");
      }
      response_.code = frame->code;
      response_.body = frame->code == StatusCode::kOk
                           ? std::move(records_)
                           : std::move(frame->message);
      state_ = State::kDone;
      return Status::Ok();
    }
  }
  return Status::Internal("unreachable response frame type");
}

}  // namespace costsense::serve
