#ifndef COSTSENSE_SERVE_PROTOCOL_H_
#define COSTSENSE_SERVE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/feasible_region.h"
#include "storage/layout.h"

namespace costsense::serve {

/// costsense-serve wire protocol (version 2, the only one spoken).
///
/// A connection carries length-prefixed frames in both directions:
///
///   [u32 big-endian payload length][payload bytes]
///
/// and strictly alternates a request with its response stream (one
/// outstanding request per session; clients that want concurrency open
/// more sessions, which is also what keeps per-session state trivial —
/// the MariaDB-style split between session state and shared caches). Every multi-byte
/// integer is big-endian; doubles travel as the big-endian bytes of their
/// IEEE-754 representation, so a payload is bit-reproducible across hosts.
///
/// Request payload:
///
///   u8  version (kProtocolVersionV2; anything else is kInvalidArgument)
///   u8  analysis kind (AnalysisKind)
///   u8  storage layout policy (storage::LayoutPolicy)
///   u16 TPC-H query number (1..22)
///   u64 per-request deadline in nanoseconds (0 = server default). It
///       bounds the request's oracle probes: a request whose box the
///       server discovered before runs none, so its deadline cannot
///       expire (DESIGN.md §5f, "The discovery memo").
///   u16 delta count (>= 1, <= kMaxDeltas)
///   f64 x count: multiplicative error-band factors defining the feasible
///       cost box(es) around the layout's baseline costs. kDiscovery and
///       kWorstCase read deltas[0]; kGtcSeries evaluates every delta
///       against the plan set discovered at the widest one.
///   u8  has-box flag (0 or 1)
///   [when 1]
///   u16 dims (1..kMaxBoxDims)
///   f64 x dims: per-parameter lower bounds
///   f64 x dims: per-parameter upper bounds
///
/// The bounds are validated at decode time with core::Box::Validated
/// (positive, finite, element-wise lower <= upper); a malformed box is a
/// typed kInvalidArgument, never a crash. When present, the box replaces
/// the multiplicative band for discovery and for the worst-case LP; the
/// deltas still drive the per-delta bands of a kGtcSeries curve.
///
/// The response is a frame stream (see ResponseFrameType).
inline constexpr uint8_t kProtocolVersionV2 = 2;

/// The stamp on the first line of every rendered analysis body
/// ("costsense-serve v1 ..."). It is a body-format version, not a wire
/// version: bodies keep it so they stay byte-identical across releases.
inline constexpr uint8_t kProtocolVersion = 1;

/// Cap on the dimension count of an explicit feasible-region box
/// (matches the 64-dim bound the vertex sweeps can address).
inline constexpr uint16_t kMaxBoxDims = 64;

/// Frames above this size are rejected as malformed rather than trusted
/// to allocate (a corrupted length prefix must not look like a 4 GiB
/// request).
inline constexpr uint32_t kMaxFrameBytes = 1u << 20;

/// Cap on deltas per request (a series request is bounded work).
inline constexpr uint16_t kMaxDeltas = 64;

/// What the client wants computed for (query, box).
enum class AnalysisKind : uint8_t {
  /// Candidate-optimal plan discovery over the box: initial plan at the
  /// baseline costs plus every plan the oracle picks somewhere feasible.
  kDiscovery = 0,
  /// Worst-case global relative cost of the initial plan over the box
  /// (the paper's GTC at one delta).
  kWorstCase = 1,
  /// The full GTC-vs-delta curve (paper Figures 5-7, one query).
  kGtcSeries = 2,
};

/// Returns a short stable name for `kind` ("discovery", ...).
const char* AnalysisKindName(AnalysisKind kind);

/// One analysis request. `deltas` defines the feasible-region box(es) as
/// multiplicative error bands around the layout baseline; a request may
/// carry an explicit box instead.
struct AnalysisRequest {
  /// Wire version byte EncodeRequest emits (and DecodeRequest saw). Only
  /// kProtocolVersionV2 decodes; any other value encodes a request the
  /// server refuses.
  uint8_t version = kProtocolVersionV2;
  AnalysisKind kind = AnalysisKind::kDiscovery;
  storage::LayoutPolicy policy = storage::LayoutPolicy::kSharedDevice;
  uint16_t query_number = 1;
  uint64_t deadline_ns = 0;
  std::vector<double> deltas = {100.0};
  /// Explicit feasible-region box; validated at decode. When
  /// set, it replaces the multiplicative band for discovery and the
  /// worst-case LP, and its dimension count must match the query's
  /// resource space (checked at dispatch).
  std::optional<core::Box> box;
};

/// One analysis response: a typed status code plus the payload text (the
/// deterministic analysis rendering on success, the error message
/// otherwise).
struct AnalysisResponse {
  StatusCode code = StatusCode::kOk;
  std::string body;

  bool ok() const { return code == StatusCode::kOk; }
};

/// Serializes `request` into a frame payload (no length prefix; the
/// transport owns framing).
std::string EncodeRequest(const AnalysisRequest& request);

/// Parses a frame payload into a request. kInvalidArgument on truncated
/// payloads, any version byte other than kProtocolVersionV2, unknown
/// kinds/policies, out-of-range query numbers, non-finite / non-positive
/// deltas, or a malformed box section.
[[nodiscard]] Result<AnalysisRequest> DecodeRequest(std::string_view payload);

// ---------------------------------------------------------------------------
// Response frame stream
// ---------------------------------------------------------------------------

/// A response is a stream of transport frames, each carrying one of
/// three payload types:
///
///   header   u8 ver=2 | u8 type=0 | u8 kind | u8 policy | u16 query
///   records  u8 ver=2 | u8 type=1 | repeated (u32 length | body bytes)
///   status   u8 ver=2 | u8 type=2 | u8 code | u32 length | message bytes
///
/// The stream is header-first, then zero or more record frames, then
/// exactly one terminal status frame. On kOk the concatenated record
/// bodies equal Dispatcher::Handle's body byte for byte; on any other code
/// the records are discarded and the message is the error text. As the
/// one exception to header-first, an error status frame may arrive alone
/// (a request rejected before analysis has no header to send).
enum class ResponseFrameType : uint8_t {
  kHeader = 0,
  kRecords = 1,
  kStatus = 2,
};

/// One decoded response frame; which fields are meaningful depends on `type`.
struct ResponseFrame {
  ResponseFrameType type = ResponseFrameType::kHeader;
  // kHeader
  AnalysisKind kind = AnalysisKind::kDiscovery;
  storage::LayoutPolicy policy = storage::LayoutPolicy::kSharedDevice;
  uint16_t query_number = 1;
  // kRecords
  std::vector<std::string> records;
  // kStatus
  StatusCode code = StatusCode::kOk;
  std::string message;
};

/// Serializes one response frame into a transport payload.
std::string EncodeResponseFrame(const ResponseFrame& frame);

/// Appends `record` to `payload`, a records-frame payload begun by
/// EncodeResponseFrame: the record-at-a-time form of listing it in
/// ResponseFrame::records, byte for byte.
void AppendResponseRecord(std::string* payload, std::string_view record);

/// Parses one response frame payload. kInvalidArgument on truncation, unknown
/// frame types, record lengths that disagree with the payload, or a
/// status length that lies about the remaining bytes.
[[nodiscard]] Result<ResponseFrame> DecodeResponseFrame(
    std::string_view payload);

/// Client-side state machine that folds a response frame stream back into
/// one AnalysisResponse. Feed() every received payload in
/// order; after done() reports true, response() is the reassembled
/// result. Violations of the stream grammar (records before the header,
/// frames after the terminal status, a duplicate header) are typed
/// kInvalidArgument errors.
class ResponseReassembler {
 public:
  [[nodiscard]] Status Feed(std::string_view payload);

  bool done() const { return state_ == State::kDone; }

  /// Valid once done(): the terminal response (concatenated records on
  /// kOk, the status message otherwise).
  const AnalysisResponse& response() const { return response_; }
  /// Valid once done(): moves the terminal response out.
  AnalysisResponse TakeResponse() { return std::move(response_); }

  /// Valid once a header frame arrived: what the server echoed back.
  bool has_header() const { return has_header_; }
  AnalysisKind kind() const { return kind_; }
  storage::LayoutPolicy policy() const { return policy_; }
  uint16_t query_number() const { return query_number_; }

 private:
  enum class State { kExpectHeader, kStreaming, kDone };

  State state_ = State::kExpectHeader;
  bool has_header_ = false;
  AnalysisKind kind_ = AnalysisKind::kDiscovery;
  storage::LayoutPolicy policy_ = storage::LayoutPolicy::kSharedDevice;
  uint16_t query_number_ = 1;
  std::string records_;
  AnalysisResponse response_;
};

}  // namespace costsense::serve

#endif  // COSTSENSE_SERVE_PROTOCOL_H_
