// Tests of the costsense-serve subsystem: wire-protocol round trips and
// rejection of malformed frames, the in-process and Unix-socket
// transports, bounded admission (typed kUnavailable under saturation,
// never a hang), per-request deadlines on a manual clock, and the
// headline invariant — interleaved concurrent sessions produce
// byte-identical analysis payloads to serial execution at any thread
// count.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fstream>

#include "engine/artifact.h"
#include "runtime/resilience/clock.h"
#include "runtime/thread_pool.h"
#include "serve/admission.h"
#include "serve/dispatcher.h"
#include "serve/protocol.h"
#include "serve/session.h"
#include "serve/snapshotter.h"
#include "serve/transport.h"

namespace costsense::serve {
namespace {

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

TEST(ProtocolTest, RequestRoundTrip) {
  AnalysisRequest request;
  request.kind = AnalysisKind::kGtcSeries;
  request.policy = storage::LayoutPolicy::kPerTableColocated;
  request.query_number = 14;
  request.deadline_ns = 123456789;
  request.deltas = {2.0, 10.0, 1000.0};

  const Result<AnalysisRequest> decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->kind, request.kind);
  EXPECT_EQ(decoded->policy, request.policy);
  EXPECT_EQ(decoded->query_number, request.query_number);
  EXPECT_EQ(decoded->deadline_ns, request.deadline_ns);
  EXPECT_EQ(decoded->deltas, request.deltas);
}

TEST(ProtocolTest, ResponseRoundTrip) {
  AnalysisResponse response;
  response.code = StatusCode::kDeadlineExceeded;
  response.body = "budget spent";
  const Result<AnalysisResponse> decoded =
      DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->code, response.code);
  EXPECT_EQ(decoded->body, response.body);
}

TEST(ProtocolTest, MalformedRequestsAreTypedErrors) {
  const std::string good = EncodeRequest(AnalysisRequest{});

  // Truncated at every prefix length.
  for (size_t len = 0; len < good.size(); ++len) {
    const Result<AnalysisRequest> r = DecodeRequest(good.substr(0, len));
    ASSERT_FALSE(r.ok()) << "prefix length " << len;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  // Trailing bytes.
  {
    const Result<AnalysisRequest> r = DecodeRequest(good + "x");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  // Wrong version.
  {
    std::string bad = good;
    bad[0] = 99;
    EXPECT_FALSE(DecodeRequest(bad).ok());
  }
  // Unknown analysis kind / policy.
  {
    std::string bad = good;
    bad[1] = 17;
    EXPECT_FALSE(DecodeRequest(bad).ok());
    bad = good;
    bad[2] = 17;
    EXPECT_FALSE(DecodeRequest(bad).ok());
  }
  // Query number outside TPC-H.
  {
    AnalysisRequest request;
    request.query_number = 23;
    EXPECT_FALSE(DecodeRequest(EncodeRequest(request)).ok());
    request.query_number = 0;
    EXPECT_FALSE(DecodeRequest(EncodeRequest(request)).ok());
  }
  // Deltas must be finite and > 1.
  {
    AnalysisRequest request;
    request.deltas = {0.5};
    EXPECT_FALSE(DecodeRequest(EncodeRequest(request)).ok());
    request.deltas = {1.0};
    EXPECT_FALSE(DecodeRequest(EncodeRequest(request)).ok());
  }
  // Empty delta list.
  {
    AnalysisRequest request;
    request.deltas = {};
    EXPECT_FALSE(DecodeRequest(EncodeRequest(request)).ok());
  }
}

TEST(ProtocolTest, ResponseRejectsUnknownCodeAndLengthMismatch) {
  const std::string good = EncodeResponse(AnalysisResponse{});
  std::string bad = good;
  bad[1] = 99;  // past kDeadlineExceeded
  EXPECT_FALSE(DecodeResponse(bad).ok());
  EXPECT_FALSE(DecodeResponse(good + "extra").ok());
}

// ---------------------------------------------------------------------------
// Protocol v2: explicit feasible-region boxes on the request
// ---------------------------------------------------------------------------

/// A 3-dim explicit box (matches the kSharedDevice resource space:
/// seek + transfer + cpu).
core::Box TestBox() {
  const Result<core::Box> box = core::Box::Validated(
      core::CostVector({0.5, 0.25, 0.125}),
      core::CostVector({8.0, 16.0, 4.0}));
  EXPECT_TRUE(box.ok()) << box.status().ToString();
  return *box;
}

TEST(ProtocolV2Test, RequestRoundTripsWithAndWithoutBox) {
  AnalysisRequest request;
  request.version = kProtocolVersionV2;
  request.kind = AnalysisKind::kWorstCase;
  request.query_number = 6;
  request.deltas = {100.0};
  {
    const Result<AnalysisRequest> decoded =
        DecodeRequest(EncodeRequest(request));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->version, kProtocolVersionV2);
    EXPECT_EQ(decoded->kind, request.kind);
    EXPECT_FALSE(decoded->box.has_value());
  }
  const core::Box box = TestBox();
  request.box = box;
  const Result<AnalysisRequest> decoded =
      DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(decoded->box.has_value());
  ASSERT_EQ(decoded->box->dims(), box.dims());
  for (size_t i = 0; i < box.dims(); ++i) {
    EXPECT_EQ(decoded->box->lower()[i], box.lower()[i]) << i;
    EXPECT_EQ(decoded->box->upper()[i], box.upper()[i]) << i;
  }
}

TEST(ProtocolV2Test, MalformedBoxesAreTypedErrors) {
  AnalysisRequest request;
  request.version = kProtocolVersionV2;
  request.box = TestBox();
  const std::string good = EncodeRequest(request);
  ASSERT_TRUE(DecodeRequest(good).ok());
  // With the default single delta the box region starts at byte 23:
  // u8 has_box | u16 dims | 3 x f64 lower | 3 x f64 upper.
  const size_t kBoxOffset = 23;

  // Truncation anywhere inside the box region.
  for (size_t len = kBoxOffset; len < good.size(); ++len) {
    const Result<AnalysisRequest> r = DecodeRequest(good.substr(0, len));
    ASSERT_FALSE(r.ok()) << "prefix length " << len;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  // Trailing bytes after a complete box.
  EXPECT_FALSE(DecodeRequest(good + "x").ok());
  // has-box flag outside {0, 1}.
  {
    std::string bad = good;
    bad[kBoxOffset] = 2;
    EXPECT_FALSE(DecodeRequest(bad).ok());
  }
  // Dimension count of zero (and one that disagrees with the payload).
  {
    std::string bad = good;
    bad[kBoxOffset + 1] = 0;
    bad[kBoxOffset + 2] = 0;
    EXPECT_FALSE(DecodeRequest(bad).ok());
    bad[kBoxOffset + 2] = 7;
    EXPECT_FALSE(DecodeRequest(bad).ok());
  }
  // Bounds validation runs at decode: swapping the lower and upper blocks
  // makes every lower bound exceed its upper bound.
  {
    std::string bad = good;
    std::swap_ranges(bad.begin() + kBoxOffset + 3,
                     bad.begin() + kBoxOffset + 3 + 24,
                     bad.begin() + kBoxOffset + 3 + 24);
    const Result<AnalysisRequest> r = DecodeRequest(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// Protocol v2: the response frame stream and its reassembler
// ---------------------------------------------------------------------------

TEST(ProtocolV2Test, ResponseFramesRoundTrip) {
  ResponseFrame header;
  header.type = ResponseFrameType::kHeader;
  header.kind = AnalysisKind::kGtcSeries;
  header.policy = storage::LayoutPolicy::kPerTableColocated;
  header.query_number = 14;
  {
    const Result<ResponseFrame> decoded =
        DecodeResponseFrame(EncodeResponseFrame(header));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->type, ResponseFrameType::kHeader);
    EXPECT_EQ(decoded->kind, header.kind);
    EXPECT_EQ(decoded->policy, header.policy);
    EXPECT_EQ(decoded->query_number, header.query_number);
  }
  ResponseFrame records;
  records.type = ResponseFrameType::kRecords;
  records.records = {"alpha", "", std::string("b\0c", 3)};
  {
    const Result<ResponseFrame> decoded =
        DecodeResponseFrame(EncodeResponseFrame(records));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->type, ResponseFrameType::kRecords);
    EXPECT_EQ(decoded->records, records.records);
  }
  ResponseFrame status;
  status.type = ResponseFrameType::kStatus;
  status.code = StatusCode::kDeadlineExceeded;
  status.message = "budget spent";
  {
    const Result<ResponseFrame> decoded =
        DecodeResponseFrame(EncodeResponseFrame(status));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->type, ResponseFrameType::kStatus);
    EXPECT_EQ(decoded->code, status.code);
    EXPECT_EQ(decoded->message, status.message);
  }
}

TEST(ProtocolV2Test, MalformedResponseFramesAreTypedErrors) {
  ResponseFrame records;
  records.type = ResponseFrameType::kRecords;
  records.records = {"alpha"};
  const std::string good = EncodeResponseFrame(records);

  for (const auto& [name, bytes] : std::vector<std::pair<const char*,
                                                         std::string>>{
           {"empty payload", ""},
           {"version byte", [&] {
              std::string b = good;
              b[0] = kProtocolVersion;
              return b;
            }()},
           {"unknown frame type", [&] {
              std::string b = good;
              b[1] = 9;
              return b;
            }()},
           {"record length lie", [&] {
              std::string b = good;
              b[2] = 0x7f;  // claims a record far past the payload
              return b;
            }()},
           {"record body cut", good.substr(0, good.size() - 1)},
       }) {
    const Result<ResponseFrame> r = DecodeResponseFrame(bytes);
    ASSERT_FALSE(r.ok()) << name;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << name;
  }
  // A status frame whose length field lies about the remaining bytes.
  ResponseFrame status;
  status.type = ResponseFrameType::kStatus;
  status.message = "msg";
  std::string bad_status = EncodeResponseFrame(status);
  bad_status[6] = static_cast<char>(bad_status[6] + 1);
  EXPECT_FALSE(DecodeResponseFrame(bad_status).ok());
}

std::string FrameOfRecords(std::vector<std::string> bodies) {
  ResponseFrame frame;
  frame.type = ResponseFrameType::kRecords;
  frame.records = std::move(bodies);
  return EncodeResponseFrame(frame);
}

std::string FrameOfStatus(StatusCode code, const std::string& message) {
  ResponseFrame frame;
  frame.type = ResponseFrameType::kStatus;
  frame.code = code;
  frame.message = message;
  return EncodeResponseFrame(frame);
}

std::string FrameOfHeader() {
  ResponseFrame frame;
  frame.type = ResponseFrameType::kHeader;
  frame.kind = AnalysisKind::kWorstCase;
  frame.query_number = 6;
  return EncodeResponseFrame(frame);
}

TEST(ResponseReassemblerTest, ConcatenatesRecordsAndEchoesTheHeader) {
  ResponseReassembler reassembler;
  ASSERT_TRUE(reassembler.Feed(FrameOfHeader()).ok());
  EXPECT_FALSE(reassembler.done());  // header alone is not a response
  ASSERT_TRUE(reassembler.Feed(FrameOfRecords({"ab", "cd"})).ok());
  ASSERT_TRUE(reassembler.Feed(FrameOfRecords({"ef"})).ok());
  EXPECT_FALSE(reassembler.done());  // truncation before the terminal frame
  ASSERT_TRUE(reassembler.Feed(FrameOfStatus(StatusCode::kOk, "")).ok());
  ASSERT_TRUE(reassembler.done());
  EXPECT_TRUE(reassembler.response().ok());
  EXPECT_EQ(reassembler.response().body, "abcdef");
  EXPECT_TRUE(reassembler.has_header());
  EXPECT_EQ(reassembler.kind(), AnalysisKind::kWorstCase);
  EXPECT_EQ(reassembler.query_number(), 6);
}

TEST(ResponseReassemblerTest, GrammarViolationsAreTypedErrors) {
  {
    ResponseReassembler r;  // records before the header
    EXPECT_EQ(r.Feed(FrameOfRecords({"x"})).code(),
              StatusCode::kInvalidArgument);
  }
  {
    ResponseReassembler r;  // duplicate header
    ASSERT_TRUE(r.Feed(FrameOfHeader()).ok());
    EXPECT_EQ(r.Feed(FrameOfHeader()).code(), StatusCode::kInvalidArgument);
  }
  {
    ResponseReassembler r;  // frames after the terminal status
    ASSERT_TRUE(r.Feed(FrameOfHeader()).ok());
    ASSERT_TRUE(r.Feed(FrameOfStatus(StatusCode::kOk, "")).ok());
    EXPECT_EQ(r.Feed(FrameOfRecords({"late"})).code(),
              StatusCode::kInvalidArgument);
  }
  {
    ResponseReassembler r;  // a lone OK status has no body to deliver
    EXPECT_EQ(r.Feed(FrameOfStatus(StatusCode::kOk, "")).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(ResponseReassemblerTest, LoneErrorStatusCompletesTheStream) {
  // The one sanctioned header-less shape: a request rejected before
  // analysis arrives as a single error status frame.
  ResponseReassembler reassembler;
  ASSERT_TRUE(
      reassembler.Feed(FrameOfStatus(StatusCode::kUnavailable, "shed")).ok());
  ASSERT_TRUE(reassembler.done());
  EXPECT_FALSE(reassembler.has_header());
  EXPECT_EQ(reassembler.response().code, StatusCode::kUnavailable);
  EXPECT_EQ(reassembler.response().body, "shed");
}

// ---------------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------------

TEST(InProcessTransportTest, FramesCrossInOrderAndCloseIsEof) {
  auto [client, server] = InProcessTransport::CreatePair();
  ASSERT_TRUE(client->SendFrame("one").ok());
  ASSERT_TRUE(client->SendFrame("two").ok());
  Result<std::string> a = server->RecvFrame();
  Result<std::string> b = server->RecvFrame();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, "one");
  EXPECT_EQ(*b, "two");

  ASSERT_TRUE(server->SendFrame("reply").ok());
  client->Close();
  // Buffered frames still drain after close...
  Result<std::string> reply = client->RecvFrame();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, "reply");
  // ...then the stream reports a clean end, and sends are refused.
  EXPECT_EQ(server->RecvFrame().status().code(), StatusCode::kNotFound);
  EXPECT_EQ(server->SendFrame("late").code(), StatusCode::kUnavailable);
}

TEST(InProcessTransportTest, OversizedFrameIsRejected) {
  auto [client, server] = InProcessTransport::CreatePair();
  const std::string huge(kMaxFrameBytes + 1, 'x');
  EXPECT_EQ(client->SendFrame(huge).code(), StatusCode::kInvalidArgument);
  (void)server;
}

// ---------------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------------

TEST(AdmissionTest, RejectsWhenSlotsAndQueueAreFull) {
  AdmissionController admission(/*max_inflight=*/1, /*max_queued=*/0);
  ASSERT_TRUE(admission.Admit().ok());
  const Status overflow = admission.Admit();
  EXPECT_EQ(overflow.code(), StatusCode::kUnavailable);
  admission.Release();
  EXPECT_TRUE(admission.Admit().ok());
  admission.Release();

  const AdmissionStats stats = admission.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.peak_inflight, 1u);
}

TEST(AdmissionTest, QueuedWaiterGetsSlotOnRelease) {
  AdmissionController admission(1, 1);
  ASSERT_TRUE(admission.Admit().ok());
  Status waiter_result = Status::Internal("not yet run");
  std::thread waiter([&admission, &waiter_result] {
    waiter_result = admission.Admit();
  });
  // The waiter parks in the bounded queue; releasing the slot admits it.
  AdmissionStats stats = admission.stats();
  for (int i = 0; i < 5000 && stats.queued == 0; ++i) {
    std::this_thread::yield();
    stats = admission.stats();
  }
  EXPECT_EQ(stats.queued, 1u);
  admission.Release();
  waiter.join();
  EXPECT_TRUE(waiter_result.ok());
  admission.Release();
  EXPECT_EQ(admission.stats().peak_queued, 1u);
}

TEST(AdmissionTest, CloseRejectsWaitersAndFutureAdmits) {
  AdmissionController admission(1, 4);
  ASSERT_TRUE(admission.Admit().ok());
  Status waiter_result = Status::Ok();
  std::thread waiter([&admission, &waiter_result] {
    waiter_result = admission.Admit();
  });
  AdmissionStats stats = admission.stats();
  for (int i = 0; i < 5000 && stats.queued == 0; ++i) {
    std::this_thread::yield();
    stats = admission.stats();
  }
  admission.Close();
  waiter.join();
  EXPECT_EQ(waiter_result.code(), StatusCode::kUnavailable);
  EXPECT_EQ(admission.Admit().code(), StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------------
// Server fixtures
// ---------------------------------------------------------------------------

/// The quick-mode analysis budget (matches bench_util's quick preset) so
/// a full request costs tens of milliseconds, not seconds.
DispatcherOptions QuickDispatcherOptions(runtime::ThreadPool* pool) {
  DispatcherOptions options;
  options.discovery.random_samples = 16;
  options.discovery.sampled_vertices = 48;
  options.discovery.bisection_depth = 3;
  options.discovery.completeness_rounds = 1;
  options.pool = pool;
  return options;
}

AnalysisRequest MakeRequest(AnalysisKind kind, storage::LayoutPolicy policy,
                            uint16_t query, std::vector<double> deltas) {
  AnalysisRequest request;
  request.kind = kind;
  request.policy = policy;
  request.query_number = query;
  request.deltas = std::move(deltas);
  return request;
}

/// A request mix covering all three analysis kinds, two layouts, and two
/// queries, sized for repeated execution.
std::vector<AnalysisRequest> TestRequests() {
  return {
      MakeRequest(AnalysisKind::kDiscovery,
                  storage::LayoutPolicy::kSharedDevice, 1, {100.0}),
      MakeRequest(AnalysisKind::kGtcSeries,
                  storage::LayoutPolicy::kSharedDevice, 6, {2.0, 10.0, 100.0}),
      MakeRequest(AnalysisKind::kWorstCase,
                  storage::LayoutPolicy::kPerTableColocated, 6, {100.0}),
      MakeRequest(AnalysisKind::kGtcSeries,
                  storage::LayoutPolicy::kSharedDevice, 1, {10.0, 1000.0}),
  };
}

/// Runs a client session over an in-process pair against `server` (the
/// server half runs on its own thread) and returns one response per
/// request, in request order.
std::vector<AnalysisResponse> RunSession(
    Server& server, const std::vector<AnalysisRequest>& requests) {
  auto [client, server_end] = InProcessTransport::CreatePair();
  std::unique_ptr<FrameTransport> server_transport = std::move(server_end);
  std::thread server_thread([&server, &server_transport] {
    Session session(server, std::move(server_transport));
    const Status st = session.Run();
    EXPECT_TRUE(st.ok()) << st.ToString();
  });
  std::vector<AnalysisResponse> responses;
  for (const AnalysisRequest& request : requests) {
    Result<AnalysisResponse> response = Call(*client, request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    responses.push_back(response.ok() ? *response : AnalysisResponse{});
  }
  client->Close();
  server_thread.join();
  return responses;
}

// ---------------------------------------------------------------------------
// The headline invariant: interleaved concurrent sessions == serial bytes
// ---------------------------------------------------------------------------

TEST(ServeEquivalenceTest, ConcurrentSessionsMatchSerialByteForByte) {
  const std::vector<AnalysisRequest> requests = TestRequests();

  // Serial reference: fresh server, one session, requests in order.
  std::vector<AnalysisResponse> reference;
  {
    runtime::ThreadPool pool(1);
    ServerOptions options;
    options.dispatcher = QuickDispatcherOptions(&pool);
    Server server(options);
    reference = RunSession(server, requests);
  }
  ASSERT_EQ(reference.size(), requests.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    ASSERT_TRUE(reference[i].ok())
        << "request " << i << ": " << reference[i].body;
    EXPECT_FALSE(reference[i].body.empty());
  }

  // Concurrent: three sessions, each issuing the full request list
  // starting at a different rotation, against one shared server — every
  // request is in flight against a cache some other session may be
  // warming. Repeat at thread counts 1 and 3.
  for (const size_t threads : {size_t{1}, size_t{3}}) {
    runtime::ThreadPool pool(threads);
    ServerOptions options;
    options.dispatcher = QuickDispatcherOptions(&pool);
    Server server(options);

    const size_t kSessions = 3;
    std::vector<std::vector<AnalysisResponse>> responses(kSessions);
    std::vector<std::vector<size_t>> order(kSessions);
    std::vector<std::thread> clients;
    for (size_t s = 0; s < kSessions; ++s) {
      for (size_t i = 0; i < requests.size(); ++i) {
        order[s].push_back((s + i) % requests.size());
      }
      clients.emplace_back([&, s] {
        std::vector<AnalysisRequest> rotated;
        for (size_t idx : order[s]) rotated.push_back(requests[idx]);
        responses[s] = RunSession(server, rotated);
      });
    }
    for (std::thread& t : clients) t.join();

    for (size_t s = 0; s < kSessions; ++s) {
      ASSERT_EQ(responses[s].size(), requests.size());
      for (size_t i = 0; i < order[s].size(); ++i) {
        const AnalysisResponse& got = responses[s][i];
        const AnalysisResponse& want = reference[order[s][i]];
        EXPECT_EQ(got.code, want.code)
            << "threads=" << threads << " session=" << s << " slot=" << i;
        EXPECT_EQ(got.body, want.body)
            << "threads=" << threads << " session=" << s << " slot=" << i;
      }
    }

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.admission.admitted, kSessions * requests.size());
    EXPECT_EQ(stats.admission.rejected, 0u);
    EXPECT_EQ(stats.dispatcher.requests, kSessions * requests.size());
    // The shared cache observed cross-request hits: the second and third
    // session of each request replay probe points the first computed.
    EXPECT_GT(stats.dispatcher.cache.hits, 0u);
  }
}

// ---------------------------------------------------------------------------
// Admission at the server level
// ---------------------------------------------------------------------------

TEST(ServerTest, SaturatedAdmissionReturnsTypedUnavailable) {
  runtime::ThreadPool pool(1);
  ServerOptions options;
  options.dispatcher = QuickDispatcherOptions(&pool);
  options.max_inflight = 1;
  options.max_queued = 0;
  Server server(options);

  // Occupy the only slot directly, then every request must shed with a
  // typed kUnavailable response — never a hang, never a crash.
  ASSERT_TRUE(server.admission().Admit().ok());
  const AnalysisRequest request = TestRequests()[1];
  const AnalysisResponse rejected = server.Handle(request);
  EXPECT_EQ(rejected.code, StatusCode::kUnavailable);
  EXPECT_FALSE(rejected.body.empty());
  server.admission().Release();

  const AnalysisResponse accepted = server.Handle(request);
  EXPECT_TRUE(accepted.ok()) << accepted.body;

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.admission.rejected, 1u);
  EXPECT_EQ(stats.admission.admitted, 2u);  // direct Admit + request
}

TEST(ServerTest, ShutdownRejectsNewRequestsAndQuiesces) {
  runtime::ThreadPool pool(3);
  ServerOptions options;
  options.dispatcher = QuickDispatcherOptions(&pool);
  Server server(options);
  const AnalysisRequest request = TestRequests()[2];
  EXPECT_TRUE(server.Handle(request).ok());
  server.Shutdown();
  const AnalysisResponse after = server.Handle(request);
  EXPECT_EQ(after.code, StatusCode::kUnavailable);
  server.Shutdown();  // idempotent
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

TEST(ServerTest, RequestDeadlineSurfacesAsTypedDeadlineExceeded) {
  // Latency faults on a manual clock charge virtual time to every probe;
  // a request-level deadline smaller than one probe's latency must spend
  // its budget and come back as a typed kDeadlineExceeded response. The
  // manual clock makes this deterministic and instant.
  runtime::resilience::ManualClock clock;
  runtime::ThreadPool pool(1);
  ServerOptions options;
  options.dispatcher = QuickDispatcherOptions(&pool);
  options.dispatcher.clock = &clock;
  options.dispatcher.faults.fault_rate = 1.0;
  options.dispatcher.faults.max_burst = 1;
  options.dispatcher.faults.weight_transient = 0.0;
  options.dispatcher.faults.weight_latency = 1.0;
  options.dispatcher.faults.latency_nanos = 1000;
  Server server(options);

  AnalysisRequest request = TestRequests()[1];
  request.deadline_ns = 500;  // less than one probe's injected latency
  const AnalysisResponse response = server.Handle(request);
  EXPECT_EQ(response.code, StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(response.body.empty());

  // The same request with room to breathe succeeds: the injected
  // latencies only age the clock, and each key faults once.
  AnalysisRequest relaxed = TestRequests()[1];
  relaxed.deadline_ns = 0;  // unlimited
  const AnalysisResponse ok = server.Handle(relaxed);
  EXPECT_TRUE(ok.ok()) << ok.body;
}

// ---------------------------------------------------------------------------
// Sessions and malformed frames
// ---------------------------------------------------------------------------

TEST(SessionTest, MalformedFrameGetsTypedErrorThenClose) {
  runtime::ThreadPool pool(1);
  ServerOptions options;
  options.dispatcher = QuickDispatcherOptions(&pool);
  Server server(options);

  auto [client, server_end] = InProcessTransport::CreatePair();
  std::unique_ptr<FrameTransport> server_transport = std::move(server_end);
  std::thread server_thread([&server, &server_transport] {
    Session session(server, std::move(server_transport));
    const Status st = session.Run();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  });

  ASSERT_TRUE(client->SendFrame("not a request").ok());
  Result<std::string> frame = client->RecvFrame();
  ASSERT_TRUE(frame.ok());
  const Result<AnalysisResponse> response = DecodeResponse(*frame);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, StatusCode::kInvalidArgument);
  // The session drops the connection after a framing error.
  EXPECT_EQ(client->RecvFrame().status().code(), StatusCode::kNotFound);
  server_thread.join();
}

// ---------------------------------------------------------------------------
// Protocol v2 over real sessions
// ---------------------------------------------------------------------------

TEST(SessionV2Test, StreamedResponsesMatchV1ByteForByte) {
  // One server, one session, both protocol versions interleaved: for every
  // request in the mix the reassembled v2 body must equal the v1 body
  // byte for byte — the frame stream is a transport detail, not part of
  // the analysis function.
  runtime::ThreadPool pool(3);
  ServerOptions options;
  options.dispatcher = QuickDispatcherOptions(&pool);
  Server server(options);

  auto [client, server_end] = InProcessTransport::CreatePair();
  std::unique_ptr<FrameTransport> server_transport = std::move(server_end);
  std::thread server_thread([&server, &server_transport] {
    Session session(server, std::move(server_transport));
    const Status st = session.Run();
    EXPECT_TRUE(st.ok()) << st.ToString();
  });

  for (const AnalysisRequest& request : TestRequests()) {
    const Result<AnalysisResponse> v1 = Call(*client, request);
    ASSERT_TRUE(v1.ok()) << v1.status().ToString();
    ASSERT_TRUE(v1->ok()) << v1->body;
    const Result<AnalysisResponse> v2 = CallV2(*client, request);
    ASSERT_TRUE(v2.ok()) << v2.status().ToString();
    EXPECT_EQ(v2->code, v1->code);
    EXPECT_EQ(v2->body, v1->body);
    EXPECT_FALSE(v2->body.empty());
  }
  client->Close();
  server_thread.join();
}

TEST(SessionV2Test, ExplicitBoxRunsAndDimsMismatchIsTyped) {
  runtime::ThreadPool pool(1);
  ServerOptions options;
  options.dispatcher = QuickDispatcherOptions(&pool);
  Server server(options);

  auto [client, server_end] = InProcessTransport::CreatePair();
  std::unique_ptr<FrameTransport> server_transport = std::move(server_end);
  std::thread server_thread([&server, &server_transport] {
    Session session(server, std::move(server_transport));
    const Status st = session.Run();
    EXPECT_TRUE(st.ok()) << st.ToString();
  });

  // The 3-dim box matches the shared-device space: real analysis runs.
  AnalysisRequest request = MakeRequest(
      AnalysisKind::kWorstCase, storage::LayoutPolicy::kSharedDevice, 6,
      {100.0});
  request.version = kProtocolVersionV2;
  request.box = TestBox();
  const Result<AnalysisResponse> ok = CallV2(*client, request);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ASSERT_TRUE(ok->ok()) << ok->body;
  EXPECT_FALSE(ok->body.empty());

  // A 2-dim box cannot span the 3-dim shared-device space: a typed error
  // naming the mismatch, session intact.
  const Result<core::Box> narrow = core::Box::Validated(
      core::CostVector({0.5, 0.25}), core::CostVector({8.0, 16.0}));
  ASSERT_TRUE(narrow.ok()) << narrow.status().ToString();
  request.box = *narrow;
  const Result<AnalysisResponse> mismatch = CallV2(*client, request);
  ASSERT_TRUE(mismatch.ok()) << mismatch.status().ToString();
  EXPECT_EQ(mismatch->code, StatusCode::kInvalidArgument);
  EXPECT_NE(mismatch->body.find("dimension"), std::string::npos)
      << mismatch->body;

  // The session survived the typed rejection: the next request works.
  request.box = TestBox();
  const Result<AnalysisResponse> again = CallV2(*client, request);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->body, ok->body);

  client->Close();
  server_thread.join();
}

TEST(SessionV2Test, MalformedV2FrameGetsLoneStatusFrameThenClose) {
  runtime::ThreadPool pool(1);
  ServerOptions options;
  options.dispatcher = QuickDispatcherOptions(&pool);
  Server server(options);

  auto [client, server_end] = InProcessTransport::CreatePair();
  std::unique_ptr<FrameTransport> server_transport = std::move(server_end);
  std::thread server_thread([&server, &server_transport] {
    Session session(server, std::move(server_transport));
    const Status st = session.Run();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  });

  // First byte 2: the peer was speaking v2, so the error comes back as a
  // lone v2 status frame (which a fresh reassembler accepts as terminal).
  std::string garbage = "garbage";
  garbage[0] = static_cast<char>(kProtocolVersionV2);
  ASSERT_TRUE(client->SendFrame(garbage).ok());
  Result<std::string> reply = client->RecvFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ResponseReassembler reassembler;
  ASSERT_TRUE(reassembler.Feed(*reply).ok());
  ASSERT_TRUE(reassembler.done());
  EXPECT_EQ(reassembler.response().code, StatusCode::kInvalidArgument);
  EXPECT_FALSE(reassembler.response().body.empty());
  // The session drops the connection after a framing error.
  EXPECT_EQ(client->RecvFrame().status().code(), StatusCode::kNotFound);
  server_thread.join();
}

// ---------------------------------------------------------------------------
// Unix-socket transport end to end
// ---------------------------------------------------------------------------

TEST(SocketTransportTest, SocketSessionMatchesInProcessBytes) {
  const std::string path = "costsense_serve_test.sock";
  const AnalysisRequest request = TestRequests()[2];

  // In-process reference bytes.
  AnalysisResponse reference;
  {
    runtime::ThreadPool pool(1);
    ServerOptions options;
    options.dispatcher = QuickDispatcherOptions(&pool);
    Server server(options);
    reference = RunSession(server, {request})[0];
  }
  ASSERT_TRUE(reference.ok()) << reference.body;

  // The same request over a real Unix-domain socket against a fresh
  // server must produce the same bytes: the transport is not part of the
  // analysis function.
  runtime::ThreadPool pool(1);
  ServerOptions options;
  options.dispatcher = QuickDispatcherOptions(&pool);
  Server server(options);
  Result<std::unique_ptr<SocketListener>> listener = SocketListener::Bind(path);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  std::thread accept_thread([&server, &listener] {
    const Status st = server.ServeBlocking(**listener, /*max_sessions=*/1);
    EXPECT_TRUE(st.ok()) << st.ToString();
  });

  Result<std::unique_ptr<SocketTransport>> client = ConnectUnixSocket(path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Result<AnalysisResponse> response = Call(**client, request);
  (*client)->Close();
  accept_thread.join();
  (*listener)->Close();

  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, reference.code);
  EXPECT_EQ(response->body, reference.body);
  EXPECT_EQ(server.stats().sessions, 1u);
}

// ---------------------------------------------------------------------------
// Bounded drain and the idle watchdog
// ---------------------------------------------------------------------------

/// Opens a session against `server` whose client never sends anything —
/// the wedged peer the drain deadline and idle watchdog exist for.
struct WedgedSession {
  std::unique_ptr<InProcessTransport> client;
  std::thread thread;
  Status run_status = Status::Internal("not finished");

  explicit WedgedSession(Server& server) {
    auto [client_end, server_end] = InProcessTransport::CreatePair();
    client = std::move(client_end);
    std::unique_ptr<FrameTransport> transport = std::move(server_end);
    thread = std::thread([this, &server, t = std::move(transport)]() mutable {
      Session session(server, std::move(t));
      run_status = session.Run();
    });
    // The session is reachable by drain/watchdog once registered.
    while (server.stats().active_sessions == 0) std::this_thread::yield();
  }

  ~WedgedSession() {
    client->Close();
    if (thread.joinable()) thread.join();
  }
};

TEST(ServerDrainTest, DrainTimeoutForcesWedgedSession) {
  runtime::resilience::ManualClock clock;
  runtime::ThreadPool pool(1);
  ServerOptions options;
  options.dispatcher = QuickDispatcherOptions(&pool);
  options.dispatcher.clock = &clock;
  options.drain_timeout_ns = 5'000'000;  // 5 virtual ms
  Server server(options);

  WedgedSession wedged(server);
  // Shutdown must return: the drain polls the virtual clock to its
  // deadline, then force-closes the straggler instead of waiting forever.
  server.Shutdown();

  const ServerStats stats = server.stats();
  EXPECT_TRUE(stats.shutdown.ran);
  EXPECT_EQ(stats.shutdown.forced_sessions, 1u);
  EXPECT_GE(stats.shutdown.drain_wait_ns, options.drain_timeout_ns);

  // The forced session exits as a clean end of stream on both sides.
  wedged.thread.join();
  EXPECT_TRUE(wedged.run_status.ok()) << wedged.run_status.ToString();
  EXPECT_EQ(wedged.client->RecvFrame().status().code(), StatusCode::kNotFound);
}

TEST(ServerDrainTest, GracefulCloseIsNotForced) {
  runtime::resilience::ManualClock clock;
  runtime::ThreadPool pool(1);
  ServerOptions options;
  options.dispatcher = QuickDispatcherOptions(&pool);
  options.dispatcher.clock = &clock;
  options.drain_timeout_ns = 5'000'000;
  Server server(options);

  {
    WedgedSession session(server);
    session.client->Close();
    session.thread.join();
  }
  while (server.stats().active_sessions != 0) std::this_thread::yield();

  server.Shutdown();
  const ServerStats stats = server.stats();
  EXPECT_TRUE(stats.shutdown.ran);
  EXPECT_EQ(stats.shutdown.forced_sessions, 0u);
}

TEST(ServerDrainTest, WedgedSocketSessionCannotWedgeServeBlocking) {
  // End to end over a real socket on the real clock: one client connects
  // and sends nothing; ServeBlocking's join of that session thread is
  // bounded by the drain deadline.
  const std::string path = "costsense_drain_test.sock";
  runtime::ThreadPool pool(1);
  ServerOptions options;
  options.dispatcher = QuickDispatcherOptions(&pool);
  options.drain_timeout_ns = 50'000'000;  // 50 real ms
  Server server(options);

  Result<std::unique_ptr<SocketListener>> listener = SocketListener::Bind(path);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  Result<std::unique_ptr<SocketTransport>> client = ConnectUnixSocket(path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // max_sessions=1: the accept loop exits after this connection and falls
  // into the drain, where only the deadline unwedges the silent client.
  const Status served = server.ServeBlocking(**listener, /*max_sessions=*/1);
  EXPECT_TRUE(served.ok()) << served.ToString();
  (*listener)->Close();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shutdown.forced_sessions, 1u);
  EXPECT_GE(stats.shutdown.drain_wait_ns, options.drain_timeout_ns);
}

TEST(ServerWatchdogTest, ReapsOnlySessionsIdlePastTimeout) {
  runtime::resilience::ManualClock clock;
  runtime::ThreadPool pool(1);
  ServerOptions options;
  options.dispatcher = QuickDispatcherOptions(&pool);
  options.dispatcher.clock = &clock;
  options.idle_timeout_ns = 1'000'000'000;  // 1 virtual second
  Server server(options);

  WedgedSession session(server);
  // 900 ms idle: under the timeout, nothing reaped.
  clock.Advance(900'000'000);
  EXPECT_EQ(server.ReapIdleSessions(), 0u);

  // Activity resets the idle clock: a request stamps the session.
  const Result<AnalysisResponse> response =
      Call(*session.client, TestRequests()[0]);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  clock.Advance(900'000'000);  // 900 ms since the request
  EXPECT_EQ(server.ReapIdleSessions(), 0u);

  // 1.1 s since the last activity: reaped, and the client sees the drop.
  clock.Advance(200'000'000);
  EXPECT_EQ(server.ReapIdleSessions(), 1u);
  session.thread.join();
  EXPECT_TRUE(session.run_status.ok()) << session.run_status.ToString();
  EXPECT_EQ(session.client->RecvFrame().status().code(), StatusCode::kNotFound);
  EXPECT_EQ(server.stats().idle_reaped, 1u);
}

TEST(ServerWatchdogTest, ZeroTimeoutNeverReaps) {
  runtime::resilience::ManualClock clock;
  runtime::ThreadPool pool(1);
  ServerOptions options;
  options.dispatcher = QuickDispatcherOptions(&pool);
  options.dispatcher.clock = &clock;
  Server server(options);  // idle_timeout_ns = 0

  WedgedSession session(server);
  clock.Advance(3'600'000'000'000ULL);  // an hour of virtual idleness
  EXPECT_EQ(server.ReapIdleSessions(), 0u);
  EXPECT_EQ(server.stats().idle_reaped, 0u);
}

// ---------------------------------------------------------------------------
// Periodic stats snapshots
// ---------------------------------------------------------------------------

TEST(SnapshotterTest, TickOnceWritesFlushedRecordsAndDrivesWatchdog) {
  const std::string path = "snapshotter_test.jsonl";
  {
    std::ofstream truncate(path, std::ios::trunc);
  }
  runtime::resilience::ManualClock clock;
  runtime::ThreadPool pool(1);
  ServerOptions options;
  options.dispatcher = QuickDispatcherOptions(&pool);
  options.dispatcher.clock = &clock;
  options.idle_timeout_ns = 1'000'000'000;
  Server server(options);

  engine::JsonWriter writer(path);
  SnapshotterOptions snapshot_options;  // interval 0: Start() is a no-op
  StatsSnapshotter snapshotter(server, writer, snapshot_options);
  snapshotter.Start();

  EXPECT_EQ(snapshotter.TickOnce(), 0u);  // no sessions, nothing to reap
  {
    WedgedSession session(server);
    clock.Advance(2'000'000'000);
    // The periodic tick runs the watchdog, then snapshots the stats.
    EXPECT_EQ(snapshotter.TickOnce(), 1u);
    session.thread.join();
  }
  EXPECT_EQ(snapshotter.ticks(), 2u);
  snapshotter.Stop();  // idempotent with no thread running

  // Every tick is already flushed: an aborted server keeps them all.
  const std::string written = [&path] {
    std::ifstream in(path);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }();
  EXPECT_NE(written.find("\"bench\":\"serve-stats\""), std::string::npos);
  EXPECT_NE(written.find("\"snapshot_seq\":1"), std::string::npos);
  EXPECT_NE(written.find("\"snapshot_seq\":2"), std::string::npos);
  EXPECT_NE(written.find("\"idle_reaped\":1"), std::string::npos);
}

}  // namespace
}  // namespace costsense::serve
