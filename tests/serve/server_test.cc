// Tests of the costsense-serve subsystem: wire-protocol round trips and
// rejection of malformed frames, the in-process and Unix-socket
// transports, the bursts a response stream is handed over in, bounded
// admission (typed kUnavailable under saturation,
// never a hang), per-request deadlines on a manual clock, the
// dispatcher's discovery memo (bounded, raced, and what it does to a
// deadline), and the headline invariant — interleaved concurrent
// sessions produce byte-identical analysis payloads to serial execution
// at any thread count.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <deque>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fstream>

#include "common/strings.h"
#include "engine/artifact.h"
#include "exp/figure_runner.h"
#include "exp/report.h"
#include "runtime/resilience/clock.h"
#include "runtime/sink/stages.h"
#include "runtime/thread_pool.h"
#include "serve/admission.h"
#include "serve/dispatcher.h"
#include "serve/protocol.h"
#include "serve/record_sink.h"
#include "serve/session.h"
#include "serve/snapshotter.h"
#include "serve/transport.h"
#include "tpch/queries.h"
#include "tpch/schema.h"

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
  // Wrong version: an unknown byte, and the retired version 1 (a request
  // that is otherwise well formed).
  {
    std::string bad = good;
    bad[0] = 99;
    EXPECT_FALSE(DecodeRequest(bad).ok());
    bad[0] = 1;
    const Result<AnalysisRequest> r = DecodeRequest(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("version 1"), std::string::npos)
        << r.status().message();
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

// ---------------------------------------------------------------------------
// Explicit feasible-region boxes on the request
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
// The response frame stream and its reassembler
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
              b[0] = 1;  // the retired wire version
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

TEST(ResponseReassemblerTest, RejectedFramesAddNothingToTheBody) {
  // Records are appended straight from each frame as it is parsed, so a
  // frame rejected after some of its records were read must take them
  // back, and records before the header must not land at all.
  ResponseReassembler reassembler;
  EXPECT_EQ(reassembler.Feed(FrameOfRecords({"early"})).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(reassembler.Feed(FrameOfHeader()).ok());
  ASSERT_TRUE(reassembler.Feed(FrameOfRecords({"ab"})).ok());
  std::string truncated = FrameOfRecords({"cd", "ef"});
  truncated.pop_back();  // the last record's length now lies
  EXPECT_EQ(reassembler.Feed(truncated).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(reassembler.Feed(FrameOfStatus(StatusCode::kOk, "")).ok());
  ASSERT_TRUE(reassembler.done());
  EXPECT_EQ(reassembler.response().body, "ab");
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

TEST(InProcessTransportTest, BurstCrossesInOrderOrNotAtAll) {
  auto [client, server] = InProcessTransport::CreatePair();
  std::vector<std::string> burst = {"a", "bb", "ccc"};
  ASSERT_TRUE(client->SendBurst(burst).ok());
  for (const char* want : {"a", "bb", "ccc"}) {
    Result<std::string> got = server->RecvFrame();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, want);
  }
  // One oversized frame refuses the whole burst: nothing crosses.
  std::vector<std::string> bad = {"d", std::string(kMaxFrameBytes + 1, 'x')};
  EXPECT_EQ(client->SendBurst(bad).code(), StatusCode::kInvalidArgument);
  client->Close();
  EXPECT_EQ(server->RecvFrame().status().code(), StatusCode::kNotFound);
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

/// The quick discovery budget, so a full request costs tens of
/// milliseconds, not seconds.
DispatcherOptions QuickDispatcherOptions(runtime::ThreadPool* pool) {
  DispatcherOptions options;
  options.discovery = exp::QuickDiscovery();
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
    Result<AnalysisResponse> response = CallV2(*client, request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    responses.push_back(response.ok() ? *response : AnalysisResponse{});
  }
  client->Close();
  server_thread.join();
  return responses;
}

/// Server::HandleStreaming into a string, folded into one response the way
/// a client's reassembler folds the frame stream: the records on kOk, the
/// status message otherwise.
AnalysisResponse HandleInProcess(Server& server,
                                 const AnalysisRequest& request) {
  AnalysisResponse response;
  runtime::sink::StringSink body(&response.body);
  const Status st = server.HandleStreaming(request, body);
  if (!st.ok()) {
    response.code = st.code();
    response.body = st.message();
  }
  return response;
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
    // The second and third session of each request mostly find its box
    // in the discovery memo; the cache hits come from probe points that
    // discoveries share with each other.
    EXPECT_GT(stats.dispatcher.discoveries_recalled, 0u);
    EXPECT_GT(stats.dispatcher.cache.hits, 0u);
  }
}

// ---------------------------------------------------------------------------
// One pair pipeline: serve and figure runs share exp::PairContext
// ---------------------------------------------------------------------------

/// The body lines that start with `prefix`, in order.
std::vector<std::string> LinesStartingWith(const std::string& body,
                                           const std::string& prefix) {
  std::vector<std::string> out;
  std::istringstream lines(body);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(prefix, 0) == 0) out.push_back(line);
  }
  return out;
}

TEST(ServeEquivalenceTest, MatchesFigureRunner) {
  runtime::ThreadPool pool(3);
  const catalog::Catalog catalog = tpch::MakeTpchCatalog(100.0);
  exp::FigureRunner::Options figure_options;
  figure_options.deltas = {2, 10, 100, 1000};
  figure_options.discovery = exp::QuickDiscovery();
  figure_options.pool = &pool;
  const exp::FigureRunner runner(catalog, figure_options);
  Dispatcher dispatcher(QuickDispatcherOptions(&pool));

  using storage::LayoutPolicy;
  const std::vector<std::pair<uint16_t, LayoutPolicy>> pairs = {
      {16, LayoutPolicy::kSharedDevice},
      {16, LayoutPolicy::kPerTableColocated},
      {16, LayoutPolicy::kPerTableAndIndex},
      {19, LayoutPolicy::kSharedDevice},
      {19, LayoutPolicy::kPerTableColocated},
      {19, LayoutPolicy::kPerTableAndIndex},
      {8, LayoutPolicy::kSharedDevice},
  };
  for (const auto& [qn, policy] : pairs) {
    SCOPED_TRACE(StrFormat("Q%u under %s", static_cast<unsigned>(qn),
                           storage::LayoutPolicyName(policy)));
    const Result<exp::QueryAnalysis> analysis =
        runner.Analyze(tpch::MakeTpchQuery(catalog, qn), policy);
    ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
    const Result<exp::FigureSeries> series = runner.GtcSeries(*analysis);
    ASSERT_TRUE(series.ok()) << series.status().ToString();

    // Discovery over the figures' widest band: same initial plan, same
    // completeness verdict, same candidate plans in the same order.
    const AnalysisResponse discovery = dispatcher.Handle(
        MakeRequest(AnalysisKind::kDiscovery, policy, qn, {1000.0}));
    ASSERT_TRUE(discovery.ok()) << discovery.body;
    EXPECT_EQ(LinesStartingWith(discovery.body, "initial_plan="),
              std::vector<std::string>{"initial_plan=" +
                                       analysis->initial_plan_id});
    EXPECT_EQ(LinesStartingWith(discovery.body, "plans="),
              std::vector<std::string>{StrFormat(
                  "plans=%zu complete=%d", analysis->candidate_plans.size(),
                  analysis->discovery_complete ? 1 : 0)});
    std::vector<std::string> served_ids;
    for (const std::string& line :
         LinesStartingWith(discovery.body, "plan ")) {
      const size_t begin = line.find(": ") + 2;
      served_ids.push_back(line.substr(begin, line.find(" margin=") - begin));
    }
    std::vector<std::string> figure_ids;
    for (const core::PlanUsage& p : analysis->candidate_plans) {
      figure_ids.push_back(p.plan_id);
    }
    EXPECT_EQ(served_ids, figure_ids);

    // The GTC curve: every figure point, printed the way the server does.
    const AnalysisResponse curve = dispatcher.Handle(MakeRequest(
        AnalysisKind::kGtcSeries, policy, qn, figure_options.deltas));
    ASSERT_TRUE(curve.ok()) << curve.body;
    std::vector<std::string> want;
    for (const exp::GtcPoint& p : series->points) {
      want.push_back(StrFormat("delta=%s gtc=%s rival=%s",
                               FormatDouble(p.delta).c_str(),
                               FormatDouble(p.gtc).c_str(),
                               p.worst_rival.c_str()));
    }
    EXPECT_EQ(LinesStartingWith(curve.body, "delta="), want);
  }
}

TEST(ServeEquivalenceTest, RacingRequestsMaterializeOneSharedPairContext) {
  runtime::ThreadPool pool(3);
  Dispatcher dispatcher(QuickDispatcherOptions(&pool));
  const AnalysisRequest request = MakeRequest(
      AnalysisKind::kGtcSeries, storage::LayoutPolicy::kSharedDevice, 6,
      {2.0, 100.0});

  // Every client reaches the cold dispatcher at once, so they race to
  // materialize the same (query, layout) context.
  constexpr size_t kClients = 4;
  std::latch start(kClients);
  std::vector<AnalysisResponse> responses(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      start.arrive_and_wait();
      responses[c] = dispatcher.Handle(request);
    });
  }
  for (std::thread& t : clients) t.join();

  for (size_t c = 0; c < kClients; ++c) {
    ASSERT_TRUE(responses[c].ok()) << "client " << c << ": "
                                   << responses[c].body;
    EXPECT_EQ(responses[c].body, responses[0].body) << "client " << c;
  }
  const DispatcherStats stats = dispatcher.stats();
  EXPECT_EQ(stats.contexts, 1u);
  EXPECT_EQ(stats.requests, kClients);
}

// ---------------------------------------------------------------------------
// The discovery memo
// ---------------------------------------------------------------------------

/// loadgen's three delta sets: with the three analysis kinds and the six
/// quick queries, the 54 distinct requests of a warm serving mix.
const std::vector<std::vector<double>> kWarmDeltaSets = {
    {100.0}, {2.0, 10.0, 100.0}, {10.0, 1000.0}};

TEST(ServeEquivalenceTest, MemoizedRepeatEqualsFresh) {
  runtime::ThreadPool pool(2);
  Dispatcher warm(QuickDispatcherOptions(&pool));
  for (int query : exp::QuickQueryNumbers()) {
    for (AnalysisKind kind : {AnalysisKind::kDiscovery,
                              AnalysisKind::kWorstCase,
                              AnalysisKind::kGtcSeries}) {
      for (const std::vector<double>& deltas : kWarmDeltaSets) {
        const AnalysisRequest request =
            MakeRequest(kind, storage::LayoutPolicy::kSharedDevice,
                        static_cast<uint16_t>(query), deltas);
        SCOPED_TRACE(StrFormat("Q%d %s deltas=%zu", query,
                               AnalysisKindName(kind), deltas.size()));
        // The reference: the first body of a dispatcher that has never
        // seen the pair, so it discovers through the oracle chain.
        Dispatcher fresh(QuickDispatcherOptions(&pool));
        const AnalysisResponse first = fresh.Handle(request);
        ASSERT_TRUE(first.ok()) << first.body;
        EXPECT_EQ(fresh.stats().discoveries, 1u);

        const AnalysisResponse warmed = warm.Handle(request);
        EXPECT_EQ(warmed.body, first.body);
        const DispatcherStats before = warm.stats();
        const AnalysisResponse repeat = warm.Handle(request);
        const DispatcherStats after = warm.stats();
        EXPECT_EQ(repeat.code, StatusCode::kOk);
        EXPECT_EQ(repeat.body, first.body);
        // The repeat probes nothing: no cache lookup, no discovery.
        EXPECT_EQ(after.cache.hits, before.cache.hits);
        EXPECT_EQ(after.cache.misses, before.cache.misses);
        EXPECT_EQ(after.discoveries, before.discoveries);
        EXPECT_EQ(after.discoveries_recalled,
                  before.discoveries_recalled + 1);
      }
    }
  }
  // Every kind and delta set whose widest band is the same box shares one
  // discovery: two boxes (delta 100 and 1000) per query.
  EXPECT_EQ(warm.stats().discoveries, 2 * exp::QuickQueryNumbers().size());
}

/// A worst-case request for Q6 on the shared device over the explicit box
/// TestBox() scaled by `scale`: distinct scales are distinct memo keys.
AnalysisRequest ScaledBoxRequest(double scale) {
  const core::Box base = TestBox();
  core::CostVector lower = base.lower();
  core::CostVector upper = base.upper();
  for (size_t i = 0; i < lower.size(); ++i) {
    lower[i] *= scale;
    upper[i] *= scale;
  }
  AnalysisRequest request = MakeRequest(
      AnalysisKind::kWorstCase, storage::LayoutPolicy::kSharedDevice, 6,
      {100.0});
  request.box = core::Box(std::move(lower), std::move(upper));
  return request;
}

TEST(DiscoveryMemoTest, KeepsTheNewestBoxesPerContext) {
  runtime::ThreadPool pool(2);
  Dispatcher dispatcher(QuickDispatcherOptions(&pool));
  constexpr size_t kBoxes = Dispatcher::kMemoBoxes + 5;
  std::vector<AnalysisRequest> requests;
  for (size_t i = 0; i < kBoxes; ++i) {
    requests.push_back(ScaledBoxRequest(1.0 + 0.125 * static_cast<double>(i)));
    const AnalysisResponse response = dispatcher.Handle(requests.back());
    ASSERT_TRUE(response.ok()) << "box " << i << ": " << response.body;
  }
  EXPECT_EQ(dispatcher.stats().discoveries, kBoxes);
  EXPECT_EQ(dispatcher.stats().discoveries_recalled, 0u);

  // The newest kMemoBoxes boxes are held: each is recalled.
  for (size_t i = kBoxes - Dispatcher::kMemoBoxes; i < kBoxes; ++i) {
    const AnalysisResponse response = dispatcher.Handle(requests[i]);
    ASSERT_TRUE(response.ok()) << "box " << i << ": " << response.body;
  }
  EXPECT_EQ(dispatcher.stats().discoveries, kBoxes);
  EXPECT_EQ(dispatcher.stats().discoveries_recalled, Dispatcher::kMemoBoxes);

  // The oldest was evicted: it discovers again, with the same body.
  const AnalysisResponse first = dispatcher.Handle(requests[0]);
  ASSERT_TRUE(first.ok()) << first.body;
  EXPECT_EQ(dispatcher.stats().discoveries, kBoxes + 1);
  Dispatcher fresh(QuickDispatcherOptions(&pool));
  EXPECT_EQ(first.body, fresh.Handle(requests[0]).body);
}

TEST(DiscoveryMemoTest, DeadlineBoundsOnlyTheDiscovery) {
  runtime::ThreadPool pool(2);
  Dispatcher dispatcher(QuickDispatcherOptions(&pool));
  AnalysisRequest tight = ScaledBoxRequest(1.0);
  tight.deadline_ns = 1;  // spent before the first probe completes

  // Cold, the request must probe, and its deadline expires.
  const AnalysisResponse cold = dispatcher.Handle(tight);
  EXPECT_EQ(cold.code, StatusCode::kDeadlineExceeded) << cold.body;

  AnalysisRequest relaxed = tight;
  relaxed.deadline_ns = 0;  // unlimited
  const AnalysisResponse warmed = dispatcher.Handle(relaxed);
  ASSERT_TRUE(warmed.ok()) << warmed.body;

  // Warm, the box is memoized: no probe runs, so the spent deadline does
  // not fail the request.
  const AnalysisResponse recalled = dispatcher.Handle(tight);
  EXPECT_EQ(recalled.code, StatusCode::kOk) << recalled.body;
  EXPECT_EQ(recalled.body, warmed.body);
  EXPECT_EQ(dispatcher.stats().discoveries_recalled, 1u);
}

TEST(DiscoveryMemoTest, ConcurrentRequestsForOneBoxShareOneAnswer) {
  runtime::ThreadPool pool(3);
  Dispatcher dispatcher(QuickDispatcherOptions(&pool));
  const AnalysisRequest request = MakeRequest(
      AnalysisKind::kGtcSeries, storage::LayoutPolicy::kSharedDevice, 11,
      {2.0, 10.0, 100.0});

  // Four clients reach the cold dispatcher at once and keep asking for
  // the same box, so misses race each other's inserts and later requests
  // race the first hits.
  constexpr size_t kClients = 4;
  constexpr size_t kRequestsPerClient = 8;
  std::latch start(kClients);
  std::vector<std::vector<AnalysisResponse>> responses(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      start.arrive_and_wait();
      for (size_t r = 0; r < kRequestsPerClient; ++r) {
        responses[c].push_back(dispatcher.Handle(request));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (size_t c = 0; c < kClients; ++c) {
    for (size_t r = 0; r < kRequestsPerClient; ++r) {
      ASSERT_TRUE(responses[c][r].ok())
          << "client " << c << " request " << r << ": "
          << responses[c][r].body;
      EXPECT_EQ(responses[c][r].body, responses[0][0].body)
          << "client " << c << " request " << r;
    }
  }
  const DispatcherStats stats = dispatcher.stats();
  EXPECT_GE(stats.discoveries, 1u);
  EXPECT_LE(stats.discoveries, kClients);
  EXPECT_EQ(stats.discoveries + stats.discoveries_recalled,
            kClients * kRequestsPerClient);
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
  const AnalysisResponse rejected = HandleInProcess(server, request);
  EXPECT_EQ(rejected.code, StatusCode::kUnavailable);
  EXPECT_FALSE(rejected.body.empty());
  server.admission().Release();

  const AnalysisResponse accepted = HandleInProcess(server, request);
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
  EXPECT_TRUE(HandleInProcess(server, request).ok());
  server.Shutdown();
  const AnalysisResponse after = HandleInProcess(server, request);
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
  const AnalysisResponse response = HandleInProcess(server, request);
  EXPECT_EQ(response.code, StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(response.body.empty());

  // The same request with room to breathe succeeds: the injected
  // latencies only age the clock, and each key faults once.
  AnalysisRequest relaxed = TestRequests()[1];
  relaxed.deadline_ns = 0;  // unlimited
  const AnalysisResponse ok = HandleInProcess(server, relaxed);
  EXPECT_TRUE(ok.ok()) << ok.body;

  // The relaxed request's fault-free discovery is memoized: the tight
  // request over the same box now runs no probe, so it meets neither the
  // injector nor its deadline and gets the relaxed request's body.
  const AnalysisResponse again = HandleInProcess(server, request);
  EXPECT_EQ(again.code, StatusCode::kOk) << again.body;
  EXPECT_EQ(again.body, ok.body);
  EXPECT_EQ(server.stats().dispatcher.discoveries_recalled, 1u);

  // A tight request over a box no request has discovered probes again,
  // and its deadline expires.
  AnalysisRequest unseen = request;
  unseen.deltas = {1000.0};
  const AnalysisResponse fresh = HandleInProcess(server, unseen);
  EXPECT_EQ(fresh.code, StatusCode::kDeadlineExceeded) << fresh.body;
  EXPECT_EQ(server.stats().dispatcher.discoveries_recalled, 1u);
}

// ---------------------------------------------------------------------------
// Sessions and malformed frames
// ---------------------------------------------------------------------------

/// Sends one undecodable `frame` on a fresh session and returns the reply
/// folded by a reassembler. The reply must be a lone status frame (no
/// header), and the session must then drop the connection: after a
/// framing error the stream position is untrustworthy.
AnalysisResponse RejectedFrameReply(const std::string& frame) {
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

  EXPECT_TRUE(client->SendFrame(frame).ok());
  Result<std::string> reply = client->RecvFrame();
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  ResponseReassembler reassembler;
  if (reply.ok()) {
    const Status fed = reassembler.Feed(*reply);
    EXPECT_TRUE(fed.ok()) << fed.ToString();
  }
  EXPECT_TRUE(reassembler.done());
  EXPECT_FALSE(reassembler.has_header());
  EXPECT_EQ(client->RecvFrame().status().code(), StatusCode::kNotFound);
  client->Close();  // unblocks a session that wrongly stayed open
  server_thread.join();
  return reassembler.response();
}

TEST(SessionTest, MalformedFrameGetsTypedErrorThenClose) {
  const AnalysisResponse response = RejectedFrameReply("not a request");
  EXPECT_EQ(response.code, StatusCode::kInvalidArgument);
  EXPECT_FALSE(response.body.empty());
}

TEST(SessionTest, Version1RequestGetsLoneStatusFrameThenClose) {
  // A well-formed request stamped with the retired wire version 1.
  AnalysisRequest request = TestRequests()[0];
  request.version = 1;
  const AnalysisResponse response = RejectedFrameReply(EncodeRequest(request));
  EXPECT_EQ(response.code, StatusCode::kInvalidArgument);
  EXPECT_NE(response.body.find("version 1"), std::string::npos)
      << response.body;
}

// ---------------------------------------------------------------------------
// Streamed responses over real sessions
// ---------------------------------------------------------------------------

TEST(SessionV2Test, StreamedResponsesMatchDispatcherHandle) {
  // For every request in the mix the reassembled CallV2 body must equal
  // Dispatcher::Handle's in-process body byte for byte — the frame
  // stream is a transport detail, not part of the analysis function.
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
    const AnalysisResponse direct = server.dispatcher().Handle(request);
    ASSERT_TRUE(direct.ok()) << direct.body;
    const Result<AnalysisResponse> streamed = CallV2(*client, request);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    EXPECT_EQ(streamed->code, direct.code);
    EXPECT_EQ(streamed->body, direct.body);
    EXPECT_FALSE(streamed->body.empty());
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
  // First byte 2 (the peer claims the current version) but the rest is
  // garbage: still a lone status frame, then close.
  std::string garbage = "garbage";
  garbage[0] = static_cast<char>(kProtocolVersionV2);
  const AnalysisResponse response = RejectedFrameReply(garbage);
  EXPECT_EQ(response.code, StatusCode::kInvalidArgument);
  EXPECT_FALSE(response.body.empty());
}

// ---------------------------------------------------------------------------
// Response bursts: how a response stream is handed to the transport
// ---------------------------------------------------------------------------

/// A transport that serves queued request frames and keeps every burst it
/// is handed, so a test can see the hand-offs and not just the bytes.
class RecordingTransport final : public FrameTransport {
 public:
  explicit RecordingTransport(std::deque<std::string> requests = {})
      : requests_(std::move(requests)) {}

  Status SendBurst(std::span<std::string> frames) override {
    bursts.emplace_back(frames.begin(), frames.end());
    return Status::Ok();
  }
  Result<std::string> RecvFrame() override {
    if (requests_.empty()) return Status::NotFound("end of stream");
    std::string frame = std::move(requests_.front());
    requests_.pop_front();
    return frame;
  }
  void Close() override {}

  std::vector<std::vector<std::string>> bursts;

 private:
  std::deque<std::string> requests_;
};

/// Keeps each Write as one record.
class RecordListSink final : public runtime::sink::Sink {
 public:
  Status Write(std::string_view record) override {
    records.emplace_back(record);
    return Status::Ok();
  }
  Status Flush() override { return Status::Ok(); }
  Status Close() override { return Status::Ok(); }

  std::vector<std::string> records;
};

/// The frames of `request`'s response, one per hand-off as they were
/// first sent: header, the records in frames of eight, terminal status.
/// Built from Dispatcher::HandleStreaming's records, which concatenate to
/// Dispatcher::Handle's body.
std::vector<std::string> ExpectedFrames(Dispatcher& dispatcher,
                                        const AnalysisRequest& request) {
  RecordListSink list;
  const Status analysis = dispatcher.HandleStreaming(request, list);
  const AnalysisResponse handled = dispatcher.Handle(request);
  if (analysis.ok()) {
    std::string body;
    for (const std::string& record : list.records) body += record;
    EXPECT_EQ(body, handled.body);
  }

  ResponseFrame header;
  header.type = ResponseFrameType::kHeader;
  header.kind = request.kind;
  header.policy = request.policy;
  header.query_number = request.query_number;
  std::vector<std::string> frames = {EncodeResponseFrame(header)};
  for (size_t i = 0; i < list.records.size();
       i += FrameRecordSink::kRecordsPerFrame) {
    const size_t end = std::min(list.records.size(),
                                i + FrameRecordSink::kRecordsPerFrame);
    frames.push_back(FrameOfRecords(std::vector<std::string>(
        list.records.begin() + static_cast<std::ptrdiff_t>(i),
        list.records.begin() + static_cast<std::ptrdiff_t>(end))));
  }
  frames.push_back(FrameOfStatus(analysis.code(),
                                 analysis.ok() ? "" : analysis.message()));
  return frames;
}

/// Serves `request` on a Session over a RecordingTransport, once the
/// server is warm for it, and returns the bursts the session sent.
std::vector<std::vector<std::string>> ServedBursts(
    Server& server, const AnalysisRequest& request) {
  (void)server.dispatcher().Handle(request);  // warm every probe
  auto transport = std::make_unique<RecordingTransport>(
      std::deque<std::string>{EncodeRequest(request)});
  RecordingTransport& recorder = *transport;
  Session session(server, std::move(transport));
  const Status st = session.Run();
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(session.requests_served(), 1u);
  return recorder.bursts;
}

/// The bursts' frames in send order.
std::vector<std::string> Flatten(
    const std::vector<std::vector<std::string>>& bursts) {
  std::vector<std::string> frames;
  for (const std::vector<std::string>& burst : bursts) {
    frames.insert(frames.end(), burst.begin(), burst.end());
  }
  return frames;
}

std::vector<size_t> BurstSizes(
    const std::vector<std::vector<std::string>>& bursts) {
  std::vector<size_t> sizes;
  for (const std::vector<std::string>& burst : bursts) {
    sizes.push_back(burst.size());
  }
  return sizes;
}

TEST(ResponseBurstTest, WarmWorstCaseIsOneHandOff) {
  runtime::ThreadPool pool(1);
  ServerOptions options;
  options.dispatcher = QuickDispatcherOptions(&pool);
  Server server(options);
  const AnalysisRequest request =
      MakeRequest(AnalysisKind::kWorstCase,
                  storage::LayoutPolicy::kSharedDevice, 11, {100.0});

  const std::vector<std::vector<std::string>> bursts =
      ServedBursts(server, request);
  const std::vector<std::string> expected =
      ExpectedFrames(server.dispatcher(), request);
  ASSERT_EQ(expected.size(), 3u);  // header, one records frame, status
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_EQ(bursts[0], expected);
}

TEST(ResponseBurstTest, LongSeriesStreamsEachFullBatch) {
  runtime::ThreadPool pool(1);
  ServerOptions options;
  options.dispatcher = QuickDispatcherOptions(&pool);
  Server server(options);
  // The prologue plus 20 delta lines: 21 records, so frames of 8, 8, 5.
  std::vector<double> deltas;
  for (int i = 0; i < 20; ++i) deltas.push_back(2.0 + i);
  const AnalysisRequest request =
      MakeRequest(AnalysisKind::kGtcSeries,
                  storage::LayoutPolicy::kSharedDevice, 6, deltas);

  const std::vector<std::vector<std::string>> bursts =
      ServedBursts(server, request);
  const std::vector<std::string> expected =
      ExpectedFrames(server.dispatcher(), request);
  ASSERT_EQ(expected.size(), 5u);  // header, 3 records frames, status
  EXPECT_EQ(BurstSizes(bursts), (std::vector<size_t>{2, 1, 2}));
  EXPECT_EQ(Flatten(bursts), expected);
  // The header rides with the first full batch; the last partial batch
  // rides with the status.
  const Result<ResponseFrame> first = DecodeResponseFrame(bursts[0][1]);
  const Result<ResponseFrame> last = DecodeResponseFrame(bursts[2][0]);
  ASSERT_TRUE(first.ok() && last.ok());
  EXPECT_EQ(first->records.size(), 8u);
  EXPECT_EQ(last->records.size(), 5u);
}

TEST(ResponseBurstTest, DimsMismatchIsHeaderAndStatusInOneHandOff) {
  runtime::ThreadPool pool(1);
  ServerOptions options;
  options.dispatcher = QuickDispatcherOptions(&pool);
  Server server(options);
  AnalysisRequest request =
      MakeRequest(AnalysisKind::kWorstCase,
                  storage::LayoutPolicy::kSharedDevice, 6, {100.0});
  const Result<core::Box> narrow = core::Box::Validated(
      core::CostVector({0.5, 0.25}), core::CostVector({8.0, 16.0}));
  ASSERT_TRUE(narrow.ok()) << narrow.status().ToString();
  request.box = *narrow;

  const std::vector<std::vector<std::string>> bursts =
      ServedBursts(server, request);
  const std::vector<std::string> expected =
      ExpectedFrames(server.dispatcher(), request);
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_EQ(bursts[0], expected);
  ASSERT_EQ(bursts[0].size(), 2u);
  const Result<ResponseFrame> status = DecodeResponseFrame(bursts[0][1]);
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_EQ(status->type, ResponseFrameType::kStatus);
  EXPECT_EQ(status->code, StatusCode::kInvalidArgument);
}

TEST(ResponseBurstTest, RecordSinkKeepsTheSinkContractAfterClose) {
  RecordingTransport transport;
  const AnalysisRequest request =
      MakeRequest(AnalysisKind::kDiscovery,
                  storage::LayoutPolicy::kSharedDevice, 1, {100.0});
  FrameRecordSink sink(transport, request);
  ASSERT_TRUE(sink.Write("only record").ok());
  ASSERT_TRUE(sink.Close().ok());
  ASSERT_EQ(transport.bursts.size(), 1u);
  ASSERT_EQ(transport.bursts[0].size(), 3u);  // header, records, kOk status
  EXPECT_EQ(transport.bursts[0][1], FrameOfRecords({"only record"}));
  EXPECT_EQ(transport.bursts[0][2], FrameOfStatus(StatusCode::kOk, ""));

  // After Close: Write and Flush are refused, a second Close (or Finish)
  // is a no-op success, and nothing more reaches the transport.
  EXPECT_EQ(sink.Write("late").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(sink.Flush().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(sink.Close().ok());
  EXPECT_TRUE(sink.Finish(Status::Internal("late failure")).ok());
  EXPECT_EQ(transport.bursts.size(), 1u);
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
  Result<AnalysisResponse> response = CallV2(**client, request);
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
      CallV2(*session.client, TestRequests()[0]);
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
  SnapshotterOptions snapshot_options;  // interval 0: manual ticks only
  StatsSnapshotter snapshotter(server, writer, snapshot_options);

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

TEST(SnapshotterTest, IdleTimeoutAloneRunsTheWatchdog) {
  // An idle timeout without a stats interval still reaps idle sessions
  // from the background thread, and writes no serve-stats record.
  const std::string path = "snapshotter_idle_test.jsonl";
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
  SnapshotterOptions snapshot_options;  // interval 0
  // The thread sleeps on the virtual clock, so its sleeps are what age
  // the session past the timeout.
  snapshot_options.clock = &clock;
  StatsSnapshotter snapshotter(server, writer, snapshot_options);
  {
    WedgedSession session(server);
    snapshotter.Start();
    // The real-time bound only turns a watchdog that never runs into a
    // failure instead of a hang.
    runtime::resilience::Clock& real = runtime::resilience::Clock::Real();
    const uint64_t give_up = real.NowNanos() + 10'000'000'000ULL;
    while (server.stats().idle_reaped == 0 && real.NowNanos() < give_up) {
      real.SleepFor(1'000'000);
    }
    snapshotter.Stop();
    // On failure the session is still wedged: return and let its
    // destructor close the client instead of joining here.
    ASSERT_EQ(server.stats().idle_reaped, 1u);
    session.thread.join();
    EXPECT_TRUE(session.run_status.ok()) << session.run_status.ToString();
  }
  EXPECT_EQ(snapshotter.ticks(), 0u);
  std::ifstream in(path);
  const std::string written((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(written.find("serve-stats"), std::string::npos) << written;
}

}  // namespace
}  // namespace costsense::serve
