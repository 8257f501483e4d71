// protocol_fuzz: a seeded, deterministic mutation fuzzer for the
// costsense-serve wire protocol (version 2).
//
// One long-lived Server (quick analysis budgets, shared warm oracle
// cache) receives frames over the in-process transport — byte-for-byte
// the frames a socket client would send, with no kernel in the loop. Each
// iteration takes a request frame from a small pool (valid requests with
// and without feasible-region boxes, plus one otherwise well-formed
// request stamped with the retired version byte 1) and either passes it
// through untouched or mutates it: random bit flips, truncation to an
// arbitrary prefix, a lying delta-count field, splices of two pool
// frames, trailing junk, pure garbage, an oversized frame past
// kMaxFrameBytes, or a corrupted box section (flag lies, dimension lies,
// truncation inside the bounds, swapped lower/upper).
//
// Three iterations in twenty skip the server and attack the client-side
// ResponseReassembler instead: a synthetic valid response stream is
// truncated at a frame or record boundary, given a lying record length
// prefix, or spliced with a rogue terminal status frame mid-stream.
//
// The invariants asserted, per server frame (the first violation ends
// the run):
//   - the server never crashes (any crash fails the run);
//   - every accepted frame gets a reply stream the reassembler accepts —
//     never a grammar violation;
//   - a frame whose version byte is not 2 (the retired version 1
//     included) gets a lone kInvalidArgument status frame;
//   - the client re-runs DecodeRequest on the exact bytes it sent, so it
//     knows which fate the protocol mandates: an undecodable frame
//     (including a version-1 request) must come back as a lone status
//     frame carrying the decoder's own status code and then a clean
//     close (end of stream, not a hang); a decodable frame gets an
//     analysis response — a kOk one with a non-empty body — on a session
//     that stays open;
//   - the whole run finishes before a wall-clock deadline enforced by a
//     watchdog thread that aborts the process on expiry, so a wedged
//     Recv can never turn the fuzzer into an infinite hang.
//
// And per reassembler stream:
//   - Feed never crashes, and every rejection is a typed
//     kInvalidArgument;
//   - a stream cut at a frame boundary before its terminal status frame
//     never reports done() — truncation is always detectable;
//   - a stream that reassembles to kOk despite a mid-frame cut yields a
//     strict prefix of the original record bytes, never invented data;
//   - a rogue terminal status frame with frames still behind it is
//     always rejected.
//
// The mutation stream is a pure function of `seed`, so any failure
// reproduces with the same command line.
//
// Usage: protocol_fuzz [seed=N] [iters=N] [deadline_ms=N] [verbose=1]
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/feasible_region.h"
#include "engine/config.h"
#include "exp/report.h"
#include "runtime/resilience/clock.h"
#include "runtime/thread_pool.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/transport.h"

namespace costsense::fuzz {
namespace {

using serve::AnalysisKind;
using serve::AnalysisRequest;
using serve::AnalysisResponse;

/// Byte offset of the u16 delta-count field in an encoded request
/// (u8 version, u8 kind, u8 policy, u16 query, u64 deadline precede it).
constexpr size_t kDeltaCountOffset = 13;

/// A valid 3-dimensional feasible-region box (the shared-device cost
/// space: seek, transfer, cpu). Requests carrying it run real
/// explicit-box analyses under kSharedDevice and draw the dispatcher's
/// typed dimension-mismatch error under kPerTableColocated — both are
/// protocol-legal outcomes the invariants below accept.
core::Box FuzzBox() {
  Result<core::Box> box =
      core::Box::Validated(core::CostVector({0.5, 0.25, 0.125}),
                           core::CostVector({8.0, 16.0, 4.0}));
  return *box;
}

/// Builds the pool of request frames the mutator draws from: all three
/// analysis kinds over two layouts and two cheap queries, with and
/// without an explicit box, so pass-through iterations exercise real
/// analyses against the shared warm cache without blowing the smoke-test
/// budget — plus one well-formed request stamped version 1, which the
/// server must refuse with a lone kInvalidArgument status frame.
std::vector<std::string> PoolFrames() {
  std::vector<std::string> frames;
  const storage::LayoutPolicy policies[] = {
      storage::LayoutPolicy::kSharedDevice,
      storage::LayoutPolicy::kPerTableColocated};
  const uint16_t queries[] = {1, 6};
  for (const storage::LayoutPolicy policy : policies) {
    for (const uint16_t query : queries) {
      AnalysisRequest discovery;
      discovery.kind = AnalysisKind::kDiscovery;
      discovery.policy = policy;
      discovery.query_number = query;
      discovery.deltas = {100.0};
      frames.push_back(EncodeRequest(discovery));

      AnalysisRequest worst = discovery;
      worst.kind = AnalysisKind::kWorstCase;
      frames.push_back(EncodeRequest(worst));

      AnalysisRequest series = discovery;
      series.kind = AnalysisKind::kGtcSeries;
      series.deltas = {2.0, 10.0, 100.0};
      frames.push_back(EncodeRequest(series));

      AnalysisRequest boxed = worst;
      boxed.box = FuzzBox();
      frames.push_back(EncodeRequest(boxed));
    }
  }
  AnalysisRequest retired;
  retired.version = 1;
  frames.push_back(EncodeRequest(retired));
  return frames;
}

enum class Mutation : uint64_t {
  kPassThrough = 0,
  kBitFlips = 1,
  kTruncate = 2,
  kDeltaCountLie = 3,
  kSplice = 4,
  kTrailingJunk = 5,
  kGarbage = 6,
  kOversized = 7,
  kBoxCorrupt = 8,
  // The remaining classes never reach the server: they attack the
  // client-side ResponseReassembler with mutated response streams.
  kStreamTruncate = 9,
  kStreamLengthLie = 10,
  kStreamRogueStatus = 11,
};

const char* MutationName(Mutation m) {
  switch (m) {
    case Mutation::kPassThrough:       return "pass-through";
    case Mutation::kBitFlips:          return "bit-flips";
    case Mutation::kTruncate:          return "truncate";
    case Mutation::kDeltaCountLie:     return "delta-count-lie";
    case Mutation::kSplice:            return "splice";
    case Mutation::kTrailingJunk:      return "trailing-junk";
    case Mutation::kGarbage:           return "garbage";
    case Mutation::kOversized:         return "oversized";
    case Mutation::kBoxCorrupt:        return "box-corrupt";
    case Mutation::kStreamTruncate:    return "stream-truncate";
    case Mutation::kStreamLengthLie:   return "stream-length-lie";
    case Mutation::kStreamRogueStatus: return "stream-rogue-status";
  }
  return "?";
}

/// True for the classes that fuzz the ResponseReassembler in-process
/// instead of sending a frame to the server.
bool IsStreamMutation(Mutation m) {
  return m == Mutation::kStreamTruncate || m == Mutation::kStreamLengthLie ||
         m == Mutation::kStreamRogueStatus;
}

/// Draws the next frame to send. Pass-through gets a triple weight so the
/// server keeps doing real work between attacks; oversized gets a single
/// slot (it allocates kMaxFrameBytes + 1 every time).
Mutation PickMutation(Rng& rng) {
  const uint64_t roll = rng.Index(20);
  if (roll < 3) return Mutation::kPassThrough;
  if (roll < 6) return Mutation::kBitFlips;
  if (roll < 8) return Mutation::kTruncate;
  if (roll < 10) return Mutation::kDeltaCountLie;
  if (roll < 12) return Mutation::kSplice;
  if (roll < 14) return Mutation::kTrailingJunk;
  if (roll < 15) return Mutation::kGarbage;
  if (roll < 16) return Mutation::kOversized;
  if (roll < 17) return Mutation::kBoxCorrupt;
  if (roll < 18) return Mutation::kStreamTruncate;
  if (roll < 19) return Mutation::kStreamLengthLie;
  return Mutation::kStreamRogueStatus;
}

std::string RandomBytes(Rng& rng, size_t n) {
  std::string out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<char>(rng.Index(256)));
  }
  return out;
}

int Fail(uint64_t iter, Mutation mutation, const char* what,
         const Status& status) {
  std::fprintf(stderr,
               "protocol_fuzz: FAIL at iteration %llu (%s): %s: %s\n",
               static_cast<unsigned long long>(iter), MutationName(mutation),
               what, status.ToString().c_str());
  return 1;
}

std::string Mutate(Mutation mutation, Rng& rng,
                   const std::vector<std::string>& pool) {
  const std::string& base = pool[rng.Index(pool.size())];
  switch (mutation) {
    case Mutation::kPassThrough:
      return base;
    case Mutation::kBitFlips: {
      std::string frame = base;
      const uint64_t flips = 1 + rng.Index(8);
      for (uint64_t i = 0; i < flips; ++i) {
        const uint64_t bit = rng.Index(frame.size() * 8);
        frame[bit / 8] = static_cast<char>(
            static_cast<uint8_t>(frame[bit / 8]) ^ (1u << (bit % 8)));
      }
      return frame;
    }
    case Mutation::kTruncate:
      return base.substr(0, rng.Index(base.size()));
    case Mutation::kDeltaCountLie: {
      // Claim an arbitrary delta count while leaving the payload bytes
      // alone: the decoder must catch the length/content mismatch (or
      // the > kMaxDeltas bound), never read past the end.
      std::string frame = base;
      const uint16_t lie = static_cast<uint16_t>(rng.Index(1 << 16));
      frame[kDeltaCountOffset] = static_cast<char>(lie >> 8);
      frame[kDeltaCountOffset + 1] = static_cast<char>(lie & 0xff);
      return frame;
    }
    case Mutation::kSplice: {
      const std::string& other = pool[rng.Index(pool.size())];
      return base.substr(0, rng.Index(base.size() + 1)) +
             other.substr(rng.Index(other.size() + 1));
    }
    case Mutation::kTrailingJunk:
      return base + RandomBytes(rng, 1 + rng.Index(16));
    case Mutation::kGarbage:
      return RandomBytes(rng, rng.Index(64));
    case Mutation::kOversized:
      return std::string(serve::kMaxFrameBytes + 1, 'x');
    case Mutation::kBoxCorrupt: {
      // A fresh request with one delta and the 3-dim box, then targeted
      // surgery on the box section. Offsets: 15 bytes of fixed header + 8
      // for the single delta put has_box at 23, dims at 24, the six f64
      // bounds at 26.
      AnalysisRequest request;
      request.kind = AnalysisKind::kWorstCase;
      request.policy = rng.Index(2) == 0
                           ? storage::LayoutPolicy::kSharedDevice
                           : storage::LayoutPolicy::kPerTableColocated;
      request.query_number = rng.Index(2) == 0 ? 1 : 6;
      request.deltas = {100.0};
      request.box = FuzzBox();
      std::string frame = EncodeRequest(request);
      constexpr size_t kBoxOffset = 23;
      switch (rng.Index(4)) {
        case 0:  // has_box flag outside {0, 1}
          frame[kBoxOffset] = static_cast<char>(2 + rng.Index(254));
          break;
        case 1: {  // dimension-count lie
          const uint16_t lie = static_cast<uint16_t>(rng.Index(1 << 16));
          frame[kBoxOffset + 1] = static_cast<char>(lie >> 8);
          frame[kBoxOffset + 2] = static_cast<char>(lie & 0xff);
          break;
        }
        case 2:  // truncation inside the box section
          frame = frame.substr(
              0, kBoxOffset + rng.Index(frame.size() - kBoxOffset));
          break;
        default:  // swap the bound blocks: every lower lands above its upper
          std::swap_ranges(frame.begin() + kBoxOffset + 3,
                           frame.begin() + kBoxOffset + 3 + 24,
                           frame.begin() + kBoxOffset + 3 + 24);
          break;
      }
      return frame;
    }
    case Mutation::kStreamTruncate:
    case Mutation::kStreamLengthLie:
    case Mutation::kStreamRogueStatus:
      break;  // handled by FuzzStream, never encoded as a request
  }
  return base;
}

/// A synthetic, valid response stream — header, one to three record
/// frames, terminal OK status — plus the concatenated record bytes it
/// should reassemble to.
std::vector<std::string> ValidStream(Rng& rng, std::string* body) {
  body->clear();
  std::vector<std::string> frames;
  serve::ResponseFrame header;
  header.type = serve::ResponseFrameType::kHeader;
  header.kind = static_cast<AnalysisKind>(rng.Index(3));
  header.policy = rng.Index(2) == 0 ? storage::LayoutPolicy::kSharedDevice
                                    : storage::LayoutPolicy::kPerTableColocated;
  header.query_number = static_cast<uint16_t>(1 + rng.Index(22));
  frames.push_back(EncodeResponseFrame(header));
  const uint64_t record_frames = 1 + rng.Index(3);
  for (uint64_t f = 0; f < record_frames; ++f) {
    serve::ResponseFrame records;
    records.type = serve::ResponseFrameType::kRecords;
    const uint64_t count = 1 + rng.Index(4);
    for (uint64_t r = 0; r < count; ++r) {
      records.records.push_back(RandomBytes(rng, rng.Index(32)));
      body->append(records.records.back());
    }
    frames.push_back(EncodeResponseFrame(records));
  }
  serve::ResponseFrame status;
  status.type = serve::ResponseFrameType::kStatus;
  status.code = StatusCode::kOk;
  frames.push_back(EncodeResponseFrame(status));
  return frames;
}

/// Feeds a mutated response stream to a fresh ResponseReassembler and
/// checks the class-specific invariant. Returns 0 on pass.
int FuzzStream(Mutation mutation, Rng& rng, uint64_t iter) {
  std::string body;
  std::vector<std::string> frames = ValidStream(rng, &body);
  bool cut_at_frame_boundary = false;
  switch (mutation) {
    case Mutation::kStreamTruncate:
      if (rng.Index(2) == 0) {
        // Frame-boundary cut: drop the tail (always including the
        // terminal status frame... or a whole record frame plus it).
        frames.resize(1 + rng.Index(frames.size() - 1));
        cut_at_frame_boundary = true;
      } else {
        // Mid-frame cut: sever one frame's bytes at an arbitrary point
        // (possibly inside a record length prefix) and drop the rest.
        const uint64_t victim = rng.Index(frames.size());
        frames[victim] =
            frames[victim].substr(0, rng.Index(frames[victim].size()));
        frames.resize(victim + 1);
      }
      break;
    case Mutation::kStreamLengthLie: {
      // Rewrite the first record's u32 length prefix in the first
      // records frame: half the draws lie huge (must be rejected — the
      // claimed record runs past the frame), half lie small (shifts
      // record boundaries; the stream may still parse, but must never
      // crash or hang).
      std::string& frame = frames[1];
      const uint32_t lie = rng.Index(2) == 0
                               ? static_cast<uint32_t>(rng.Index(1u << 31))
                               : static_cast<uint32_t>(rng.Index(32));
      frame[2] = static_cast<char>(lie >> 24);
      frame[3] = static_cast<char>((lie >> 16) & 0xff);
      frame[4] = static_cast<char>((lie >> 8) & 0xff);
      frame[5] = static_cast<char>(lie & 0xff);
      break;
    }
    case Mutation::kStreamRogueStatus: {
      // Splice a terminal status frame in with frames still behind it:
      // whatever state it lands in, the reassembler must reject the
      // stream rather than silently drop the tail.
      serve::ResponseFrame rogue;
      rogue.type = serve::ResponseFrameType::kStatus;
      if (rng.Index(2) == 0) {
        rogue.code = StatusCode::kOk;
      } else {
        rogue.code = StatusCode::kDeadlineExceeded;
        rogue.message = "rogue";
      }
      frames.insert(frames.begin() + rng.Index(frames.size() - 1),
                    EncodeResponseFrame(rogue));
      break;
    }
    default:
      break;
  }

  serve::ResponseReassembler reassembler;
  Status error = Status::Ok();
  for (const std::string& frame : frames) {
    error = reassembler.Feed(frame);
    if (!error.ok()) break;
  }
  if (!error.ok() && error.code() != StatusCode::kInvalidArgument) {
    return Fail(iter, mutation, "stream rejected with wrong code", error);
  }
  switch (mutation) {
    case Mutation::kStreamTruncate:
      if (cut_at_frame_boundary && error.ok() && reassembler.done()) {
        // Every frame up to the cut is individually valid, so no Feed
        // may fail — but the missing terminal frame must be missed.
        return Fail(iter, mutation,
                    "frame-boundary truncation reported a complete stream",
                    Status::Ok());
      }
      if (error.ok() && reassembler.done() &&
          reassembler.response().code == StatusCode::kOk) {
        const std::string& got = reassembler.response().body;
        if (got.size() > body.size() ||
            body.compare(0, got.size(), got) != 0) {
          return Fail(iter, mutation,
                      "truncated stream reassembled to a non-prefix",
                      Status::Ok());
        }
      }
      break;
    case Mutation::kStreamRogueStatus:
      if (error.ok()) {
        return Fail(iter, mutation, "rogue status frame accepted silently",
                    Status::Ok());
      }
      break;
    default:
      break;  // length-lie: typed-error-or-parse is all that must hold
  }
  return 0;
}

/// One live session against the shared server: the client endpoint plus
/// the thread running the server half. Recreated whenever the session
/// closes (which the protocol mandates after any malformed frame).
struct LiveSession {
  std::unique_ptr<serve::InProcessTransport> client;
  std::thread server_thread;

  explicit LiveSession(serve::Server& server) {
    auto [client_end, server_end] = serve::InProcessTransport::CreatePair();
    client = std::move(client_end);
    std::unique_ptr<serve::FrameTransport> transport = std::move(server_end);
    server_thread = std::thread([&server, t = std::move(transport)]() mutable {
      serve::Session session(server, std::move(t));
      // Malformed frames end sessions with kInvalidArgument by design;
      // the fuzzer's invariants live on the client side of the pair.
      const Status status = session.Run();
      (void)status;
    });
  }

  ~LiveSession() {
    client->Close();
    if (server_thread.joinable()) server_thread.join();
  }
};

struct FuzzTally {
  uint64_t sent = 0;
  uint64_t ok_responses = 0;
  uint64_t typed_errors = 0;
  uint64_t client_rejected = 0;
  uint64_t eof_after_send = 0;
  uint64_t sessions = 0;
  uint64_t streams = 0;  // reassembler streams fuzzed in-process
};

int Run(uint64_t seed, uint64_t iters, uint64_t deadline_ms, bool verbose) {
  // Watchdog: the whole run must finish before the deadline. A server
  // that swallows a frame without responding would park the fuzzer in
  // RecvFrame forever; this turns that hang into a loud abort.
  std::atomic<bool> done{false};
  std::thread watchdog([&done, deadline_ms] {
    runtime::resilience::Clock& clk = runtime::resilience::Clock::Real();
    const uint64_t deadline_ns = deadline_ms * 1'000'000ULL;
    const uint64_t start = clk.NowNanos();
    while (!done.load(std::memory_order_acquire)) {
      if (clk.NowNanos() - start >= deadline_ns) {
        std::fprintf(stderr,
                     "protocol_fuzz: HANG — run exceeded %llu ms deadline\n",
                     static_cast<unsigned long long>(deadline_ms));
        std::abort();
      }
      clk.SleepFor(10'000'000);  // re-check every 10 ms
    }
  });

  runtime::ThreadPool pool(1);
  serve::ServerOptions options;
  options.dispatcher.pool = &pool;
  // The quick discovery budget: accidental valid mutants trigger real
  // analyses, and each must cost tens of milliseconds, not seconds.
  options.dispatcher.discovery = exp::QuickDiscovery();
  serve::Server server(options);

  const std::vector<std::string> pool_frames = PoolFrames();
  Rng rng(seed);
  FuzzTally tally;
  int exit_code = 0;

  std::unique_ptr<LiveSession> session =
      std::make_unique<LiveSession>(server);
  ++tally.sessions;

  for (uint64_t iter = 0; iter < iters && exit_code == 0; ++iter) {
    if (verbose && iter > 0 && iter % 1000 == 0) {
      std::fprintf(stderr, "protocol_fuzz: %llu/%llu iterations\n",
                   static_cast<unsigned long long>(iter),
                   static_cast<unsigned long long>(iters));
    }
    const Mutation mutation = PickMutation(rng);
    if (IsStreamMutation(mutation)) {
      exit_code = FuzzStream(mutation, rng, iter);
      ++tally.streams;
      continue;
    }
    const std::string frame = Mutate(mutation, rng, pool_frames);
    if (verbose) {
      std::fprintf(stderr, "protocol_fuzz: iter=%llu %s len=%zu ",
                   static_cast<unsigned long long>(iter),
                   MutationName(mutation), frame.size());
      for (size_t i = 0; i < frame.size() && i < 64; ++i) {
        std::fprintf(stderr, "%02x", static_cast<uint8_t>(frame[i]));
      }
      std::fprintf(stderr, "\n");
    }

    // The client knows the bytes it sent, so it can predict the server's
    // move: an undecodable frame must come back as a lone status frame
    // with the decoder's exact status code followed by a clean close; a
    // decodable frame gets an analysis response (any typed code — a
    // mutant may still carry an impossible deadline) on a session that
    // stays open.
    const Result<AnalysisRequest> predicted = serve::DecodeRequest(frame);

    const Status sent = session->client->SendFrame(frame);
    if (!sent.ok()) {
      // The transport itself may reject a frame (oversized) — that must
      // be a typed error, and the session must stay usable.
      if (sent.code() != StatusCode::kInvalidArgument) {
        exit_code = Fail(iter, mutation, "send rejected with wrong code", sent);
        break;
      }
      ++tally.client_rejected;
      continue;
    }
    ++tally.sent;

    // The one reply oracle: whatever was sent, the reply is a frame
    // stream the reassembler must accept end to end.
    serve::ResponseReassembler reassembler;
    bool eof = false;
    while (exit_code == 0 && !eof && !reassembler.done()) {
      Result<std::string> piece = session->client->RecvFrame();
      if (!piece.ok()) {
        if (piece.status().code() == StatusCode::kNotFound) {
          eof = true;
        } else {
          exit_code = Fail(iter, mutation, "recv failed", piece.status());
        }
        continue;
      }
      const Status fed = reassembler.Feed(*piece);
      if (!fed.ok()) {
        exit_code =
            Fail(iter, mutation, "server stream rejected by reassembler", fed);
      }
    }
    if (exit_code != 0) break;
    if (eof) {
      // End of stream before the terminal frame: the session's send path
      // failed after our frame arrived. Reconnect.
      ++tally.eof_after_send;
      session = std::make_unique<LiveSession>(server);
      ++tally.sessions;
      continue;
    }
    const AnalysisResponse& reply = reassembler.response();

    // Independent of the decoder: version 2 is the only wire version, so
    // any other version byte (the retired 1 included) is refused.
    const bool foreign_version =
        frame.empty() ||
        static_cast<uint8_t>(frame[0]) != serve::kProtocolVersionV2;
    if (foreign_version && (reassembler.has_header() ||
                            reply.code != StatusCode::kInvalidArgument)) {
      exit_code = Fail(iter, mutation,
                       "foreign version byte not refused with a lone "
                       "kInvalidArgument status frame",
                       Status::Ok());
      break;
    }

    if (!predicted.ok()) {
      // Malformed frame: a lone status frame mirroring the decoder's own
      // verdict, then the session drops the connection — the next recv
      // must be a clean end of stream, then we reconnect.
      ++tally.typed_errors;
      if (reassembler.has_header()) {
        exit_code = Fail(iter, mutation,
                         "bad frame not answered by a lone status frame",
                         predicted.status());
        break;
      }
      if (reply.code != predicted.status().code()) {
        exit_code = Fail(iter, mutation, "wrong error code for bad frame",
                         predicted.status());
        break;
      }
      const Result<std::string> eof_frame = session->client->RecvFrame();
      if (eof_frame.ok() ||
          eof_frame.status().code() != StatusCode::kNotFound) {
        exit_code = Fail(iter, mutation, "no clean close after error",
                         eof_frame.ok() ? Status::Ok() : eof_frame.status());
        break;
      }
      session = std::make_unique<LiveSession>(server);
      ++tally.sessions;
      continue;
    }

    // Valid request: the response carries whatever typed code the
    // analysis produced and the session stays open for the next frame.
    // kOk responses must carry the rendered analysis.
    if (reply.ok()) {
      ++tally.ok_responses;
      if (reply.body.empty()) {
        exit_code = Fail(iter, mutation, "empty success body", Status::Ok());
        break;
      }
    } else {
      ++tally.typed_errors;
    }
  }

  session.reset();
  server.Shutdown();
  done.store(true, std::memory_order_release);
  watchdog.join();

  if (exit_code == 0) {
    std::printf(
        "protocol_fuzz: PASS seed=%llu iters=%llu sent=%llu ok=%llu "
        "typed_errors=%llu client_rejected=%llu eof_after_send=%llu "
        "sessions=%llu streams=%llu\n",
        static_cast<unsigned long long>(seed),
        static_cast<unsigned long long>(iters),
        static_cast<unsigned long long>(tally.sent),
        static_cast<unsigned long long>(tally.ok_responses),
        static_cast<unsigned long long>(tally.typed_errors),
        static_cast<unsigned long long>(tally.client_rejected),
        static_cast<unsigned long long>(tally.eof_after_send),
        static_cast<unsigned long long>(tally.sessions),
        static_cast<unsigned long long>(tally.streams));
  }
  return exit_code;
}

int Main(int argc, char** argv) {
  size_t seed = 1;
  size_t iters = 10000;
  size_t deadline_ms = 300000;
  size_t verbose = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto eq = arg.find('=');
    const std::string_view key =
        eq == std::string_view::npos ? arg : arg.substr(0, eq);
    size_t* target = key == "seed"          ? &seed
                     : key == "iters"       ? &iters
                     : key == "deadline_ms" ? &deadline_ms
                     : key == "verbose"     ? &verbose
                                            : nullptr;
    if (target == nullptr || eq == std::string_view::npos) {
      std::fprintf(stderr, "protocol_fuzz: unknown argument %s\n", argv[i]);
      return 2;
    }
    // A run of no iterations or no time proves nothing, so both need 1.
    const size_t min_value = key == "iters" || key == "deadline_ms" ? 1 : 0;
    const Status parsed =
        engine::ParseSize(key, arg.substr(eq + 1), min_value, target);
    if (!parsed.ok()) {
      std::fprintf(stderr, "protocol_fuzz: %s\n", parsed.ToString().c_str());
      return 2;
    }
  }
  return Run(seed, iters, deadline_ms, verbose != 0);
}

}  // namespace
}  // namespace costsense::fuzz

int main(int argc, char** argv) { return costsense::fuzz::Main(argc, argv); }
