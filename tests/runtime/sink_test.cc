// Tests of the composable sink stages: the Write/Flush/Close contract
// (post-Close use is a typed kFailedPrecondition, double Close is a
// no-op), CRC record framing against the shared Crc32, the atomic file
// stage's publish/abort crash contract, and a stacked chain torn down by
// one Close.
#include "runtime/sink/stages.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "runtime/sink/crc32.h"

namespace costsense::runtime::sink {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool FileExists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return in.good();
}

std::string BigEndian32(uint32_t v) {
  std::string out;
  for (int shift = 24; shift >= 0; shift -= 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Crc32
// ---------------------------------------------------------------------------

TEST(Crc32Test, MatchesTheIeeeCheckVectors) {
  EXPECT_EQ(Crc32(""), 0u);
  // The canonical CRC-32/IEEE check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_NE(Crc32("abc"), Crc32("abd"));
}

// ---------------------------------------------------------------------------
// StringSink: the terminal contract everything else is tested against
// ---------------------------------------------------------------------------

TEST(StringSinkTest, AppendsAndEnforcesTheCloseContract) {
  std::string out;
  StringSink sink(&out);
  ASSERT_TRUE(sink.Write("ab").ok());
  ASSERT_TRUE(sink.Write("cd").ok());
  ASSERT_TRUE(sink.Flush().ok());
  EXPECT_EQ(out, "abcd");

  ASSERT_TRUE(sink.Close().ok());
  EXPECT_TRUE(sink.Close().ok());  // second Close is a no-op success
  const Status late = sink.Write("x");
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(late.message().find("after Close"), std::string::npos);
  EXPECT_EQ(out, "abcd");  // the refused write left no bytes behind
}

// ---------------------------------------------------------------------------
// CrcFrameSink: one Write == one framed record
// ---------------------------------------------------------------------------

TEST(CrcFrameSinkTest, FramesEachRecordWithLengthAndCrc) {
  std::string out;
  StringSink leaf(&out);
  CrcFrameSink frames(leaf);
  ASSERT_TRUE(frames.Write("hello").ok());
  ASSERT_TRUE(frames.Write("").ok());
  ASSERT_TRUE(frames.Close().ok());

  std::string expected;
  expected += BigEndian32(5) + BigEndian32(Crc32("hello")) + "hello";
  expected += BigEndian32(0) + BigEndian32(Crc32(""));
  EXPECT_EQ(out, expected);
}

// ---------------------------------------------------------------------------
// File stages
// ---------------------------------------------------------------------------

TEST(FileSinkTest, OpensLazilySoAnUnusedChainTouchesNothing) {
  const std::string path = testing::TempDir() + "sink_test_lazy.bin";
  std::remove(path.c_str());
  {
    FileSink sink(path, FileSink::Mode::kAppend);
    ASSERT_TRUE(sink.Close().ok());
  }
  EXPECT_FALSE(FileExists(path));
}

TEST(AtomicFileSinkTest, ClosePublishesAndCleansTheStagingFile) {
  const std::string path = testing::TempDir() + "sink_test_atomic.bin";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());

  AtomicFileSink sink(path);
  ASSERT_TRUE(sink.Write("durable ").ok());
  ASSERT_TRUE(sink.Flush().ok());
  EXPECT_FALSE(FileExists(path));  // nothing published before Close
  ASSERT_TRUE(sink.Write("bytes").ok());
  ASSERT_TRUE(sink.Close().ok());
  EXPECT_EQ(ReadFile(path), "durable bytes");
  EXPECT_FALSE(FileExists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(AtomicFileSinkTest, AbortAndDestructorKeepThePreviousFile) {
  const std::string path = testing::TempDir() + "sink_test_abort.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "previous";
  }
  {
    AtomicFileSink sink(path);
    ASSERT_TRUE(sink.Write("half-written replacement").ok());
    sink.Abort();
    sink.Abort();  // idempotent
  }
  EXPECT_EQ(ReadFile(path), "previous");
  EXPECT_FALSE(FileExists(path + ".tmp"));

  {
    AtomicFileSink sink(path);
    ASSERT_TRUE(sink.Write("also abandoned").ok());
    // No Close: the destructor must behave like Abort.
  }
  EXPECT_EQ(ReadFile(path), "previous");
  EXPECT_FALSE(FileExists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(AtomicFileSinkTest, UnwritableDirectoryIsATypedError) {
  AtomicFileSink sink("/nonexistent-dir/sink_test.bin");
  const Status st = sink.Write("x");
  ASSERT_FALSE(st.ok());
  EXPECT_FALSE(st.message().empty());
  // The sink is dead after an I/O failure; later writes stay errors.
  EXPECT_FALSE(sink.Write("y").ok());
}

// ---------------------------------------------------------------------------
// A full chain: CRC framing over an atomic file
// ---------------------------------------------------------------------------

TEST(ChainTest, StackedStagesComposeAndTearDownWithOneClose) {
  const std::string path = testing::TempDir() + "sink_test_chain.bin";
  std::remove(path.c_str());
  std::string want;
  {
    AtomicFileSink file(path);
    CrcFrameSink frames(file);
    for (int i = 0; i < 50; ++i) {
      const std::string record = "chained artifact line " + std::to_string(i);
      ASSERT_TRUE(frames.Write(record).ok());
      want += BigEndian32(static_cast<uint32_t>(record.size())) +
              BigEndian32(Crc32(record)) + record;
    }
    ASSERT_TRUE(frames.Close().ok());  // closes the whole stack
  }
  EXPECT_EQ(ReadFile(path), want);
  EXPECT_FALSE(FileExists(path + ".tmp"));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace costsense::runtime::sink
