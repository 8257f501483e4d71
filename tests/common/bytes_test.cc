// Pins of the shared byte primitives: the big-endian codec every wire and
// snapshot format goes through, and FNV-1a. The expected bytes and hash
// values are written out literally, so a change to either primitive shows
// here before it silently re-keys snapshots or moves golden output.
#include "common/bytes.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/hash.h"

namespace costsense {
namespace {

TEST(BytesTest, PutWritesBigEndian) {
  std::string out;
  PutU8(&out, 0x01);
  PutU16(&out, 0x0203);
  PutU32(&out, 0x04050607);
  PutU64(&out, 0x08090a0b0c0d0e0fULL);
  PutF64(&out, 1.0);  // IEEE-754 0x3ff0000000000000
  EXPECT_EQ(out, std::string("\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b"
                             "\x0c\x0d\x0e\x0f\x3f\xf0\0\0\0\0\0\0",
                             23));
}

TEST(BytesTest, ReaderRoundTripsEveryWidth) {
  std::string out;
  PutU8(&out, 0xfe);
  PutU16(&out, 0xbeef);
  PutU32(&out, 0xdeadbeef);
  PutU64(&out, 0x0123456789abcdefULL);
  PutF64(&out, -0.0);
  PutF64(&out, 24.1);
  out += "tail";

  ByteReader r(out);
  EXPECT_EQ(r.U8(), 0xfe);
  EXPECT_EQ(r.U16(), 0xbeef);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefULL);
  const double negative_zero = r.F64();
  EXPECT_EQ(negative_zero, 0.0);
  EXPECT_TRUE(std::signbit(negative_zero));
  EXPECT_EQ(r.F64(), 24.1);
  EXPECT_EQ(r.remaining(), 4u);
  EXPECT_EQ(r.Bytes(4), "tail");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.status().ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BytesTest, EachTruncationIsATypedErrorNamingTheRead) {
  const struct {
    size_t size;
    uint64_t (*read)(ByteReader&);
    const char* message;
  } kCases[] = {
      {0, [](ByteReader& r) -> uint64_t { return r.U8(); },
       "truncated frame payload: expected u8 with 0 byte(s) remaining"},
      {1, [](ByteReader& r) -> uint64_t { return r.U16(); },
       "truncated frame payload: expected u16 with 1 byte(s) remaining"},
      {3, [](ByteReader& r) -> uint64_t { return r.U32(); },
       "truncated frame payload: expected u32 with 3 byte(s) remaining"},
      {7, [](ByteReader& r) -> uint64_t { return r.U64(); },
       "truncated frame payload: expected u64 with 7 byte(s) remaining"},
      {7,
       [](ByteReader& r) -> uint64_t {
         return static_cast<uint64_t>(r.F64());
       },
       "truncated frame payload: expected u64 with 7 byte(s) remaining"},
      {4, [](ByteReader& r) -> uint64_t { return r.Bytes(5).size(); },
       "truncated frame payload: expected byte block with 4 byte(s) "
       "remaining"},
  };
  for (const auto& c : kCases) {
    const std::string data(c.size, '\xff');
    ByteReader r(data, "frame payload");
    EXPECT_EQ(c.read(r), 0u) << c.message;
    EXPECT_FALSE(r.ok());
    // A failed read consumes nothing.
    EXPECT_EQ(r.remaining(), c.size);
    const Status st = r.status();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(st.message(), c.message);
  }
}

TEST(BytesTest, FailureIsStickyAndReportsTheFirstShortRead) {
  const std::string data("\x00\x05\x01", 3);
  ByteReader r(data, "snapshot");
  EXPECT_EQ(r.U16(), 5u);
  EXPECT_EQ(r.U32(), 0u);  // 1 byte left: fails
  EXPECT_EQ(r.U8(), 0u);   // would fit, but the reader has failed
  EXPECT_EQ(r.Bytes(0), "");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "truncated snapshot: expected u32 with 1 byte(s) remaining");
}

TEST(HashTest, Fnv1aMatchesPinnedValues) {
  // The published FNV-1a test vectors ("", "a", "foobar") plus a scope
  // string; the chained form must equal the one-shot form.
  EXPECT_EQ(Fnv1a(kFnv1aOffsetBasis, ""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a(kFnv1aOffsetBasis, "a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a(kFnv1aOffsetBasis, "foobar"), 0x85944171f73967e8ULL);
  EXPECT_EQ(Fnv1a(kFnv1aOffsetBasis, "Q6/shared"), 0xcfc222a6766b799aULL);
  EXPECT_EQ(Fnv1a(Fnv1a(kFnv1aOffsetBasis, "foo"), "bar"),
            0x85944171f73967e8ULL);
}

TEST(HashTest, Fnv1aU64FoldsLittleEndianBytes) {
  EXPECT_EQ(Fnv1aU64(kFnv1aOffsetBasis, 0x0000726162006f6fULL),
            Fnv1a(kFnv1aOffsetBasis, std::string("oo\0bar\0\0", 8)));
}

}  // namespace
}  // namespace costsense
