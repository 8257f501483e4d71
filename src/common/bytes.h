#ifndef COSTSENSE_COMMON_BYTES_H_
#define COSTSENSE_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace costsense {

/// The one big-endian byte codec. The wire protocol (serve/protocol.h),
/// its frame prefix, the CRC framing stage and the oracle-cache snapshot
/// format all encode through it: every multi-byte integer is big-endian,
/// and a double travels as the big-endian bytes of its IEEE-754
/// representation, so encoded bytes are the same on every host.
void PutU8(std::string* out, uint8_t v);
void PutU16(std::string* out, uint16_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutF64(std::string* out, double v);

/// Bounds-checked reader for the bytes the Put* functions write. A read
/// that needs more bytes than remain returns 0 (an empty view for Bytes)
/// and fails the reader; the failure is sticky, so every later read fails
/// too and a caller may check ok() once per record or after every field.
class ByteReader {
 public:
  /// `subject` names the data in the truncation message (e.g. "frame
  /// payload").
  explicit ByteReader(std::string_view data, const char* subject = "data")
      : rest_(data), subject_(subject) {}

  uint8_t U8() { return static_cast<uint8_t>(Take(1, "u8")); }
  uint16_t U16() { return static_cast<uint16_t>(Take(2, "u16")); }
  uint32_t U32() { return static_cast<uint32_t>(Take(4, "u32")); }
  uint64_t U64() { return Take(8, "u64"); }
  double F64();
  std::string_view Bytes(size_t n);

  bool ok() const { return failed_ == nullptr; }
  size_t remaining() const { return rest_.size(); }

  /// Ok while every read fit; otherwise kInvalidArgument naming the first
  /// read that did not: "truncated <subject>: expected u16 with 1 byte(s)
  /// remaining".
  [[nodiscard]] Status status() const;

 private:
  uint64_t Take(size_t n, const char* what);
  /// Fails the reader unless `n` bytes remain; true when they do.
  bool Fits(size_t n, const char* what);

  std::string_view rest_;
  const char* subject_;
  const char* failed_ = nullptr;  // the first read that did not fit
  size_t failed_remaining_ = 0;
};

}  // namespace costsense

#endif  // COSTSENSE_COMMON_BYTES_H_
