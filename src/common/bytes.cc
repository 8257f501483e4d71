#include "common/bytes.h"

#include <bit>

#include "common/strings.h"

namespace costsense {
namespace {

void PutBigEndian(std::string* out, uint64_t v, int bytes) {
  for (int shift = 8 * (bytes - 1); shift >= 0; shift -= 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

}  // namespace

void PutU8(std::string* out, uint8_t v) { PutBigEndian(out, v, 1); }
void PutU16(std::string* out, uint16_t v) { PutBigEndian(out, v, 2); }
void PutU32(std::string* out, uint32_t v) { PutBigEndian(out, v, 4); }
void PutU64(std::string* out, uint64_t v) { PutBigEndian(out, v, 8); }
void PutF64(std::string* out, double v) {
  PutU64(out, std::bit_cast<uint64_t>(v));
}

bool ByteReader::Fits(size_t n, const char* what) {
  if (!ok()) return false;
  if (rest_.size() < n) {
    failed_ = what;
    failed_remaining_ = rest_.size();
    return false;
  }
  return true;
}

uint64_t ByteReader::Take(size_t n, const char* what) {
  if (!Fits(n, what)) return 0;
  uint64_t v = 0;
  for (size_t i = 0; i < n; ++i) v = (v << 8) | static_cast<uint8_t>(rest_[i]);
  rest_.remove_prefix(n);
  return v;
}

double ByteReader::F64() { return std::bit_cast<double>(U64()); }

std::string_view ByteReader::Bytes(size_t n) {
  if (!Fits(n, "byte block")) return {};
  std::string_view v = rest_.substr(0, n);
  rest_.remove_prefix(n);
  return v;
}

Status ByteReader::status() const {
  if (ok()) return Status::Ok();
  return Status::InvalidArgument(
      StrFormat("truncated %s: expected %s with %zu byte(s) remaining",
                subject_, failed_, failed_remaining_));
}

}  // namespace costsense
