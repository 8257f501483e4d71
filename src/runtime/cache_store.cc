#include "runtime/cache_store.h"

#include <cstring>
#include <fstream>
#include <utility>

#include "common/bytes.h"
#include "runtime/sink/stages.h"

namespace costsense::runtime {
namespace {

constexpr char kMagic[4] = {'C', 'S', 'O', 'C'};
constexpr uint32_t kFormatVersion = 1;
/// Upper bound on a single record body; anything larger is a corrupt or
/// adversarial length field, not a real entry (the largest legitimate body
/// is a few KiB: scope + plan id + ~64 coordinates + usage vector).
constexpr uint32_t kMaxRecordBytes = 1 << 20;

std::string EncodeRecordBody(std::string_view scope,
                             const OracleCacheEntry& entry) {
  std::string body;
  PutU16(&body, static_cast<uint16_t>(scope.size()));
  body.append(scope);
  PutU16(&body, static_cast<uint16_t>(entry.key.size()));
  for (uint64_t q : entry.key) PutU64(&body, q);
  PutU16(&body, static_cast<uint16_t>(entry.result.plan_id.size()));
  body.append(entry.result.plan_id);
  PutF64(&body, entry.result.total_cost);
  PutU8(&body, entry.result.usage.has_value() ? 1 : 0);
  if (entry.result.usage.has_value()) {
    PutU16(&body, static_cast<uint16_t>(entry.result.usage->size()));
    for (double u : *entry.result.usage) PutF64(&body, u);
  }
  return body;
}

/// Decodes one record body into (scope, entry). Returns false when the
/// body is malformed (short fields or trailing bytes).
bool DecodeRecordBody(std::string_view body, std::string& scope,
                      OracleCacheEntry& entry) {
  ByteReader r(body);
  scope = std::string(r.Bytes(r.U16()));
  const uint16_t dims = r.U16();
  entry.key.clear();
  entry.key.reserve(dims);
  for (uint16_t i = 0; i < dims && r.ok(); ++i) entry.key.push_back(r.U64());
  entry.result.plan_id = std::string(r.Bytes(r.U16()));
  entry.result.total_cost = r.F64();
  entry.result.usage.reset();
  if (r.U8() != 0) {
    const uint16_t n = r.U16();
    std::vector<double> usage;
    usage.reserve(n);
    for (uint16_t i = 0; i < n && r.ok(); ++i) usage.push_back(r.F64());
    if (r.ok()) entry.result.usage = core::UsageVector(std::move(usage));
  }
  return r.ok() && r.remaining() == 0;
}

}  // namespace

CacheStore::CacheStore(CacheStoreOptions options)
    : options_(std::move(options)) {
  std::lock_guard<std::mutex> lock(mu_);
  LoadLocked();
}

void CacheStore::LoadLocked() {
  if (options_.path.empty()) return;
  std::ifstream in(options_.path, std::ios::binary);
  if (!in) return;  // No snapshot yet: a silent cold start.
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  if (bytes.empty()) {
    // A zero-byte file is the classic torn-write artifact (created, then
    // the writer died before any bytes landed) — truncation, not a
    // foreign format.
    telemetry_.rejected_truncated = 1;
    return;
  }

  ByteReader r(bytes);
  // Header. Magic/version problems are reported as rejected_version even
  // when the file is too short to hold the magic: a 2-byte file is not a
  // truncated snapshot, it is not a snapshot.
  std::string_view magic = r.Bytes(sizeof(kMagic));
  const uint32_t version = r.U32();
  if (!r.ok() || std::memcmp(magic.data(), kMagic, sizeof(kMagic)) != 0 ||
      version != kFormatVersion) {
    telemetry_.rejected_version = 1;
    return;
  }
  const uint64_t catalog_hash = r.U64();
  const uint32_t mantissa_bits = r.U32();
  const uint64_t record_count = r.U64();
  if (!r.ok()) {
    telemetry_.rejected_truncated = 1;
    return;
  }
  if (catalog_hash != options_.catalog_hash) {
    telemetry_.rejected_catalog = 1;
    return;
  }
  if (mantissa_bits != static_cast<uint32_t>(kKeyMantissaBits)) {
    telemetry_.rejected_quantization = 1;
    return;
  }

  // Records: validate every length and CRC before publishing anything, so
  // a snapshot is only ever adopted whole.
  std::map<std::string, std::vector<OracleCacheEntry>, std::less<>> staged;
  for (uint64_t i = 0; i < record_count; ++i) {
    const uint32_t body_len = r.U32();
    const uint32_t crc = r.U32();
    if (!r.ok() || body_len > kMaxRecordBytes || r.remaining() < body_len) {
      telemetry_.rejected_truncated = 1;
      return;
    }
    std::string_view body = r.Bytes(body_len);
    if (Crc32(body) != crc) {
      telemetry_.rejected_crc = 1;
      return;
    }
    std::string scope;
    OracleCacheEntry entry;
    if (!DecodeRecordBody(body, scope, entry)) {
      telemetry_.rejected_truncated = 1;
      return;
    }
    staged[std::move(scope)].push_back(std::move(entry));
  }
  if (r.remaining() != 0) {
    // Trailing garbage after the declared records: refuse it too.
    telemetry_.rejected_truncated = 1;
    return;
  }

  scopes_ = std::move(staged);
  telemetry_.loaded = record_count;
}

std::vector<OracleCacheEntry> CacheStore::EntriesFor(
    std::string_view scope) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = scopes_.find(scope);
  if (it == scopes_.end()) return {};
  return it->second;
}

void CacheStore::Publish(std::string_view scope,
                         std::vector<OracleCacheEntry> entries) {
  std::lock_guard<std::mutex> lock(mu_);
  scopes_.insert_or_assign(std::string(scope), std::move(entries));
}

Status CacheStore::Save() {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.path.empty()) {
    return Status::FailedPrecondition("cache store has no path configured");
  }

  // The snapshot streams through a sink chain: raw header bytes, then the
  // CRC framing stage (one Write per record body), all into a crash-safe
  // atomic file (tmp + fsync + rename on Close). A failure at any stage
  // aborts the staging file and the previous snapshot survives.
  sink::AtomicFileSink file(options_.path);
  std::string header;
  header.append(kMagic, sizeof(kMagic));
  PutU32(&header, kFormatVersion);
  PutU64(&header, options_.catalog_hash);
  PutU32(&header, static_cast<uint32_t>(kKeyMantissaBits));
  uint64_t record_count = 0;
  for (const auto& [scope, entries] : scopes_) {
    record_count += entries.size();
  }
  PutU64(&header, record_count);
  Status st = file.Write(header);
  if (!st.ok()) return st;

  sink::CrcFrameSink framed(file);
  for (const auto& [scope, entries] : scopes_) {
    for (const OracleCacheEntry& entry : entries) {
      st = framed.Write(EncodeRecordBody(scope, entry));
      if (!st.ok()) {
        file.Abort();
        return st;
      }
    }
  }
  st = framed.Close();
  if (!st.ok()) return st;
  telemetry_.saved = record_count;
  return Status::Ok();
}

CacheStoreTelemetry CacheStore::telemetry() const {
  std::lock_guard<std::mutex> lock(mu_);
  return telemetry_;
}

}  // namespace costsense::runtime
