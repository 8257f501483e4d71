// Tests of the crash-safe oracle-cache snapshot store: save/load round
// trips, the corruption matrix (truncation, bit flips, wrong format
// version, wrong catalog, wrong quantization — each a whole-file
// rejection with exactly one typed telemetry counter and never a crash),
// atomic replace on save, CachingOracle export/import semantics, and the
// end-to-end warm-restart equivalence through the serve dispatcher:
// persist, reload, rerun, byte-identical bytes with cache hits.
#include "runtime/cache_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <ios>
#include <string>
#include <vector>

#include "core/vectors.h"
#include "exp/report.h"
#include "runtime/oracle_cache.h"
#include "runtime/thread_pool.h"
#include "serve/dispatcher.h"
#include "serve/protocol.h"
#include "tests/core/fake_oracle.h"

namespace costsense::runtime {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

size_t RejectionSum(const CacheStoreTelemetry& t) {
  return t.rejected_crc + t.rejected_truncated + t.rejected_version +
         t.rejected_catalog + t.rejected_quantization;
}

OracleCacheEntry MakeEntry(uint64_t k0, const std::string& plan, double cost,
                           bool with_usage) {
  OracleCacheEntry entry;
  entry.key = {k0, k0 + 1, k0 + 2};
  entry.result.plan_id = plan;
  entry.result.total_cost = cost;
  if (with_usage) {
    entry.result.usage = core::UsageVector{1.5, 2.5, cost};
  }
  return entry;
}

CacheStoreOptions Options(const std::string& path, uint64_t catalog_hash = 7) {
  CacheStoreOptions options;
  options.path = path;
  options.catalog_hash = catalog_hash;
  return options;
}

/// Writes a two-scope snapshot to `path` and returns its record count.
size_t WriteSnapshot(const std::string& path) {
  CacheStore store(Options(path));
  store.Publish("Q1/shared",
                {MakeEntry(10, "p_idx", 42.5, true),
                 MakeEntry(20, "p_seq", 7.25, false)});
  store.Publish("Q6/colocated", {MakeEntry(30, "p_hash", 1e12, true)});
  const Status saved = store.Save();
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  EXPECT_EQ(store.telemetry().saved, 3u);
  return 3;
}

TEST(CacheStoreTest, MissingFileIsSilentColdStart) {
  CacheStore store(Options("cache_store_test_missing.snap"));
  const CacheStoreTelemetry t = store.telemetry();
  EXPECT_EQ(t.loaded, 0u);
  EXPECT_EQ(RejectionSum(t), 0u);
  EXPECT_FALSE(t.rejected());
  EXPECT_TRUE(store.EntriesFor("Q1/shared").empty());
}

TEST(CacheStoreTest, SaveLoadRoundTrip) {
  const std::string path = "cache_store_test_roundtrip.snap";
  const size_t records = WriteSnapshot(path);

  CacheStore reloaded(Options(path));
  const CacheStoreTelemetry t = reloaded.telemetry();
  EXPECT_EQ(t.loaded, records);
  EXPECT_EQ(RejectionSum(t), 0u);

  const std::vector<OracleCacheEntry> q1 = reloaded.EntriesFor("Q1/shared");
  ASSERT_EQ(q1.size(), 2u);
  EXPECT_EQ(q1[0].key, (std::vector<uint64_t>{10, 11, 12}));
  EXPECT_EQ(q1[0].result.plan_id, "p_idx");
  EXPECT_EQ(q1[0].result.total_cost, 42.5);
  ASSERT_TRUE(q1[0].result.usage.has_value());
  EXPECT_EQ((*q1[0].result.usage)[2], 42.5);
  EXPECT_FALSE(q1[1].result.usage.has_value());

  const std::vector<OracleCacheEntry> q6 = reloaded.EntriesFor("Q6/colocated");
  ASSERT_EQ(q6.size(), 1u);
  EXPECT_EQ(q6[0].result.total_cost, 1e12);
  EXPECT_TRUE(reloaded.EntriesFor("Q9/shared").empty());
}

TEST(CacheStoreTest, UnpublishedScopesSurviveSave) {
  const std::string path = "cache_store_test_carry.snap";
  WriteSnapshot(path);

  // A run that only touches Q1 must still carry Q6's warmth forward.
  CacheStore store(Options(path));
  store.Publish("Q1/shared", {MakeEntry(99, "p_new", 3.5, false)});
  ASSERT_TRUE(store.Save().ok());

  CacheStore reloaded(Options(path));
  ASSERT_EQ(reloaded.EntriesFor("Q1/shared").size(), 1u);
  EXPECT_EQ(reloaded.EntriesFor("Q1/shared")[0].result.plan_id, "p_new");
  EXPECT_EQ(reloaded.EntriesFor("Q6/colocated").size(), 1u);
}

// ---------------------------------------------------------------------------
// The corruption matrix: every corruption is a whole-file rejection with
// exactly one typed counter — never a crash, never a partial load.
// ---------------------------------------------------------------------------

void ExpectWholeFileRejection(const CacheStore& store,
                              size_t CacheStoreTelemetry::*counter) {
  const CacheStoreTelemetry t = store.telemetry();
  EXPECT_EQ(t.loaded, 0u);
  EXPECT_EQ(t.*counter, 1u);
  EXPECT_EQ(RejectionSum(t), 1u) << "exactly one rejection cause";
  EXPECT_TRUE(t.rejected());
  EXPECT_TRUE(store.EntriesFor("Q1/shared").empty());
  EXPECT_TRUE(store.EntriesFor("Q6/colocated").empty());
}

TEST(CacheStoreCorruptionTest, TruncatedFileRejectsWholeSnapshot) {
  const std::string path = "cache_store_test_truncated.snap";
  WriteSnapshot(path);
  const std::string bytes = ReadFile(path);
  // Cut mid-record: the store must refuse everything, including the
  // records before the cut.
  WriteFile(path, bytes.substr(0, bytes.size() - 5));

  CacheStore store(Options(path));
  ExpectWholeFileRejection(store, &CacheStoreTelemetry::rejected_truncated);
}

TEST(CacheStoreCorruptionTest, TrailingGarbageRejectsAsTruncation) {
  const std::string path = "cache_store_test_trailing.snap";
  WriteSnapshot(path);
  WriteFile(path, ReadFile(path) + "junk");

  CacheStore store(Options(path));
  ExpectWholeFileRejection(store, &CacheStoreTelemetry::rejected_truncated);
}

TEST(CacheStoreCorruptionTest, BitFlippedRecordRejectsOnCrc) {
  const std::string path = "cache_store_test_bitflip.snap";
  WriteSnapshot(path);
  std::string bytes = ReadFile(path);
  // The last byte belongs to the last record's body; flipping one bit
  // must break that record's CRC and cold-start the whole snapshot.
  bytes.back() = static_cast<char>(static_cast<uint8_t>(bytes.back()) ^ 0x01);
  WriteFile(path, bytes);

  CacheStore store(Options(path));
  ExpectWholeFileRejection(store, &CacheStoreTelemetry::rejected_crc);
}

TEST(CacheStoreCorruptionTest, WrongMagicAndVersionReject) {
  const std::string path = "cache_store_test_version.snap";
  WriteSnapshot(path);
  const std::string good = ReadFile(path);

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  WriteFile(path, bad_magic);
  {
    CacheStore store(Options(path));
    ExpectWholeFileRejection(store, &CacheStoreTelemetry::rejected_version);
  }

  std::string bad_version = good;
  bad_version[7] = 99;  // low byte of the u32 format version
  WriteFile(path, bad_version);
  {
    CacheStore store(Options(path));
    ExpectWholeFileRejection(store, &CacheStoreTelemetry::rejected_version);
  }
}

TEST(CacheStoreCorruptionTest, ForeignCatalogRejected) {
  const std::string path = "cache_store_test_catalog.snap";
  WriteSnapshot(path);  // catalog_hash = 7
  CacheStore store(Options(path, /*catalog_hash=*/8));
  ExpectWholeFileRejection(store, &CacheStoreTelemetry::rejected_catalog);
}

TEST(CacheStoreCorruptionTest, QuantizationMismatchRejected) {
  const std::string path = "cache_store_test_quant.snap";
  WriteSnapshot(path);
  std::string bytes = ReadFile(path);
  // Header: "CSOC" | u32 version | u64 catalog hash | u32 mantissa bits.
  // The saved field is kKeyMantissaBits; a snapshot quantized at 52 bits
  // addresses other buckets and must be refused whole.
  ASSERT_EQ(bytes.substr(16, 4), std::string("\0\0\0\x28", 4));
  bytes.replace(16, 4, std::string("\0\0\0\x34", 4));
  WriteFile(path, bytes);
  CacheStore store(Options(path));
  ExpectWholeFileRejection(store, &CacheStoreTelemetry::rejected_quantization);
}

TEST(CacheStoreTest, SaveReplacesAtomicallyAndCleansTmp) {
  const std::string path = "cache_store_test_atomic.snap";
  WriteSnapshot(path);
  const std::string first = ReadFile(path);

  CacheStore store(Options(path));
  store.Publish("Q1/shared", {MakeEntry(50, "p_other", 9.0, false)});
  ASSERT_TRUE(store.Save().ok());
  const std::string second = ReadFile(path);
  EXPECT_NE(first, second);
  // The staging file never outlives a successful save.
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
}

TEST(CacheStoreTest, SaveWithoutPathIsTypedError) {
  CacheStore store(Options(""));
  const Status saved = store.Save();
  EXPECT_EQ(saved.code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// CachingOracle export/import
// ---------------------------------------------------------------------------

TEST(CachingOracleSnapshotTest, ExportImportRoundTripSkipsExisting) {
  const std::vector<core::PlanUsage> plans = {
      {"a", core::UsageVector{1.0, 10.0}}, {"b", core::UsageVector{10.0, 1.0}}};
  core::FakeOracle base(plans, /*white_box=*/true);
  CachingOracle warmer(base);
  warmer.Optimize({1.0, 1.0});
  warmer.Optimize({5.0, 1.0});
  const std::vector<OracleCacheEntry> snapshot = warmer.Export();
  ASSERT_EQ(snapshot.size(), 2u);
  // Export is key-sorted regardless of shard/probe order.
  EXPECT_LT(snapshot[0].key, snapshot[1].key);

  core::FakeOracle fresh_base(plans, /*white_box=*/true);
  CachingOracle warmed(fresh_base);
  // Compute one of the two points first: import must not overwrite it.
  warmed.Optimize({1.0, 1.0});
  const OracleCacheImport imported = warmed.Import(snapshot);
  EXPECT_EQ(imported.inserted, 1u);
  EXPECT_EQ(imported.dropped, 0u);

  OracleCacheStats stats = warmed.stats();
  EXPECT_EQ(stats.imported, 1u);
  EXPECT_EQ(stats.entries, 2u);
  // Import touches neither hits nor misses...
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);

  // ...and an imported key now serves from memory: no new base call.
  const size_t base_calls = fresh_base.calls();
  const core::OracleResult warm = warmed.Optimize({5.0, 1.0});
  EXPECT_EQ(fresh_base.calls(), base_calls);
  EXPECT_EQ(warmed.stats().hits, 1u);
  // Bit-identical to what the warmer computed for the same point.
  const core::OracleResult original = warmer.Optimize({5.0, 1.0});
  EXPECT_EQ(warm.plan_id, original.plan_id);
  EXPECT_EQ(warm.total_cost, original.total_cost);
}

// ---------------------------------------------------------------------------
// Warm-restart equivalence through the serve dispatcher
// ---------------------------------------------------------------------------

serve::DispatcherOptions QuickDispatcherOptions(runtime::ThreadPool* pool,
                                                const std::string& cache_path) {
  serve::DispatcherOptions options;
  options.discovery = exp::QuickDiscovery();
  options.pool = pool;
  options.cache_path = cache_path;
  return options;
}

TEST(WarmRestartTest, PersistReloadRerunIsByteIdenticalWithHits) {
  const std::string path = "cache_store_test_warm_restart.snap";
  // Start cold: make sure no stale snapshot from a previous run leaks in.
  WriteFile(path, "");

  runtime::ThreadPool pool(1);
  serve::AnalysisRequest request;
  request.kind = serve::AnalysisKind::kGtcSeries;
  request.query_number = 6;
  request.deltas = {2.0, 10.0, 100.0};

  std::string cold_body;
  {
    serve::Dispatcher cold(QuickDispatcherOptions(&pool, path));
    // The empty file is rejected (truncated header), which is itself a
    // cold start — exercised here on purpose.
    EXPECT_EQ(cold.stats().store.rejected_truncated, 1u);
    const serve::AnalysisResponse response = cold.Handle(request);
    ASSERT_EQ(response.code, StatusCode::kOk) << response.body;
    cold_body = response.body;
    EXPECT_EQ(cold.stats().cache.imported, 0u);
    const Status persisted = cold.PersistCache();
    ASSERT_TRUE(persisted.ok()) << persisted.ToString();
  }

  {
    serve::Dispatcher warm(QuickDispatcherOptions(&pool, path));
    serve::DispatcherStats before = warm.stats();
    EXPECT_GT(before.store.loaded, 0u);
    EXPECT_FALSE(before.store.rejected());

    const serve::AnalysisResponse response = warm.Handle(request);
    ASSERT_EQ(response.code, StatusCode::kOk) << response.body;
    // The headline invariant: warm bytes == cold bytes, with real hits.
    EXPECT_EQ(response.body, cold_body);
    const serve::DispatcherStats after = warm.stats();
    EXPECT_GT(after.cache.imported, 0u);
    EXPECT_GT(after.cache.hits, 0u);
  }
}

TEST(WarmRestartTest, CorruptSnapshotDegradesToColdSameBytes) {
  const std::string path = "cache_store_test_corrupt_warm.snap";
  runtime::ThreadPool pool(1);
  serve::AnalysisRequest request;
  request.kind = serve::AnalysisKind::kDiscovery;
  request.query_number = 1;
  request.deltas = {100.0};

  // Reference run with no persistence at all.
  std::string reference_body;
  {
    serve::Dispatcher bare(QuickDispatcherOptions(&pool, ""));
    const serve::AnalysisResponse response = bare.Handle(request);
    ASSERT_EQ(response.code, StatusCode::kOk) << response.body;
    reference_body = response.body;
  }

  // Produce a valid snapshot, then flip a bit in it.
  {
    serve::Dispatcher writer(QuickDispatcherOptions(&pool, path));
    ASSERT_EQ(writer.Handle(request).code, StatusCode::kOk);
    ASSERT_TRUE(writer.PersistCache().ok());
  }
  std::string bytes = ReadFile(path);
  bytes.back() = static_cast<char>(static_cast<uint8_t>(bytes.back()) ^ 0x10);
  WriteFile(path, bytes);

  // The corrupt snapshot must cold-start with the right typed counter and
  // produce exactly the reference bytes.
  serve::Dispatcher survivor(QuickDispatcherOptions(&pool, path));
  EXPECT_EQ(survivor.stats().store.rejected_crc, 1u);
  EXPECT_EQ(survivor.stats().store.loaded, 0u);
  const serve::AnalysisResponse response = survivor.Handle(request);
  ASSERT_EQ(response.code, StatusCode::kOk) << response.body;
  EXPECT_EQ(response.body, reference_body);
  EXPECT_EQ(survivor.stats().cache.imported, 0u);
}

}  // namespace
}  // namespace costsense::runtime
