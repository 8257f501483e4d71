// Tests of the sharded memoizing oracle cache: hit/miss accounting,
// quantized-key merging, the bounded-eviction guarantee, LRU recency,
// reply interning, snapshot import validation, a model-based check
// against a reference LRU, and correctness under concurrent hammering
// from a thread pool and under hits racing new interned replies.
#include "runtime/oracle_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <list>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "runtime/thread_pool.h"
#include "tests/core/fake_oracle.h"

namespace costsense::runtime {
namespace {

std::vector<core::PlanUsage> TwoPlans() {
  // Plan a is cheap when dim 0 is cheap; plan b when dim 1 is cheap.
  return {{"a", core::UsageVector{1.0, 10.0}},
          {"b", core::UsageVector{10.0, 1.0}}};
}

TEST(QuantizeCostTest, RoundTripsAndMerges) {
  for (double v : {1.0, 3.14159, 1e-12, 7.5e18, 123456.789}) {
    const uint64_t q = QuantizeCost(v, 40);
    const double canonical = DequantizeCost(q, 40);
    // The canonical point is within half an ulp-at-40-bits of v...
    EXPECT_NEAR(canonical, v, v * 1e-11);
    // ...and is a fixed point: quantizing it returns the same key.
    EXPECT_EQ(QuantizeCost(canonical, 40), q);
  }
  // Values differing only by float round-off share a key at 40 bits.
  const double c = 0.1 + 0.2;  // 0.30000000000000004...
  EXPECT_EQ(QuantizeCost(c, 40), QuantizeCost(0.3, 40));
  // Genuinely different values do not.
  EXPECT_NE(QuantizeCost(1.0, 40), QuantizeCost(1.0 + 1e-9, 40));
  // Full mantissa keeps exact doubles distinct.
  EXPECT_NE(QuantizeCost(c, 52), QuantizeCost(0.3, 52));
}

// The quantized cost key decides what counts as one optimizer probe: the
// cache's shard and slot, the fault injector's per-key script and the
// retry tier's jitter stream all derive from it. The values below are
// pinned so that no change re-keys snapshots, moves fault schedules or
// shifts cache shards unnoticed.
TEST(CostKeyTest, QuantizeKeyUsesKeyMantissaBits) {
  EXPECT_EQ(kKeyMantissaBits, 40);
  const core::CostVector c{1.0, 2.0, 24.1};
  EXPECT_EQ(QuantizeKey(c), (std::vector<uint64_t>{
                                0x3ff0000000000ULL, 0x4000000000000ULL,
                                0x403819999999aULL}));
  EXPECT_TRUE(QuantizeKey(core::CostVector(std::vector<double>{})).empty());
}

TEST(CostKeyTest, HashKeyAndShardOfKeyMatchPinnedValues) {
  // The retry tier's jitter-stream seed.
  constexpr uint64_t kJitterSeed = 0x0e51113e;
  const struct {
    std::vector<uint64_t> key;
    uint64_t hash;         // seed 0: cache and fault injector
    uint64_t jitter_hash;  // seed kJitterSeed: retry backoff jitter
    size_t shard16;
    size_t shard1024;
  } kPins[] = {
      {{}, 0x660642d432da5c21ULL, 0x2c445d265c084d7bULL, 1, 33},
      {{0x3ff0000000000ULL}, 0x5bc0dde4232376a8ULL, 0xae7de1a0f2028d70ULL, 8,
       680},
      {{0x3ff0000000000ULL, 0x4000000000000ULL, 0x403819999999aULL},
       0x815bd62b2f5f8920ULL, 0x19053ca2f8c41e0bULL, 0, 288},
      {{0x403819999999aULL, 0x4022000000000ULL, 0x3eb0c6f7a0b5fULL,
        0x3fd3333333333ULL},
       0x05c5f09c14aa0ee2ULL, 0x54adca84797e7054ULL, 2, 738},
  };
  for (const auto& pin : kPins) {
    EXPECT_EQ(HashKey(pin.key.data(), pin.key.size()), pin.hash);
    EXPECT_EQ(HashKey(pin.key.data(), pin.key.size(), kJitterSeed),
              pin.jitter_hash);
    EXPECT_EQ(ShardOfKey(pin.key, 16), pin.shard16);
    EXPECT_EQ(ShardOfKey(pin.key, 1024), pin.shard1024);
  }
}

TEST(CachingOracleTest, HitsAndMisses) {
  core::FakeOracle base(TwoPlans(), /*white_box=*/true);
  CachingOracle cache(base);
  EXPECT_EQ(cache.dims(), 2u);

  const core::CostVector p1{1.0, 1.0};
  const core::CostVector p2{5.0, 1.0};
  const auto r1 = cache.Optimize(p1);
  const auto r1_again = cache.Optimize(p1);
  cache.Optimize(p2);
  cache.Optimize(p2);
  cache.Optimize(p1);

  EXPECT_EQ(base.calls(), 2u);  // one per distinct point
  const OracleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 3.0 / 5.0);

  // Cached results are the base oracle's results, usage included.
  EXPECT_EQ(r1.plan_id, r1_again.plan_id);
  EXPECT_EQ(r1.total_cost, r1_again.total_cost);
  ASSERT_TRUE(r1_again.usage.has_value());
}

TEST(CachingOracleTest, QuantizationMergesRoundOffTwins) {
  core::FakeOracle base(TwoPlans(), /*white_box=*/true);
  CachingOracle cache(base);
  const auto r1 = cache.Optimize({0.3, 1.0});
  const auto r2 = cache.Optimize({0.1 + 0.2, 1.0});
  EXPECT_EQ(base.calls(), 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  // Bit-identical: both callers get the canonical point's result.
  EXPECT_EQ(r1.total_cost, r2.total_cost);
  EXPECT_EQ(r1.plan_id, r2.plan_id);
}

TEST(CachingOracleTest, EvictionKeepsEntriesBounded) {
  core::FakeOracle base(TwoPlans(), /*white_box=*/false);
  OracleCacheOptions options;
  options.shards = 1;
  options.max_entries = 8;
  CachingOracle cache(base, options);
  for (int i = 0; i < 100; ++i) {
    cache.Optimize({1.0 + i, 1.0});
  }
  const OracleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 100u);
  EXPECT_LE(stats.entries, 8u);
  EXPECT_GE(stats.evictions, 92u);
}

TEST(CachingOracleTest, EvictsLeastRecentlyUsed) {
  core::FakeOracle base(TwoPlans(), /*white_box=*/false);
  OracleCacheOptions options;
  options.shards = 1;
  options.max_entries = 2;
  CachingOracle cache(base, options);

  const core::CostVector a{1.0, 1.0}, b{2.0, 1.0}, c{3.0, 1.0};
  cache.Optimize(a);  // miss: {a}
  cache.Optimize(b);  // miss: {a, b}
  cache.Optimize(a);  // hit: a is now most recent
  cache.Optimize(c);  // miss: evicts b, keeps a
  EXPECT_EQ(base.calls(), 3u);

  cache.Optimize(a);  // still cached
  EXPECT_EQ(base.calls(), 3u);
  cache.Optimize(b);  // was evicted: recomputes
  EXPECT_EQ(base.calls(), 4u);
}

TEST(CachingOracleTest, ClearDropsEntriesKeepsCounters) {
  core::FakeOracle base(TwoPlans(), /*white_box=*/false);
  CachingOracle cache(base);
  cache.Optimize({1.0, 1.0});
  cache.Optimize({1.0, 1.0});
  cache.Clear();
  OracleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 1u);
  cache.Optimize({1.0, 1.0});
  EXPECT_EQ(base.calls(), 2u);  // recomputed after Clear
}

TEST(CachingOracleTest, ConcurrentHammerIsCorrectAndBounded) {
  // Many threads hit a small point set through every shard; results must
  // match an uncached oracle and the entry bound must hold throughout.
  const auto plans = TwoPlans();
  core::FakeOracle base(plans, /*white_box=*/true);
  core::FakeOracle reference(plans, /*white_box=*/true);
  OracleCacheOptions options;
  options.shards = 4;
  options.max_entries = 64;
  CachingOracle cache(base, options);

  std::vector<core::CostVector> points;
  Rng rng(123);
  for (int i = 0; i < 32; ++i) {
    points.push_back({rng.LogUniform(0.1, 10.0), rng.LogUniform(0.1, 10.0)});
  }

  ThreadPool pool(8);
  const size_t rounds = 2000;
  const Status s = pool.ParallelFor(rounds, [&](size_t i) -> Status {
    const core::CostVector& p = points[i % points.size()];
    const core::OracleResult got = cache.Optimize(p);
    // Compare against the canonical-point result the cache promises.
    core::CostVector canonical(p.size());
    for (size_t d = 0; d < p.size(); ++d) {
      canonical[d] =
          DequantizeCost(QuantizeCost(p[d], kKeyMantissaBits),
                         kKeyMantissaBits);
    }
    const core::OracleResult want = reference.Optimize(canonical);
    if (got.plan_id != want.plan_id || got.total_cost != want.total_cost) {
      return Status::Internal("cache returned a wrong result");
    }
    return Status::Ok();
  });
  EXPECT_TRUE(s.ok()) << s.ToString();

  const OracleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, rounds);
  EXPECT_LE(stats.entries, options.max_entries);
  // 32 distinct points over 2000 probes: the cache must absorb nearly
  // everything (racing first-misses may duplicate a handful of computes).
  EXPECT_GT(stats.hit_rate(), 0.9);
  EXPECT_LE(base.calls(), 32u * 8u);
}

/// Replies scripted by the first cost coordinate, all under one plan id:
/// usage vectors that differ, one that differs only in the sign of a
/// zero, and a narrow reply without usage.
class ScriptedOracle : public core::PlanOracle {
 public:
  core::OracleResult Optimize(const core::CostVector& c) override {
    ++calls;
    core::OracleResult r;
    r.plan_id = "p";
    r.total_cost = 10.0 * c[0];
    switch (static_cast<int>(c[0])) {
      case 1:
        r.usage = core::UsageVector{1.0, 2.0};
        break;
      case 2:
        r.usage = core::UsageVector{3.0, 4.0};
        break;
      case 3:
        break;  // narrow: no usage
      case 4:
        r.usage = core::UsageVector{0.0, 2.0};
        break;
      default:
        r.usage = core::UsageVector{-0.0, 2.0};
        break;
    }
    return r;
  }
  size_t dims() const override { return 2; }
  size_t calls = 0;
};

bool SameReply(const core::OracleResult& a, const core::OracleResult& b) {
  if (a.plan_id != b.plan_id ||
      std::bit_cast<uint64_t>(a.total_cost) !=
          std::bit_cast<uint64_t>(b.total_cost) ||
      a.usage.has_value() != b.usage.has_value()) {
    return false;
  }
  if (!a.usage.has_value()) return true;
  if (a.usage->size() != b.usage->size()) return false;
  for (size_t i = 0; i < a.usage->size(); ++i) {
    if (std::bit_cast<uint64_t>((*a.usage)[i]) !=
        std::bit_cast<uint64_t>((*b.usage)[i])) {
      return false;
    }
  }
  return true;
}

TEST(CachingOracleTest, InternedRepliesStayDistinct) {
  // Replies are stored once per distinct (plan_id, usage); one plan id
  // with different usage vectors, with a -0.0 for a 0.0, or without usage
  // must each come back exactly as the base oracle gave it.
  ScriptedOracle base;
  ScriptedOracle reference;
  CachingOracle cache(base);
  std::vector<core::OracleResult> first;
  for (int round = 0; round < 2; ++round) {
    for (int i = 1; i <= 5; ++i) {
      const core::CostVector c{static_cast<double>(i), 1.0};
      const core::OracleResult got = cache.Optimize(c);
      EXPECT_TRUE(SameReply(got, reference.Optimize(c))) << "point " << i;
      if (round == 0) first.push_back(got);
    }
  }
  EXPECT_EQ(base.calls, 5u);
  EXPECT_EQ(cache.stats().hits, 5u);
  EXPECT_FALSE(first[2].usage.has_value());
  EXPECT_TRUE(std::signbit((*first[4].usage)[0]));
  EXPECT_FALSE(std::signbit((*first[3].usage)[0]));

  // The snapshot carries each entry's own reply too.
  const std::vector<OracleCacheEntry> exported = cache.Export();
  ASSERT_EQ(exported.size(), 5u);
  for (const OracleCacheEntry& entry : exported) {
    const core::CostVector c{DequantizeCost(entry.key[0], 40),
                             DequantizeCost(entry.key[1], 40)};
    EXPECT_TRUE(SameReply(entry.result, reference.Optimize(c)));
  }
}

/// A distinct reply per cost point: plan id and usage follow the first
/// coordinate, so every new point interns a new reply. Stateless, so safe
/// to call from many threads.
class DistinctReplyOracle : public core::PlanOracle {
 public:
  core::OracleResult Optimize(const core::CostVector& c) override {
    core::OracleResult r;
    r.plan_id = "plan-" + std::to_string(static_cast<int>(c[0]) % 7);
    r.usage = core::UsageVector{c[0], 1.0};
    r.total_cost = c[0] * c[0] + c[1];
    return r;
  }
  size_t dims() const override { return 2; }
};

TEST(CachingOracleTest, HitsStayExactWhileOtherThreadsIntern) {
  // Four threads re-optimize keys the cache already holds while four
  // others miss on fresh keys, so the interned-reply table grows under
  // the readers' hits: the locked read path TSan checks here. Every reply
  // must equal the base oracle's at the key's canonical point, which is
  // what a serial run returns.
  DistinctReplyOracle base;
  CachingOracle cache(base);
  constexpr int kOld = 256;
  constexpr int kRounds = 8;
  constexpr int kNewPerThread = 800;
  auto point = [](int i) {
    return core::CostVector{1.0 + i, 1.0 + 0.5 * (i % 3)};
  };
  auto expected = [&](const core::CostVector& c) {
    core::CostVector canonical(c.size());
    for (size_t d = 0; d < c.size(); ++d) {
      canonical[d] = DequantizeCost(QuantizeCost(c[d], kKeyMantissaBits),
                                    kKeyMantissaBits);
    }
    DistinctReplyOracle serial;
    return serial.Optimize(canonical);
  };
  for (int i = 0; i < kOld; ++i) cache.Optimize(point(i));

  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (int i = t; i < kOld; i += 4) {
          const core::CostVector c = point(i);
          if (!SameReply(cache.Optimize(c), expected(c))) ++wrong;
        }
      }
    });
  }
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kNewPerThread; ++k) {
        const core::CostVector c = point(kOld + t * kNewPerThread + k);
        if (!SameReply(cache.Optimize(c), expected(c))) ++wrong;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
  // The cache holds every key (far below its bound), so every reader
  // call was a hit and every writer call a miss.
  const OracleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, size_t{kRounds * kOld});
  EXPECT_EQ(stats.misses, size_t{kOld + 4 * kNewPerThread});
  EXPECT_EQ(stats.entries, size_t{kOld + 4 * kNewPerThread});
}

TEST(CachingOracleTest, ImportDropsEntriesOfTheWrongDimension) {
  core::FakeOracle base(TwoPlans(), /*white_box=*/true);
  CachingOracle cache(base);
  const uint64_t one = QuantizeCost(1.0, 40);
  const uint64_t two = QuantizeCost(2.0, 40);
  std::vector<OracleCacheEntry> entries(3);
  // Well formed: stored.
  entries[0].key = {one, one};
  entries[0].result = {"a", 11.0, core::UsageVector{1.0, 10.0}};
  // A key one coordinate short: no probe could ever hit it.
  entries[1].key = {two};
  entries[1].result = {"a", 11.0, core::UsageVector{1.0, 10.0}};
  // The right key with a usage vector of the wrong length: it would be
  // served to discovery as a malformed reply.
  entries[2].key = {one, two};
  entries[2].result = {"b", 12.0, core::UsageVector{10.0}};

  const OracleCacheImport counts = cache.Import(entries);
  EXPECT_EQ(counts.inserted, 1u);
  EXPECT_EQ(counts.dropped, 2u);
  const OracleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.imported, 1u);

  // Only the well-formed entry is re-published on save...
  const std::vector<OracleCacheEntry> exported = cache.Export();
  ASSERT_EQ(exported.size(), 1u);
  EXPECT_EQ(exported[0].key, entries[0].key);
  // ...and the point behind the malformed usage is computed afresh.
  const core::OracleResult r = cache.Optimize({1.0, 2.0});
  EXPECT_EQ(base.calls(), 1u);
  ASSERT_TRUE(r.usage.has_value());
  EXPECT_EQ(r.usage->size(), 2u);
}

/// A reference LRU cache, one std::list + std::map per shard, fed the
/// same operations as a CachingOracle.
class ReferenceCache {
 public:
  using Key = std::vector<uint64_t>;

  ReferenceCache(core::PlanOracle& base, size_t shards, size_t per_shard)
      : base_(base), shards_(shards), per_shard_(per_shard) {}

  core::OracleResult Optimize(const core::CostVector& c) {
    Key key;
    core::CostVector canonical(c.size());
    for (size_t i = 0; i < c.size(); ++i) {
      key.push_back(QuantizeCost(c[i], 40));
      canonical[i] = DequantizeCost(key.back(), 40);
    }
    Shard& shard = shards_[ShardOfKey(key, shards_.size())];
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      ++stats.hits;
      shard.order.splice(shard.order.begin(), shard.order, it->second.second);
      return it->second.first;
    }
    ++stats.misses;
    const core::OracleResult result = base_.Optimize(canonical);
    Insert(shard, key, result);
    return result;
  }

  void Import(const std::vector<OracleCacheEntry>& entries) {
    for (const OracleCacheEntry& entry : entries) {
      if (entry.key.size() != base_.dims() ||
          (entry.result.usage.has_value() &&
           entry.result.usage->size() != base_.dims())) {
        ++dropped;
        continue;
      }
      Shard& shard = shards_[ShardOfKey(entry.key, shards_.size())];
      if (shard.map.count(entry.key) != 0) continue;
      ++stats.imported;
      Insert(shard, entry.key, entry.result);
    }
  }

  void Clear() {
    for (Shard& shard : shards_) {
      shard.map.clear();
      shard.order.clear();
    }
  }

  size_t entries() const {
    size_t n = 0;
    for (const Shard& shard : shards_) n += shard.map.size();
    return n;
  }

  /// Resident (key, reply) pairs in key order.
  std::vector<std::pair<Key, core::OracleResult>> Contents() const {
    std::vector<std::pair<Key, core::OracleResult>> out;
    for (const Shard& shard : shards_) {
      for (const auto& [key, value] : shard.map) {
        out.emplace_back(key, value.first);
      }
    }
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return out;
  }

  OracleCacheStats stats;
  size_t dropped = 0;

 private:
  struct Shard {
    std::list<Key> order;  // most recent first
    std::map<Key, std::pair<core::OracleResult, std::list<Key>::iterator>>
        map;
  };

  void Insert(Shard& shard, const Key& key, const core::OracleResult& r) {
    shard.order.push_front(key);
    shard.map.emplace(key, std::make_pair(r, shard.order.begin()));
    if (shard.map.size() > per_shard_) {
      shard.map.erase(shard.order.back());
      shard.order.pop_back();
      ++stats.evictions;
    }
  }

  core::PlanOracle& base_;
  std::vector<Shard> shards_;
  const size_t per_shard_;
};

TEST(CachingOracleTest, MatchesReferenceLruUnderRandomOperations) {
  // Random Optimize / Import / Clear sequences over a small point set, so
  // keys collide, recur, get evicted and come back. Every reply, every
  // counter and the exported contents must match the reference.
  const std::vector<core::PlanUsage> plans = {
      {"a", core::UsageVector{1.0, 10.0}},
      {"b", core::UsageVector{10.0, 1.0}},
      {"c", core::UsageVector{4.0, 4.0}}};
  std::vector<core::CostVector> points;
  for (double x : {1.0, 2.0, 3.0, 5.0}) {
    for (double y : {1.0, 2.5, 7.0}) points.push_back({x, y});
  }
  // (shards, per-shard capacity): every small capacity, where evictions
  // churn the index, plus one past 16-bit slot positions.
  std::vector<std::pair<size_t, size_t>> configs;
  for (size_t shards : {1, 2}) {
    for (size_t per_shard = 1; per_shard <= 8; ++per_shard) {
      configs.emplace_back(shards, per_shard);
    }
  }
  configs.emplace_back(1, 70000);
  for (const auto& [shards, per_shard] : configs) {
    core::FakeOracle base(plans, /*white_box=*/true);
    core::FakeOracle reference_base(plans, /*white_box=*/true);
    OracleCacheOptions options;
    options.shards = shards;
    options.max_entries = per_shard * shards;
    CachingOracle cache(base, options);
    ReferenceCache reference(reference_base, shards, per_shard);
    Rng rng(1000 * shards + per_shard);
    size_t dropped = 0;
    for (int step = 0; step < 400; ++step) {
      const std::string where = "shards=" + std::to_string(shards) +
                                " per_shard=" + std::to_string(per_shard) +
                                " step=" + std::to_string(step);
      const uint64_t op = rng.Index(20);
      if (op == 0) {
        cache.Clear();
        reference.Clear();
      } else if (op <= 3) {
        // A snapshot of 1-4 entries with arbitrary replies, some narrow,
        // some of the wrong dimension.
        std::vector<OracleCacheEntry> batch(1 + rng.Index(4));
        for (OracleCacheEntry& entry : batch) {
          const core::CostVector& p = points[rng.Index(points.size())];
          for (double v : p) entry.key.push_back(QuantizeCost(v, 40));
          if (rng.Index(8) == 0) entry.key.pop_back();
          entry.result.plan_id = rng.Index(2) == 0 ? "a" : "imported";
          entry.result.total_cost = static_cast<double>(rng.Index(100));
          if (rng.Index(3) != 0) {
            entry.result.usage = core::UsageVector{
                static_cast<double>(rng.Index(5)), 1.0};
          }
          if (rng.Index(10) == 0) {
            entry.result.usage = core::UsageVector{1.0, 2.0, 3.0};
          }
        }
        dropped += cache.Import(batch).dropped;
        reference.Import(batch);
        EXPECT_EQ(dropped, reference.dropped) << where;
      } else {
        const core::CostVector& p = points[rng.Index(points.size())];
        const core::OracleResult got = cache.Optimize(p);
        EXPECT_TRUE(SameReply(got, reference.Optimize(p))) << where;
      }
      const OracleCacheStats stats = cache.stats();
      ASSERT_EQ(stats.hits, reference.stats.hits) << where;
      ASSERT_EQ(stats.misses, reference.stats.misses) << where;
      ASSERT_EQ(stats.evictions, reference.stats.evictions) << where;
      ASSERT_EQ(stats.imported, reference.stats.imported) << where;
      ASSERT_EQ(stats.entries, reference.entries()) << where;
      const std::vector<OracleCacheEntry> exported = cache.Export();
      const auto contents = reference.Contents();
      ASSERT_EQ(exported.size(), contents.size()) << where;
      for (size_t i = 0; i < exported.size(); ++i) {
        EXPECT_EQ(exported[i].key, contents[i].first) << where;
        EXPECT_TRUE(SameReply(exported[i].result, contents[i].second))
            << where;
      }
    }
  }
}

}  // namespace
}  // namespace costsense::runtime
