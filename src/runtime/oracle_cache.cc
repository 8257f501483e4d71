#include "runtime/oracle_cache.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "common/macros.h"

namespace costsense::runtime {
namespace {

constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

size_t RoundUpToPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Rows of `width` Ts each, appended in fixed chunks of kChunkRows rows:
/// growing never copies or frees a row (so resident memory follows the
/// row count, not a doubling vector's high-water mark), a row's address is
/// stable, and an empty array allocates nothing.
template <typename T>
class RowChunks {
 public:
  explicit RowChunks(size_t width) : width_(width) {}

  size_t size() const { return size_; }
  T* Row(size_t r) {
    return chunks_[r / kChunkRows].get() + (r % kChunkRows) * width_;
  }
  const T* Row(size_t r) const {
    return chunks_[r / kChunkRows].get() + (r % kChunkRows) * width_;
  }
  T& operator[](size_t r) { return *Row(r); }
  const T& operator[](size_t r) const { return *Row(r); }
  /// Appends an uninitialized row.
  void Append() {
    if (size_ == chunks_.size() * kChunkRows) {
      chunks_.push_back(
          std::make_unique_for_overwrite<T[]>(kChunkRows * width_));
    }
    ++size_;
  }
  void Clear() {
    chunks_.clear();
    chunks_.shrink_to_fit();
    size_ = 0;
  }

 private:
  static constexpr size_t kChunkRows = 128;
  const size_t width_;
  size_t size_ = 0;
  std::vector<std::unique_ptr<T[]>> chunks_;
};

/// The quantized key of a cost vector, in a stack buffer for the usual
/// dimension counts (on the heap only past kInlineDims), so a lookup
/// allocates nothing.
class KeyBuffer {
 public:
  explicit KeyBuffer(const core::CostVector& c) : data_(inline_) {
    if (c.size() > kInlineDims) {
      heap_ = std::make_unique<uint64_t[]>(c.size());
      data_ = heap_.get();
    }
    for (size_t i = 0; i < c.size(); ++i) {
      data_[i] = QuantizeCost(c[i], kKeyMantissaBits);
    }
  }
  KeyBuffer(const KeyBuffer&) = delete;
  KeyBuffer& operator=(const KeyBuffer&) = delete;

  const uint64_t* data() const { return data_; }

 private:
  static constexpr size_t kInlineDims = 32;
  uint64_t inline_[kInlineDims];
  std::unique_ptr<uint64_t[]> heap_;
  uint64_t* data_;
};

/// Bitwise equality, so interning never merges 0.0 with -0.0.
bool SameUsage(const std::optional<core::UsageVector>& a,
               const std::optional<core::UsageVector>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  return a->size() == b->size() &&
         std::memcmp(a->data().data(), b->data().data(),
                     a->size() * sizeof(double)) == 0;
}

}  // namespace

uint64_t QuantizeCost(double value, int mantissa_bits) {
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  const int drop = 52 - mantissa_bits;
  if (drop <= 0) return bits;
  const uint64_t half = uint64_t{1} << (drop - 1);
  return (bits + half) >> drop;
}

double DequantizeCost(uint64_t quantized, int mantissa_bits) {
  const int drop = 52 - mantissa_bits;
  if (drop <= 0) return std::bit_cast<double>(quantized);
  return std::bit_cast<double>(quantized << drop);
}

std::vector<uint64_t> QuantizeKey(const core::CostVector& c) {
  const KeyBuffer key(c);
  return std::vector<uint64_t>(key.data(), key.data() + c.size());
}

size_t ShardOfKey(const std::vector<uint64_t>& key, size_t shards) {
  return HashKey(key.data(), key.size()) & (shards - 1);
}

/// Every distinct (plan_id, usage) reply the cache holds, stored once;
/// entries refer to replies by position. Append-only, read and appended
/// under `mu`. Positions stay valid across Clear() for probes already
/// between compute and insert.
struct CachingOracle::Replies {
  std::mutex mu;
  /// total_cost is per entry, so it is 0 here.
  std::vector<core::OracleResult> all;
  /// Positions by plan id (one id may come with several usage vectors, or
  /// with and without one).
  std::map<std::string, std::vector<uint32_t>> by_id;

  uint32_t Intern(const core::OracleResult& reply) {
    std::lock_guard<std::mutex> lock(mu);
    std::vector<uint32_t>& same_id = by_id[reply.plan_id];
    for (uint32_t i : same_id) {
      if (SameUsage(all[i].usage, reply.usage)) return i;
    }
    const auto i = static_cast<uint32_t>(all.size());
    all.push_back({reply.plan_id, 0.0, reply.usage});
    same_id.push_back(i);
    return i;
  }

  /// Reply `i` priced at `total_cost`.
  core::OracleResult Get(uint32_t i, double total_cost) {
    std::lock_guard<std::mutex> lock(mu);
    core::OracleResult out = all[i];
    out.total_cost = total_cost;
    return out;
  }
};

/// One shard's resident entries in flat arrays: entry e owns row e of
/// keys (dims quantized coordinates), costs, replies and links. Entries
/// are dense in [0, size()), and an evicted entry's row is reused by the
/// insert that evicted it.
struct CachingOracle::Shard {
  Shard(size_t dims, size_t capacity)
      : dims(dims),
        capacity(capacity),
        keys(dims),
        costs(1),
        replies(1),
        links(1),
        narrow_slots(capacity < 0xffff) {}

  struct Link {
    uint32_t prev = kNone;
    uint32_t next = kNone;
  };

  const size_t dims;
  const size_t capacity;
  std::mutex mu;
  RowChunks<uint64_t> keys;
  RowChunks<double> costs;
  RowChunks<uint32_t> replies;
  /// Recency list through `links`, most recent at `head`.
  RowChunks<Link> links;
  uint32_t head = kNone;
  uint32_t tail = kNone;
  /// Open-addressing index with linear probing: a slot holds entry + 1,
  /// 0 marks it empty. Kept at most 3/4 full. Slots are 16 bits wide when
  /// every entry + 1 fits (the default 4096-entry shards), else 32.
  const bool narrow_slots;
  std::vector<uint16_t> slots16;
  std::vector<uint32_t> slots32;
  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;
  size_t imported = 0;

  size_t size() const { return costs.size(); }
  const uint64_t* KeyOf(uint32_t e) const { return keys.Row(e); }

  size_t NumSlots() const {
    return narrow_slots ? slots16.size() : slots32.size();
  }
  uint32_t Slot(size_t i) const {
    return narrow_slots ? slots16[i] : slots32[i];
  }
  void SetSlot(size_t i, uint32_t value) {
    if (narrow_slots) {
      slots16[i] = static_cast<uint16_t>(value);
    } else {
      slots32[i] = value;
    }
  }
  size_t HomeSlot(uint64_t hash) const {
    return (hash >> 32) & (NumSlots() - 1);
  }
  size_t HomeOf(uint32_t e) const { return HomeSlot(HashKey(KeyOf(e), dims)); }

  /// The entry holding `key`, or kNone.
  uint32_t Find(const uint64_t* key, uint64_t hash) const {
    if (NumSlots() == 0) return kNone;
    const size_t mask = NumSlots() - 1;
    for (size_t i = HomeSlot(hash); Slot(i) != 0; i = (i + 1) & mask) {
      const uint32_t e = Slot(i) - 1;
      if (std::equal(key, key + dims, KeyOf(e))) return e;
    }
    return kNone;
  }

  void Unlink(uint32_t e) {
    const Link link = links[e];
    (link.prev == kNone ? head : links[link.prev].next) = link.next;
    (link.next == kNone ? tail : links[link.next].prev) = link.prev;
  }

  void PushFront(uint32_t e) {
    links[e] = Link{kNone, head};
    (head == kNone ? tail : links[head].prev) = e;
    head = e;
  }

  void Touch(uint32_t e) {
    if (e == head) return;
    Unlink(e);
    PushFront(e);
  }

  void PlaceSlot(uint32_t e, size_t home) {
    const size_t mask = NumSlots() - 1;
    size_t i = home;
    while (Slot(i) != 0) i = (i + 1) & mask;
    SetSlot(i, e + 1);
  }

  /// Frees e's slot by backward shift: each later member of the probe run
  /// moves into the hole unless its home lies cyclically in (hole, j], so
  /// every remaining key stays reachable from its home without tombstones.
  void EraseSlot(uint32_t e) {
    const size_t mask = NumSlots() - 1;
    size_t hole = HomeOf(e);
    while (Slot(hole) != e + 1) hole = (hole + 1) & mask;
    for (size_t j = (hole + 1) & mask; Slot(j) != 0; j = (j + 1) & mask) {
      const size_t home = HomeOf(Slot(j) - 1);
      const bool reachable_from_home =
          hole < j ? (hole < home && home <= j) : (hole < home || home <= j);
      if (reachable_from_home) continue;
      SetSlot(hole, Slot(j));
      hole = j;
    }
    SetSlot(hole, 0);
  }

  void GrowSlots() {
    const size_t n = std::max<size_t>(16, NumSlots() * 2);
    if (narrow_slots) {
      slots16.assign(n, 0);
    } else {
      slots32.assign(n, 0);
    }
    for (uint32_t e = 0; e < size(); ++e) PlaceSlot(e, HomeOf(e));
  }

  /// Stores `key` unless it is resident, evicting the least recently used
  /// entry at capacity. Returns whether it stored it.
  bool Insert(const uint64_t* key, uint64_t hash, double total_cost,
              uint32_t reply) {
    if (Find(key, hash) != kNone) return false;
    uint32_t e = 0;
    if (size() >= capacity) {
      e = tail;
      EraseSlot(e);
      Unlink(e);
      ++evictions;
    } else {
      if ((size() + 1) * 4 > NumSlots() * 3) GrowSlots();
      e = static_cast<uint32_t>(size());
      keys.Append();
      costs.Append();
      replies.Append();
      links.Append();
    }
    std::copy(key, key + dims, keys.Row(e));
    costs[e] = total_cost;
    replies[e] = reply;
    PlaceSlot(e, HomeSlot(hash));
    PushFront(e);
    return true;
  }

  /// Drops every entry and releases the arrays.
  void Clear() {
    keys.Clear();
    costs.Clear();
    replies.Clear();
    links.Clear();
    slots16 = std::vector<uint16_t>();
    slots32 = std::vector<uint32_t>();
    head = tail = kNone;
  }
};

CachingOracle::CachingOracle(core::PlanOracle& base,
                             const OracleCacheOptions& options)
    : base_(base),
      options_(options),
      shard_mask_(RoundUpToPowerOfTwo(options.shards == 0 ? 1 : options.shards) -
                  1),
      // Entry positions are 32-bit, with kNone reserved.
      per_shard_capacity_(std::clamp<size_t>(
          options.max_entries / (shard_mask_ + 1), 1, kNone - 1)),
      dims_(base.dims()),
      replies_(std::make_unique<Replies>()) {
  shards_.reserve(shard_mask_ + 1);
  for (size_t i = 0; i <= shard_mask_; ++i) {
    shards_.push_back(std::make_unique<Shard>(dims_, per_shard_capacity_));
  }
}

CachingOracle::~CachingOracle() = default;

core::OracleResult CachingOracle::Optimize(const core::CostVector& c) {
  COSTSENSE_CHECK(c.size() == dims_);
  const KeyBuffer key(c);
  const uint64_t hash = HashKey(key.data(), dims_);
  Shard& shard = *shards_[hash & shard_mask_];

  uint32_t hit = kNone;
  double hit_cost = 0.0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const uint32_t e = shard.Find(key.data(), hash);
    if (e != kNone) {
      ++shard.hits;
      shard.Touch(e);
      hit = shard.replies[e];
      hit_cost = shard.costs[e];
    } else {
      ++shard.misses;
    }
  }
  if (hit != kNone) return replies_->Get(hit, hit_cost);

  // Compute outside the lock, at the key's canonical point so every thread
  // that misses on this key produces the identical result.
  core::CostVector canonical(dims_);
  for (size_t i = 0; i < dims_; ++i) {
    canonical[i] = DequantizeCost(key.data()[i], kKeyMantissaBits);
  }
  core::OracleResult result = base_.Optimize(canonical);
  const uint32_t reply = replies_->Intern(result);

  std::lock_guard<std::mutex> lock(shard.mu);
  // A racing thread may have inserted the same key first; its value is
  // identical (same canonical point), so the duplicate compute is dropped.
  (void)shard.Insert(key.data(), hash, result.total_cost, reply);
  return result;
}

OracleCacheStats CachingOracle::stats() const {
  OracleCacheStats s;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    s.hits += shard->hits;
    s.misses += shard->misses;
    s.evictions += shard->evictions;
    s.entries += shard->size();
    s.imported += shard->imported;
  }
  return s;
}

std::vector<OracleCacheEntry> CachingOracle::Export() const {
  std::vector<OracleCacheEntry> out;
  std::vector<uint32_t> reply_of;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (uint32_t e = 0; e < shard->size(); ++e) {
      const uint64_t* key = shard->KeyOf(e);
      OracleCacheEntry entry;
      entry.key.assign(key, key + dims_);
      entry.result.total_cost = shard->costs[e];
      out.push_back(std::move(entry));
      reply_of.push_back(shard->replies[e]);
    }
  }
  for (size_t i = 0; i < out.size(); ++i) {
    out[i].result = replies_->Get(reply_of[i], out[i].result.total_cost);
  }
  // Sort by key: shard order is a function of hash layout, and the
  // snapshot bytes must be a pure function of the cache contents.
  std::sort(out.begin(), out.end(),
            [](const OracleCacheEntry& a, const OracleCacheEntry& b) {
              return a.key < b.key;
            });
  return out;
}

OracleCacheImport CachingOracle::Import(
    const std::vector<OracleCacheEntry>& entries) {
  OracleCacheImport counts;
  for (const OracleCacheEntry& entry : entries) {
    const std::optional<core::UsageVector>& usage = entry.result.usage;
    if (entry.key.size() != dims_ ||
        (usage.has_value() && usage->size() != dims_)) {
      ++counts.dropped;
      continue;
    }
    const uint64_t hash = HashKey(entry.key.data(), dims_);
    Shard& shard = *shards_[hash & shard_mask_];
    const uint32_t reply = replies_->Intern(entry.result);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!shard.Insert(entry.key.data(), hash, entry.result.total_cost,
                      reply)) {
      continue;
    }
    ++shard.imported;
    ++counts.inserted;
  }
  return counts;
}

void CachingOracle::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->Clear();
  }
}

}  // namespace costsense::runtime
