// Bench-side tracing and measurement helpers for the CostSense benchmark.
//
// Spans are recorded from the benchmark's own files, around calls into
// each layer's public entry point: a TimingOracle decorator below the
// oracle cache (the optimizer layer), another above it (cache lookups),
// and scoped spans around discovery and the worst-case LP. Spans stay in
// memory and are reduced once the traced phase ends.
#ifndef COSTBENCH_TRACE_H_
#define COSTBENCH_TRACE_H_

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/oracle.h"

namespace costbench {

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (user + system) in seconds.
inline double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// CPU time of the calling thread in nanoseconds.
inline int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Peak resident set size of the process in MiB.
inline double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Nearest-rank percentile (q in (0, 1]) of an unsorted sample.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Log-bucketed latency histogram: exact below 256 ns, then 256 buckets
/// per power of two (relative error under 0.4%). Fixed size, so a long
/// run's bookkeeping does not grow the process and move peak RSS.
class Histogram {
 public:
  void Add(int64_t ns) {
    ++buckets_[Index(static_cast<uint64_t>(std::max<int64_t>(ns, 0)))];
    ++count_;
  }

  void Merge(const Histogram& other) {
    for (size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
  }

  uint64_t count() const { return count_; }

  /// Nearest-rank percentile (q in (0, 1]) in milliseconds, at the
  /// midpoint of the bucket holding that rank; 0 when empty.
  double PercentileMs(double q) const {
    if (count_ == 0) return 0.0;
    const uint64_t rank = std::clamp<uint64_t>(
        static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))), 1,
        count_);
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen >= rank) return MidpointNs(i) / 1e6;
    }
    return MidpointNs(buckets_.size() - 1) / 1e6;
  }

 private:
  static constexpr int kSubBits = 8;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr int kOctaves = 48;

  static size_t Index(uint64_t ns) {
    if (ns < kSub) return static_cast<size_t>(ns);
    const int top_bit =
        std::min(63 - __builtin_clzll(ns), kSubBits + kOctaves - 1);
    const int octave = top_bit - kSubBits;
    const uint64_t sub = (ns >> octave) - kSub;
    return static_cast<size_t>(kSub + static_cast<uint64_t>(octave) * kSub +
                               std::min(sub, kSub - 1));
  }

  static double MidpointNs(size_t index) {
    if (index < kSub) return static_cast<double>(index);
    const uint64_t octave = (index - kSub) / kSub;
    const uint64_t sub = (index - kSub) % kSub;
    const double width = static_cast<double>(uint64_t{1} << octave);
    return static_cast<double>(kSub + sub) * width + width / 2;
  }

  std::vector<uint64_t> buckets_ =
      std::vector<uint64_t>(kSub + kOctaves * kSub, 0);
  uint64_t count_ = 0;
};

/// FNV-1a, folded over successive byte strings.
inline uint64_t Fnv1a(std::string_view bytes,
                      uint64_t hash = 0xcbf29ce484222325ULL) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// The layer boundaries the benchmark records spans at.
enum class Layer {
  kOpt,        // below the cache: one optimizer invocation (a miss)
  kCache,      // above the cache: one oracle lookup, hit or miss
  kDiscovery,  // core::DiscoverCandidatePlans
  kLp,         // core::WorstCaseOverPlansByLp
  kAnalysis,   // one whole (query, layout) analysis or serve request
};

/// One timed interval. Spans of one (query, layout) pair or one request
/// share `id`; the causing span is the enclosing span of the next layer
/// up with the same id (opt within cache within discovery within
/// analysis).
struct Span {
  Layer layer = Layer::kOpt;
  uint64_t id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Thread CPU time inside the span; recorded for optimizer calls only.
  int64_t cpu_ns = 0;
};

/// In-memory span store; safe to record from any thread. Sharded by
/// thread so recording from the pool's workers rarely contends.
class Tracer {
 public:
  void Record(const Span& span) {
    Shard& shard = shards_[std::hash<std::thread::id>{}(
                               std::this_thread::get_id()) %
                           kShards];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.spans.push_back(span);
  }

  std::vector<Span> Take() {
    std::vector<Span> out;
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      out.insert(out.end(), shard.spans.begin(), shard.spans.end());
      shard.spans.clear();
    }
    return out;
  }

 private:
  static constexpr size_t kShards = 16;
  struct Shard {
    std::mutex mu;
    std::vector<Span> spans;
  };
  Shard shards_[kShards];
};

/// Records one span for its lifetime.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, Layer layer, uint64_t id)
      : tracer_(tracer), span_{layer, id, NowNs(), 0} {}
  ~ScopedSpan() {
    span_.end_ns = NowNs();
    tracer_.Record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  Span span_;
};

/// PlanOracle decorator that records one span per Optimize call. Placed
/// below runtime's CachingOracle it times optimizer invocations; above
/// it, every lookup.
class TimingOracle final : public costsense::core::PlanOracle {
 public:
  /// `base` and `tracer` are not owned and must outlive this.
  TimingOracle(costsense::core::PlanOracle& base, Tracer& tracer, Layer layer,
               uint64_t id)
      : base_(base), tracer_(tracer), layer_(layer), id_(id) {}

  costsense::core::OracleResult Optimize(
      const costsense::core::CostVector& c) override {
    if (layer_ != Layer::kOpt) {
      ScopedSpan span(tracer_, layer_, id_);
      return base_.Optimize(c);
    }
    // An optimizer call runs on the calling thread, so its thread CPU
    // time is the optimizer's CPU cost.
    Span span{layer_, id_, NowNs(), 0, ThreadCpuNs()};
    costsense::core::OracleResult result = base_.Optimize(c);
    span.cpu_ns = ThreadCpuNs() - span.cpu_ns;
    span.end_ns = NowNs();
    tracer_.Record(span);
    return result;
  }
  size_t dims() const override { return base_.dims(); }

 private:
  costsense::core::PlanOracle& base_;
  Tracer& tracer_;
  const Layer layer_;
  const uint64_t id_;
};

/// Reductions over a finished trace.
struct TraceSummary {
  size_t opt_calls = 0;
  double opt_busy_ms = 0.0;
  double opt_cpu_ms = 0.0;
  size_t cache_lookups = 0;
  /// Lookup time not spent in the optimizer below.
  double cache_self_ms = 0.0;
  double discovery_wall_ms = 0.0;
  /// Discovery span time not covered by the union of its lookups.
  double discovery_self_ms = 0.0;
  size_t lp_calls = 0;
  double lp_busy_ms = 0.0;
  double max_analysis_ms = 0.0;
};

inline double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

inline TraceSummary Summarize(std::vector<Span> spans) {
  TraceSummary s;
  // Group child lookups by id so each discovery span can subtract the
  // union of the intervals its lookups cover.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.id != b.id ? a.id < b.id : a.start_ns < b.start_ns;
  });
  int64_t lookup_ns = 0;
  int64_t opt_ns = 0;
  for (size_t lo = 0; lo < spans.size();) {
    size_t hi = lo;
    while (hi < spans.size() && spans[hi].id == spans[lo].id) ++hi;
    std::vector<std::pair<int64_t, int64_t>> lookups;
    for (size_t i = lo; i < hi; ++i) {
      const Span& sp = spans[i];
      const int64_t dur = sp.end_ns - sp.start_ns;
      switch (sp.layer) {
        case Layer::kOpt:
          ++s.opt_calls;
          opt_ns += dur;
          s.opt_cpu_ms += Ms(sp.cpu_ns);
          break;
        case Layer::kCache:
          ++s.cache_lookups;
          lookup_ns += dur;
          lookups.emplace_back(sp.start_ns, sp.end_ns);  // sorted by start
          break;
        case Layer::kLp:
          ++s.lp_calls;
          s.lp_busy_ms += Ms(dur);
          break;
        case Layer::kAnalysis:
          s.max_analysis_ms = std::max(s.max_analysis_ms, Ms(dur));
          break;
        case Layer::kDiscovery:
          break;
      }
    }
    for (size_t i = lo; i < hi; ++i) {
      const Span& d = spans[i];
      if (d.layer != Layer::kDiscovery) continue;
      s.discovery_wall_ms += Ms(d.end_ns - d.start_ns);
      int64_t covered = 0;
      int64_t reach = d.start_ns;
      for (const auto& [a, b] : lookups) {
        const int64_t from = std::max(a, reach);
        const int64_t to = std::min(b, d.end_ns);
        if (to > from) covered += to - from;
        reach = std::max(reach, std::min(b, d.end_ns));
      }
      s.discovery_self_ms += Ms(d.end_ns - d.start_ns - covered);
    }
    lo = hi;
  }
  s.opt_busy_ms = Ms(opt_ns);
  s.cache_self_ms = Ms(lookup_ns - opt_ns);
  return s;
}

}  // namespace costbench

#endif  // COSTBENCH_TRACE_H_
