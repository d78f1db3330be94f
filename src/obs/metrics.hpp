#pragma once

// Typed metrics in a central registry — the counting half of ucp::obs.
//
// Design contract (DESIGN.md §11, §13):
//  - disabled-by-default: every instrumentation site guards on
//    `obs::enabled()`, a single relaxed atomic load, so the disabled cost
//    is one load + branch (measured ≤1% on the perf smoke);
//  - hot loops never touch registry atomics per iteration — kernels
//    aggregate locally and `add()` once per analysis/solve/run;
//  - instruments have stable addresses for the lifetime of the process, so
//    call sites cache `static Counter& c = registry().counter(...)`;
//  - counters and histograms are internally sharded across cache-line-
//    padded per-thread cells, so a 16-worker sweep never serializes on one
//    contended atomic; reads merge the shards (addition commutes, so the
//    merged value is deterministic for a deterministic set of adds);
//  - snapshots are deterministic: entries come back sorted by name, shard
//    merge included, and no wall-clock value is ever stored in a counter or
//    gauge (durations go into *_ms / *_ns histograms only, whose bucket
//    *counts* are machine-dependent and therefore never fingerprinted).
//
// Naming convention: `layer.component.op`, e.g. `analysis.cache.joins`,
// `ilp.solve.pivots`, `exp.task.attempts`.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ucp::obs {

/// Master instrumentation switch. Relaxed load: instrumentation sites are
/// counters, not synchronization points — a site that observes a stale
/// `false` for a few loads after enabling merely under-counts the boundary.
bool enabled();
void set_enabled(bool on);

namespace internal {

/// Shard fan-out of the per-thread instrument cells. Power of two; large
/// enough that a 16-worker sweep rarely maps two hot threads to one cell,
/// small enough that merging on read stays trivial.
inline constexpr unsigned kShards = 16;

/// Stable per-thread shard slot, assigned round-robin on first use.
unsigned this_thread_shard();

/// One cache line per cell so two threads incrementing different shards of
/// the same instrument never false-share.
struct alignas(64) ShardCell {
  std::atomic<std::uint64_t> value{0};
};

}  // namespace internal

/// Monotonic event count, sharded per thread. `add` touches only the
/// calling thread's cell; `value` merges the shards. The merge is a sum of
/// relaxed loads: exact once writers are quiescent (how every snapshot is
/// taken), momentarily approximate while they race — fine for a counter.
class Counter {
 public:
  void add(std::uint64_t n) {
    shards_[internal::this_thread_shard()].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  void increment() { add(1); }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const internal::ShardCell& cell : shards_)
      total += cell.value.load(std::memory_order_relaxed);
    return total;
  }
  void reset() {
    for (internal::ShardCell& cell : shards_)
      cell.value.store(0, std::memory_order_relaxed);
  }

 private:
  internal::ShardCell shards_[internal::kShards];
};

/// Point-in-time level; `set_max` keeps the high-water mark (peak worklist
/// length, deepest B&B frontier).
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void set_max(std::int64_t v) {
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Exponential (power-of-two) histogram: bucket 0 holds the value 0, bucket
/// i >= 1 holds [2^(i-1), 2^i - 1]. 65 buckets cover the full uint64 range
/// with no configuration and a deterministic bucket→range mapping that the
/// schema (docs/schemas/metrics_snapshot.schema.json) can state once.
/// Like Counter, records land in a per-thread shard (the whole bucket array
/// is sharded, so two worker threads recording never share a line) and
/// reads merge the shards by summation.
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  static int bucket_index(std::uint64_t v);
  /// [lo, hi] covered by bucket `index`.
  static std::pair<std::uint64_t, std::uint64_t> bucket_range(int index);

  void record(std::uint64_t v) {
    Shard& shard = shards_[internal::this_thread_shard()];
    shard.buckets[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    shard.count.fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(v, std::memory_order_relaxed);
  }
  std::uint64_t count() const {
    std::uint64_t total = 0;
    for (const Shard& shard : shards_)
      total += shard.count.load(std::memory_order_relaxed);
    return total;
  }
  std::uint64_t sum() const {
    std::uint64_t total = 0;
    for (const Shard& shard : shards_)
      total += shard.sum.load(std::memory_order_relaxed);
    return total;
  }
  std::uint64_t bucket(int index) const {
    std::uint64_t total = 0;
    for (const Shard& shard : shards_)
      total += shard.buckets[index].load(std::memory_order_relaxed);
    return total;
  }

  /// Estimated q-quantile (q in [0,1]) from the bucket counts: the target
  /// rank is located in the cumulative bucket walk, then linearly
  /// interpolated inside that bucket's [lo, hi] value range. The estimate
  /// is exact for values that fill a bucket uniformly and off by at most
  /// the bucket width otherwise — with power-of-two buckets that bounds
  /// the relative error by 2x, which is the accepted trade for recording
  /// in O(1) with no stored samples. Returns 0 for an empty histogram.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }

  void reset();

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> buckets[kBuckets] = {};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
  };
  Shard shards_[internal::kShards];
};

/// Deterministic point-in-time copy of the registry, sorted by name.
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  struct HistogramValue {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    /// (bucket index, count) for the non-empty buckets, ascending index.
    std::vector<std::pair<int, std::uint64_t>> buckets;
    /// Same estimator as Histogram::quantile, over the snapshot's counts.
    double quantile(double q) const;
  };
  std::vector<HistogramValue> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Estimated q-quantile over (bucket index, count) pairs (ascending index)
/// totalling `count` records — the shared core of Histogram::quantile and
/// Snapshot::HistogramValue::quantile.
double histogram_quantile(
    const std::vector<std::pair<int, std::uint64_t>>& buckets,
    std::uint64_t count, double q);

/// Single-line JSON of a snapshot: {"build":{...},"counters":{...},
/// "gauges":{...},"histograms":{name:{"count":..,"sum":..,
/// "buckets":[[i,n],...]}}}. One code path feeds --metrics files, the
/// admin STATS payload and the journal annotation. The build stamp
/// (obs::build_info) rides in every snapshot so no metrics artifact is ever
/// ambiguous about the binary that produced it.
std::string snapshot_json(const Snapshot& snapshot);

/// Central instrument registry. Lookup takes a mutex — call sites cache the
/// returned reference (function-local static) so steady-state cost is the
/// instrument's own relaxed atomic.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  Snapshot snapshot() const;
  /// Zeroes every instrument's value. Registrations (and addresses) persist:
  /// cached `static Counter&` references at call sites stay valid.
  void reset_values();

 private:
  Registry() = default;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

inline Registry& registry() { return Registry::instance(); }

}  // namespace ucp::obs
