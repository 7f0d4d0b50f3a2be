#ifndef CEM_OBS_METRICS_H_
#define CEM_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace cem::obs {

/// Number of cache-line-padded write slots every metric spreads its updates
/// over. Threads hash onto slots by a process-unique sequential id, so the
/// instrumented hot paths (per-insert ingest, parallel blocking stages)
/// never contend on one cache line; reads merge the slots. A power of two.
inline constexpr uint32_t kMetricSlots = 16;

namespace internal_metrics {
/// Sequential id of the calling thread, assigned on first use; the slot
/// index is `ThreadSlot() & (kMetricSlots - 1)`.
uint32_t ThreadSlot();
}  // namespace internal_metrics

/// Monotonically increasing integer metric. Add() is wait-free (one relaxed
/// fetch_add on a thread-local slot); Value() merges the slots. Counter
/// totals are exact — sums of integers commute — so a counter incremented
/// only with deterministic amounts is bit-identical for any thread count,
/// which is what lets `counter_*` exports gate in CI.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    slots_[internal_metrics::ThreadSlot() & (kMetricSlots - 1)].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Slot& slot : slots_) {
      total += slot.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Zeroes every slot (test isolation; not linearizable vs concurrent
  /// Add() calls — callers quiesce writers first).
  void Reset() {
    for (Slot& slot : slots_) slot.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> value{0};
  };
  std::array<Slot, kMetricSlots> slots_;
};

/// Last-write-wins scalar (queue depths, live counts). A plain atomic: a
/// gauge records a level, not a rate, so there is nothing to shard.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Merged read of one histogram.
struct HistogramStats {
  uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Estimated value at quantile `q` (clamped to [0, 1]) of merged bucket
/// counts: buckets[i] counts values <= bounds[i], the last bucket is the
/// overflow, and `total` is their sum. Interpolates linearly inside the
/// selected bucket; inside the overflow bucket it clamps to the last
/// finite bound (never +inf/NaN). 0 when `total` is 0. Histogram and
/// RollingWindow both read their percentiles through it.
double BucketPercentile(std::span<const uint64_t> buckets,
                        std::span<const double> bounds, uint64_t total,
                        double q);

/// Fixed-bucket histogram: bucket i counts values <= bounds[i] (the last
/// bucket is the overflow). Record() is wait-free on a thread-local slot of
/// per-bucket counters; percentile reads merge the slots and interpolate
/// linearly inside the selected bucket. Counts are exact; percentiles are
/// bucket-resolution estimates — good enough for the p50/p95/p99 latency
/// trajectory, never for gating.
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly ascending.
  explicit Histogram(std::vector<double> bounds);

  /// Default latency bucket bounds, in microseconds: a 1-2-5 ladder from
  /// 1us to 30s. Every duration histogram in the tree records microseconds.
  static std::vector<double> DefaultLatencyBoundsUs();

  void Record(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  uint64_t Count() const;
  /// Exact for integral-valued records (doubles add exactly below 2^53).
  double Sum() const;
  /// Estimated value at quantile `q` in [0, 1]; 0 when empty.
  double Percentile(double q) const;
  HistogramStats Stats() const;

  /// Zeroes every slot (test isolation; quiesce writers first).
  void Reset();

 private:
  struct alignas(64) Slot {
    /// bounds.size() + 1 buckets (the last is the overflow bucket).
    std::unique_ptr<std::atomic<uint64_t>[]> buckets;
    std::atomic<double> sum{0.0};
  };
  /// Merged per-bucket counts + total, shared by the percentile reads.
  void MergedBuckets(std::vector<uint64_t>* buckets, uint64_t* total,
                     double* sum) const;

  std::vector<double> bounds_;
  std::array<Slot, kMetricSlots> slots_;
};

/// Point-in-time merged read of a whole registry, keyed by metric name.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramStats> histograms;

  /// One flat JSON object with prefixed keys — the operational export
  /// format (`dedup_tool --metrics-json`, bench reports): every counter as
  /// `"counter_<name>": <integer>`, every gauge as `"gauge_<name>"`, and
  /// every histogram flattened to `hist_<name>_count` / `_p50` / `_p95` /
  /// `_p99` (numeric). ci/check.sh schema-checks exactly this shape.
  std::string ToJson() const;
};

/// Process-wide named-metric registry. Lookup (`counter("x")`) takes a
/// mutex and should run once per instrumentation site (cache the returned
/// reference in a static local); the returned metric objects are the
/// contention-free hot path and stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  /// The process-wide registry every CEM_* instrumentation site uses.
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates. Metric kinds share one namespace: registering the
  /// same name as two different kinds is a programming error (CHECK).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Default bounds: Histogram::DefaultLatencyBoundsUs().
  Histogram& histogram(std::string_view name);
  /// Custom bounds apply on first registration; later lookups of the same
  /// name return the existing histogram unchanged.
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric (names stay registered, pointers stay
  /// valid). Test isolation only; quiesce instrumented threads first.
  void ResetForTesting();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& FindOrCreate(std::string_view name, Kind kind,
                      std::vector<double>* bounds);

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_;
};

/// Writes MetricsRegistry::Global().Snapshot().ToJson() to `path`.
Status WriteMetricsJson(const std::string& path);

}  // namespace cem::obs

#endif  // CEM_OBS_METRICS_H_
