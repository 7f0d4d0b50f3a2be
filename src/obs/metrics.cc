#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <utility>

#include "obs/json.h"
#include "util/logging.h"

namespace cem::obs {

namespace internal_metrics {

uint32_t ThreadSlot() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace internal_metrics

// --- Histogram --------------------------------------------------------------

double BucketPercentile(std::span<const uint64_t> buckets,
                        std::span<const double> bounds, uint64_t total,
                        double q) {
  if (total == 0) return 0.0;
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const uint64_t next = cumulative + buckets[i];
    if (static_cast<double>(next) >= target) {
      if (i == bounds.size()) return bounds.back();  // Overflow bucket.
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      const double upper = bounds[i];
      const double within = (target - static_cast<double>(cumulative)) /
                            static_cast<double>(buckets[i]);
      return lower + (upper - lower) * std::clamp(within, 0.0, 1.0);
    }
    cumulative = next;
  }
  return bounds.back();
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  CEM_CHECK(!bounds_.empty()) << "histogram needs at least one bucket bound";
  CEM_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()) &&
            std::adjacent_find(bounds_.begin(), bounds_.end()) == bounds_.end())
      << "histogram bounds must be strictly ascending";
  for (Slot& slot : slots_) {
    slot.buckets =
        std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
    for (size_t i = 0; i <= bounds_.size(); ++i) slot.buckets[i] = 0;
  }
}

std::vector<double> Histogram::DefaultLatencyBoundsUs() {
  std::vector<double> bounds;
  for (double decade = 1.0; decade <= 1e6; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(decade * 2.0);
    bounds.push_back(decade * 5.0);
  }
  bounds.push_back(1e7);  // 10s.
  bounds.push_back(3e7);  // 30s: anything slower is the overflow bucket.
  return bounds;
}

void Histogram::Record(double value) {
  const size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  Slot& slot =
      slots_[internal_metrics::ThreadSlot() & (kMetricSlots - 1)];
  slot.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  slot.sum.fetch_add(value, std::memory_order_relaxed);
}

void Histogram::MergedBuckets(std::vector<uint64_t>* buckets, uint64_t* total,
                              double* sum) const {
  buckets->assign(bounds_.size() + 1, 0);
  *total = 0;
  *sum = 0.0;
  for (const Slot& slot : slots_) {
    for (size_t i = 0; i <= bounds_.size(); ++i) {
      const uint64_t n = slot.buckets[i].load(std::memory_order_relaxed);
      (*buckets)[i] += n;
      *total += n;
    }
    *sum += slot.sum.load(std::memory_order_relaxed);
  }
}

uint64_t Histogram::Count() const {
  std::vector<uint64_t> buckets;
  uint64_t total = 0;
  double sum = 0.0;
  MergedBuckets(&buckets, &total, &sum);
  return total;
}

double Histogram::Sum() const {
  std::vector<uint64_t> buckets;
  uint64_t total = 0;
  double sum = 0.0;
  MergedBuckets(&buckets, &total, &sum);
  return sum;
}

double Histogram::Percentile(double q) const {
  std::vector<uint64_t> buckets;
  uint64_t total = 0;
  double sum = 0.0;
  MergedBuckets(&buckets, &total, &sum);
  return BucketPercentile(buckets, bounds_, total, q);
}

HistogramStats Histogram::Stats() const {
  // One merged read serves every percentile, so count, sum and the three
  // quantiles describe the same instant. Snapshots still race with
  // writers by design (monitoring reads are always approximate in time).
  std::vector<uint64_t> buckets;
  HistogramStats stats;
  MergedBuckets(&buckets, &stats.count, &stats.sum);
  if (stats.count == 0) return stats;
  stats.p50 = BucketPercentile(buckets, bounds_, stats.count, 0.50);
  stats.p95 = BucketPercentile(buckets, bounds_, stats.count, 0.95);
  stats.p99 = BucketPercentile(buckets, bounds_, stats.count, 0.99);
  return stats;
}

void Histogram::Reset() {
  for (Slot& slot : slots_) {
    for (size_t i = 0; i <= bounds_.size(); ++i) {
      slot.buckets[i].store(0, std::memory_order_relaxed);
    }
    slot.sum.store(0.0, std::memory_order_relaxed);
  }
}

// --- MetricsSnapshot --------------------------------------------------------

std::string MetricsSnapshot::ToJson() const {
  // Metric names go through the shared escaper (obs/json.h): a name
  // carrying a quote, backslash or control character must yield an
  // escaped key, not a truncated/unparseable document.
  std::string out = "{";
  bool first = true;
  const auto key = [&](const char* prefix, const std::string& name,
                       const char* suffix = "") {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += prefix;
    AppendJsonEscaped(out, name);
    out += suffix;
    out += "\": ";
  };
  char buf[64];
  for (const auto& [name, value] : counters) {
    key("counter_", name);
    std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
    out += buf;
  }
  for (const auto& [name, value] : gauges) {
    key("gauge_", name);
    AppendJsonNumber(out, value, "%.6g");
  }
  for (const auto& [name, stats] : histograms) {
    key("hist_", name, "_count");
    std::snprintf(buf, sizeof(buf), "%" PRIu64, stats.count);
    out += buf;
    const std::pair<const char*, double> quantiles[] = {
        {"_sum", stats.sum}, {"_p50", stats.p50}, {"_p95", stats.p95},
        {"_p99", stats.p99}};
    for (const auto& [suffix, value] : quantiles) {
      key("hist_", name, suffix);
      AppendJsonNumber(out, value, "%.3f");
    }
  }
  out += "}\n";
  return out;
}

// --- MetricsRegistry --------------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Entry& MetricsRegistry::FindOrCreate(
    std::string_view name, Kind kind, std::vector<double>* bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry entry;
    entry.kind = kind;
    switch (kind) {
      case Kind::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        entry.histogram = std::make_unique<Histogram>(
            bounds != nullptr ? std::move(*bounds)
                              : Histogram::DefaultLatencyBoundsUs());
        break;
    }
    it = entries_.emplace(std::string(name), std::move(entry)).first;
  }
  CEM_CHECK(it->second.kind == kind)
      << "metric '" << std::string(name)
      << "' already registered as a different kind";
  return it->second;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return *FindOrCreate(name, Kind::kCounter, nullptr).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return *FindOrCreate(name, Kind::kGauge, nullptr).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return *FindOrCreate(name, Kind::kHistogram, nullptr).histogram;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  return *FindOrCreate(name, Kind::kHistogram, &bounds).histogram;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        snapshot.counters[name] = entry.counter->Value();
        break;
      case Kind::kGauge:
        snapshot.gauges[name] = entry.gauge->Value();
        break;
      case Kind::kHistogram:
        snapshot.histograms[name] = entry.histogram->Stats();
        break;
    }
  }
  return snapshot;
}

void MetricsRegistry::ResetForTesting() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        entry.counter->Reset();
        break;
      case Kind::kGauge:
        entry.gauge->Set(0.0);
        break;
      case Kind::kHistogram:
        entry.histogram->Reset();
        break;
    }
  }
}

Status WriteMetricsJson(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return InternalError("cannot write metrics to " + path);
  out << MetricsRegistry::Global().Snapshot().ToJson();
  out.flush();
  if (!out) return InternalError("short write to " + path);
  return OkStatus();
}

}  // namespace cem::obs
