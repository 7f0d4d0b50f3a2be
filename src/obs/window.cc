#include "obs/window.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cem::obs {

RollingWindow::RollingWindow()
    : bounds_(Histogram::DefaultLatencyBoundsUs()) {
  for (Bucket& bucket : buckets_) {
    bucket.latency =
        std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
    for (size_t i = 0; i <= bounds_.size(); ++i) bucket.latency[i] = 0;
  }
}

uint64_t RollingWindow::NowSeconds() { return TraceNowNs() / 1'000'000'000ull; }

bool RollingWindow::Roll(Bucket& bucket, uint64_t now_s) {
  std::lock_guard<std::mutex> lock(bucket.reset_mu);
  const uint64_t held = bucket.second.load(std::memory_order_relaxed);
  if (held == now_s) return true;  // Another recorder rolled it already.
  if (held != kIdle && held > now_s) {
    // The slot recycled past this sample's second (a recorder stalled for
    // a full ring revolution) — dropping it is the only correct move, it
    // belongs to a second no read can select anymore.
    return false;
  }
  bucket.count.store(0, std::memory_order_relaxed);
  bucket.errors.store(0, std::memory_order_relaxed);
  bucket.latency_sum.store(0.0, std::memory_order_relaxed);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    bucket.latency[i].store(0, std::memory_order_relaxed);
  }
  // Release-publish the new second: a reader that sees it also sees the
  // zeroed contents.
  bucket.second.store(now_s, std::memory_order_release);
  return true;
}

void RollingWindow::RecordAt(uint64_t now_s, double latency_us, bool error) {
  Bucket& bucket = buckets_[now_s % kCapacitySeconds];
  if (bucket.second.load(std::memory_order_acquire) != now_s &&
      !Roll(bucket, now_s)) {
    return;
  }
  const size_t slot =
      static_cast<size_t>(std::lower_bound(bounds_.begin(), bounds_.end(),
                                           latency_us) -
                          bounds_.begin());
  bucket.count.fetch_add(1, std::memory_order_relaxed);
  if (error) bucket.errors.fetch_add(1, std::memory_order_relaxed);
  bucket.latency_sum.fetch_add(latency_us, std::memory_order_relaxed);
  bucket.latency[slot].fetch_add(1, std::memory_order_relaxed);
}

WindowStats RollingWindow::OverAt(uint64_t window_s, uint64_t now_s) const {
  WindowStats stats;
  stats.window_s = std::clamp<uint64_t>(window_s, 1, kMaxWindowSeconds);
  std::vector<uint64_t> merged(bounds_.size() + 1, 0);
  for (const Bucket& bucket : buckets_) {
    const uint64_t second = bucket.second.load(std::memory_order_acquire);
    // The window is the trailing closed interval of seconds
    // (now_s - window_s, now_s].
    if (second == kIdle || second > now_s ||
        now_s - second >= stats.window_s) {
      continue;
    }
    stats.count += bucket.count.load(std::memory_order_relaxed);
    stats.errors += bucket.errors.load(std::memory_order_relaxed);
    for (size_t i = 0; i <= bounds_.size(); ++i) {
      merged[i] += bucket.latency[i].load(std::memory_order_relaxed);
    }
  }
  stats.qps = static_cast<double>(stats.count) /
              static_cast<double>(stats.window_s);
  stats.error_rate = stats.count == 0
                         ? 0.0
                         : static_cast<double>(stats.errors) /
                               static_cast<double>(stats.count);
  stats.p50 = BucketPercentile(merged, bounds_, stats.count, 0.50);
  stats.p95 = BucketPercentile(merged, bounds_, stats.count, 0.95);
  stats.p99 = BucketPercentile(merged, bounds_, stats.count, 0.99);
  return stats;
}

}  // namespace cem::obs
