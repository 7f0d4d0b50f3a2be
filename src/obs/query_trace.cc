#include "obs/query_trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/json.h"
#include "obs/trace.h"

namespace cem::obs {
namespace {

/// Heap order that puts the CHEAPEST retained trace at the front (a
/// "greater" comparator makes std::push_heap build a min-heap), so a new
/// slow query only has to beat the front to earn a slot.
bool MinHeapOrder(const QueryTrace& a, const QueryTrace& b) {
  return a.total_us > b.total_us;
}

void AppendField(std::string& out, const char* key, double value,
                 bool* first) {
  if (!*first) out += ", ";
  *first = false;
  out += "\"";
  out += key;  // Keys are literals; escaping kept for shared convention.
  out += "\": ";
  AppendJsonNumber(out, value, "%.3f");
}

void AppendField(std::string& out, const char* key, uint64_t value,
                 bool* first) {
  if (!*first) out += ", ";
  *first = false;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  out += "\"";
  out += key;
  out += "\": ";
  out += buf;
}

void AppendField(std::string& out, const char* key, bool value, bool* first) {
  if (!*first) out += ", ";
  *first = false;
  out += "\"";
  out += key;
  out += "\": ";
  out += value ? "true" : "false";
}

}  // namespace

uint64_t NextQueryId() {
  static std::atomic<uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

double QueryTrace::SinceStartUs() const {
  return static_cast<double>(TraceNowNs() - start_ns) / 1e3;
}

void QueryTrace::AppendJson(std::string& out) const {
  out += "{";
  bool first = true;
  AppendField(out, "query_id", query_id, &first);
  AppendField(out, "ref", ref, &first);
  AppendField(out, "epoch", epoch, &first);
  AppendField(out, "live", live, &first);
  AppendField(out, "error", error, &first);
  AppendField(out, "start_us",
              static_cast<double>(start_ns) / 1e3, &first);
  AppendField(out, "wait_us", wait_us, &first);
  AppendField(out, "signature_us", signature_us, &first);
  AppendField(out, "probe_us", probe_us, &first);
  AppendField(out, "rank_us", rank_us, &first);
  AppendField(out, "cover_us", cover_us, &first);
  AppendField(out, "total_us", total_us, &first);
  AppendField(out, "shards_probed", shards_probed, &first);
  AppendField(out, "candidates_probed", candidates_probed, &first);
  AppendField(out, "candidates_returned", candidates_returned, &first);
  AppendField(out, "cluster_size", cluster_size, &first);
  out += "}";
}

std::string QueryTrace::ToJson() const {
  std::string out;
  AppendJson(out);
  return out;
}

SlowQueryLog::SlowQueryLog(size_t capacity, double threshold_us)
    : capacity_(std::max<size_t>(capacity, 1)), threshold_us_(threshold_us) {}

void SlowQueryLog::Offer(const QueryTrace& trace) {
  if (trace.total_us < threshold_us_) return;
  slow_count_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.size() < capacity_) {
    entries_.push_back(trace);
    std::push_heap(entries_.begin(), entries_.end(), MinHeapOrder);
    return;
  }
  if (trace.total_us <= entries_.front().total_us) return;  // Not worse.
  std::pop_heap(entries_.begin(), entries_.end(), MinHeapOrder);
  entries_.back() = trace;
  std::push_heap(entries_.begin(), entries_.end(), MinHeapOrder);
}

std::vector<QueryTrace> SlowQueryLog::WorstFirst() const {
  std::vector<QueryTrace> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = entries_;
  }
  std::sort(out.begin(), out.end(), [](const QueryTrace& a,
                                       const QueryTrace& b) {
    if (a.total_us != b.total_us) return a.total_us > b.total_us;
    return a.query_id < b.query_id;
  });
  return out;
}

std::string SlowQueryLog::ToJson() const {
  const std::vector<QueryTrace> worst = WorstFirst();
  std::string out = "[";
  for (size_t i = 0; i < worst.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    worst[i].AppendJson(out);
  }
  out += "\n]\n";
  return out;
}

void SlowQueryLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  slow_count_.store(0, std::memory_order_relaxed);
}

}  // namespace cem::obs
