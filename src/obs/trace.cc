#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <utility>

#include "obs/json.h"

namespace cem::obs {
namespace {

std::chrono::steady_clock::time_point TraceEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

uint32_t TraceThreadId() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

uint64_t TraceNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - TraceEpoch())
          .count());
}

bool TraceRecorder::ParseEnabledValue(const char* value) {
  return value != nullptr && value[0] != '\0' && std::strcmp(value, "0") != 0;
}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = [] {
    auto* r = new TraceRecorder();
    r->SetEnabled(ParseEnabledValue(std::getenv("CEM_TRACE")));
    return r;
  }();
  return *recorder;
}

TraceRecorder::ThreadLog& TraceRecorder::LocalLog() {
  // The owner's destructor runs at thread exit and flushes the buffer
  // into the recorder's retired list — a short-lived worker thread's
  // spans survive the thread, and logs_ does not grow by one dead entry
  // per thread the process ever spawned. (The recorder itself is the
  // leaked Global() singleton, so it outlives every thread.)
  struct Owner {
    TraceRecorder* recorder;
    std::shared_ptr<ThreadLog> log;
    ~Owner() { recorder->RetireLog(log); }
  };
  thread_local Owner owner = [this] {
    auto created = std::make_shared<ThreadLog>();
    std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(created);
    return Owner{this, std::move(created)};
  }();
  return *owner.log;
}

void TraceRecorder::RetireLog(const std::shared_ptr<ThreadLog>& log) {
  std::lock_guard<std::mutex> lock(mu_);
  {
    std::lock_guard<std::mutex> log_lock(log->mu);
    retired_.insert(retired_.end(), log->events.begin(), log->events.end());
    log->events.clear();
  }
  std::erase(logs_, log);
}

void TraceRecorder::Record(const TraceEvent& event) {
  ThreadLog& log = LocalLog();
  std::lock_guard<std::mutex> lock(log.mu);
  log.events.push_back(event);
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out = retired_;
  for (const auto& log : logs_) {
    std::lock_guard<std::mutex> log_lock(log->mu);
    out.insert(out.end(), log->events.begin(), log->events.end());
  }
  return out;
}

Status TraceRecorder::WriteJson(const std::string& path) const {
  const std::vector<TraceEvent> events = Events();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return InternalError("cannot write trace to " + path);
  // Chrome trace_event "JSON array format": a bare array of complete
  // events; ts/dur are microseconds (fractions allowed).
  out << "[";
  char buf[160];
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    // Span names ride through the shared escaper (obs/json.h), like
    // metric names in the JSON metrics export.
    out << (i == 0 ? "" : ",") << "\n{\"name\": \"" << JsonEscaped(e.name)
        << "\"";
    std::snprintf(buf, sizeof(buf),
                  ", \"cat\": \"cem\", \"ph\": \"X\", \"ts\": %.3f, "
                  "\"dur\": %.3f, \"pid\": 1, \"tid\": %u}",
                  static_cast<double>(e.start_ns) / 1e3,
                  static_cast<double>(e.duration_ns) / 1e3, e.tid);
    out << buf;
  }
  out << "\n]\n";
  out.flush();
  if (!out) return InternalError("short write to " + path);
  return OkStatus();
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  retired_.clear();
  for (const auto& log : logs_) {
    std::lock_guard<std::mutex> log_lock(log->mu);
    log->events.clear();
  }
}

TraceSpan::~TraceSpan() {
  const uint64_t duration_ns = TraceNowNs() - start_ns_;
  if (latency_us_ != nullptr) {
    latency_us_->Record(static_cast<double>(duration_ns) / 1e3);
  }
  if (traced_) {
    TraceRecorder::Global().Record(
        {name_, start_ns_, duration_ns, TraceThreadId()});
  }
}

}  // namespace cem::obs
