#ifndef CEM_OBS_TRACE_H_
#define CEM_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace cem::obs {

/// One completed span: times are nanoseconds on the process trace epoch
/// (steady clock, first use = 0). `name` must be a string literal — spans
/// record the pointer, never a copy.
struct TraceEvent {
  const char* name;
  uint64_t start_ns;
  uint64_t duration_ns;
  uint32_t tid;
};

/// Nanoseconds since the process trace epoch.
uint64_t TraceNowNs();

/// Process-wide scoped-span recorder. Off by default; recording starts when
/// the CEM_TRACE environment variable is set to anything but "" or "0", or
/// when a driver calls SetEnabled(true) (dedup_tool --trace-json does).
/// While disabled, a CEM_TRACE span costs one relaxed atomic load plus two
/// clock reads; while enabled, finished spans append to per-thread buffers
/// (one uncontended mutex each) and export as a Chrome trace_event JSON
/// array (chrome://tracing, Perfetto) for flame-chart inspection.
class TraceRecorder {
 public:
  static TraceRecorder& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// True when an environment value requests tracing ("" and "0" mean off).
  /// Split out for unit tests; Global() applies it to CEM_TRACE once.
  static bool ParseEnabledValue(const char* value);

  void Record(const TraceEvent& event);

  /// Completed spans so far: spans flushed from exited threads first,
  /// then the live threads' buffers in per-thread append order.
  std::vector<TraceEvent> Events() const;

  /// Writes every recorded span as a Chrome trace_event JSON array of
  /// complete ("ph": "X") events, timestamps in microseconds.
  Status WriteJson(const std::string& path) const;

  /// Drops recorded spans (buffers stay registered).
  void Clear();

 private:
  TraceRecorder() = default;

  struct ThreadLog {
    std::mutex mu;
    std::vector<TraceEvent> events;
  };
  ThreadLog& LocalLog();

  /// Thread-exit flush: moves the log's spans into `retired_` and drops
  /// the registration, so short-lived worker threads neither lose their
  /// spans nor leave a dead per-thread buffer behind in `logs_`.
  void RetireLog(const std::shared_ptr<ThreadLog>& log);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // Guards logs_ and retired_.
  std::vector<std::shared_ptr<ThreadLog>> logs_;
  /// Spans flushed from threads that have exited.
  std::vector<TraceEvent> retired_;
};

/// RAII span: stamps TraceNowNs() at construction and again at
/// destruction — one clock read per edge — and, on exit, records a
/// TraceEvent (when the recorder is enabled) and/or a sample into
/// `latency_us` (when given — microseconds, always on, feeding the
/// registry's `hist_*` percentiles even with tracing off).
class TraceSpan {
 public:
  /// `name` must be a string literal (or otherwise outlive the recorder).
  explicit TraceSpan(const char* name, Histogram* latency_us = nullptr)
      : name_(name),
        latency_us_(latency_us),
        traced_(TraceRecorder::Global().enabled()),
        start_ns_(TraceNowNs()) {}

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan();

 private:
  const char* name_;
  Histogram* latency_us_;
  bool traced_;
  uint64_t start_ns_;
};

}  // namespace cem::obs

/// Scoped stage span: `CEM_TRACE("blocking/minhash");` traces the enclosing
/// scope under that name. CEM_TRACE_TIMED also feeds a registry histogram,
/// so the stage's latency distribution is exported even when tracing is off.
#define CEM_TRACE_CONCAT_INNER_(a, b) a##b
#define CEM_TRACE_CONCAT_(a, b) CEM_TRACE_CONCAT_INNER_(a, b)
#define CEM_TRACE(name) \
  ::cem::obs::TraceSpan CEM_TRACE_CONCAT_(cem_trace_span_, __COUNTER__)(name)
#define CEM_TRACE_TIMED(name, histogram_ptr)                               \
  ::cem::obs::TraceSpan CEM_TRACE_CONCAT_(cem_trace_span_, __COUNTER__)(   \
      name, histogram_ptr)

#endif  // CEM_OBS_TRACE_H_
