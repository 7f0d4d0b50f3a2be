#ifndef CEM_OBS_QUERY_TRACE_H_
#define CEM_OBS_QUERY_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace cem::obs {

/// Process-unique, monotonically increasing query id (first call = 1).
/// One relaxed fetch_add; ids are unique across threads by construction.
uint64_t NextQueryId();

/// Per-request trace context of one serve::MatchService::Lookup — the
/// request-level sibling of a TraceEvent. The lookup threads it through
/// its pipeline (lock wait → signature → sharded LSH probe → candidate
/// ranking → cover read), stamping each stage boundary as a cumulative
/// offset from the query's start; offsets are read from one steady clock
/// in stage order, so they are monotone non-decreasing by construction:
///
///   wait_us <= signature_us <= probe_us <= rank_us <= cover_us <= total_us
///
/// The trace rides on the QueryResult (so callers can ask "why was MY
/// query slow?") and feeds the service's SlowQueryLog.
struct QueryTrace {
  /// NextQueryId() of this lookup.
  uint64_t query_id = 0;
  /// The queried reference and the epoch that answered it.
  uint64_t ref = 0;
  uint64_t epoch = 0;
  /// Whether the reference was live, and whether the lookup failed
  /// validation (an error trace carries total_us only).
  bool live = false;
  bool error = false;
  /// Query start, nanoseconds on the process trace epoch (TraceNowNs).
  uint64_t start_ns = 0;
  /// Cumulative stage-end offsets since start, microseconds.
  double wait_us = 0.0;       ///< Validated; shared lock held.
  double signature_us = 0.0;  ///< MinHash signature obtained.
  double probe_us = 0.0;      ///< Sharded LSH probe done.
  double rank_us = 0.0;       ///< Candidates scored, ranked and capped.
  double cover_us = 0.0;      ///< Match flags + cluster read done.
  double total_us = 0.0;      ///< Lookup returned (= the latency sample).
  /// Stage work counts.
  uint64_t shards_probed = 0;        ///< LSH shards the probe consulted.
  uint64_t candidates_probed = 0;    ///< Raw LSH candidates (pre-cap).
  uint64_t candidates_returned = 0;  ///< After ranking and the cap.
  uint64_t cluster_size = 0;         ///< Members of the answered cluster.

  /// Microseconds from start_ns to now on the trace clock — the value each
  /// stage stamp records.
  double SinceStartUs() const;

  /// Appends this trace as one JSON object (numbers and booleans only —
  /// shares the obs/json.h conventions with the other exporters).
  void AppendJson(std::string& out) const;
  std::string ToJson() const;
};

/// Bounded in-memory log of the worst queries over a latency threshold —
/// the "which queries were slow and why" answer a running server gives
/// without logging every request. Offer() is cheap for the fast path
/// (one comparison; under-threshold traces never take the mutex) and
/// keeps the N worst over-threshold traces seen so far (a min-heap on
/// total_us, so the cheapest entry is evicted first). Thread-safe.
class SlowQueryLog {
 public:
  explicit SlowQueryLog(size_t capacity = 32, double threshold_us = 1000.0);

  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  /// Considers one finished trace: counted and retained when
  /// trace.total_us >= threshold_us (and among the worst `capacity`).
  void Offer(const QueryTrace& trace);

  /// Retained traces, worst (highest total_us) first.
  std::vector<QueryTrace> WorstFirst() const;

  /// Queries ever offered at or over the threshold (retained or not).
  uint64_t slow_count() const {
    return slow_count_.load(std::memory_order_relaxed);
  }

  size_t capacity() const { return capacity_; }
  double threshold_us() const { return threshold_us_; }

  /// WorstFirst() as one JSON array (the /slowlog.json and
  /// `dedup_tool --slow-query-log` payload).
  std::string ToJson() const;

  /// Drops retained traces and zeroes the slow counter (test isolation).
  void Clear();

 private:
  const size_t capacity_;
  const double threshold_us_;
  std::atomic<uint64_t> slow_count_{0};
  mutable std::mutex mu_;
  /// Min-heap on total_us (entries_.front() = cheapest retained).
  std::vector<QueryTrace> entries_;
};

}  // namespace cem::obs

#endif  // CEM_OBS_QUERY_TRACE_H_
