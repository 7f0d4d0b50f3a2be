#ifndef CEM_PERFBENCH_INSTRUMENT_H_
#define CEM_PERFBENCH_INSTRUMENT_H_

// Tracing from the benchmark's side of the API: an in-memory span log
// written out when a run ends, and a matcher decorator that counts and
// times every black-box call. Nothing here reaches into src/; both sit
// around public calls only.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/matcher.h"

namespace cem::perfbench {

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One completed span. `parent` indexes the log (-1 for a root); every
/// span of one run carries the same `run_id`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t tid = 0;
};

/// In-memory span log. Disabled logs record nothing, so untraced runs pay
/// one branch per span. Thread-safe.
class SpanLog {
 public:
  SpanLog(bool enabled, uint64_t run_id) : enabled_(enabled), run_id_(run_id) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Opens a span and returns its id (-1 when disabled).
  int32_t Begin(const char* name, int32_t parent);
  void End(int32_t id);

  /// Share of span `id`'s interval covered by its direct children.
  double ChildCoverage(int32_t id) const;
  /// Writes every span as a Chrome trace_event JSON array.
  bool WriteChromeJson(const std::string& path,
                       const std::string& host_json) const;

 private:
  const bool enabled_;
  const uint64_t run_id_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span over one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int32_t parent = -1)
      : log_(log), id_(log.Begin(name, parent)) {}
  ~ScopedSpan() { log_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id() const { return id_; }

 private:
  SpanLog& log_;
  int32_t id_;
};

/// Matcher decorator in the style of eval::CostModelMatcher: forwards every
/// virtual of core::ProbabilisticMatcher to the wrapped matcher, counting
/// and timing each call. Calls the wrapped matcher makes on itself (e.g.
/// MatchConditioned forwarding to Match) are not seen, so each black-box
/// invocation is counted once. Thread-safe.
class InstrumentedMatcher : public core::ProbabilisticMatcher {
 public:
  enum Method { kMatch, kConditioned, kEntangled, kScore, kScoreDelta,
                kNumMethods };
  struct CallStats {
    uint64_t calls = 0;
    uint64_t nanos = 0;
  };

  explicit InstrumentedMatcher(const core::ProbabilisticMatcher& inner)
      : inner_(inner) {}

  core::MatchSet Match(const std::vector<data::EntityId>& entities,
                       const core::MatchSet& positive,
                       const core::MatchSet& negative) const override;
  using core::Matcher::Match;
  core::MatchSet MatchConditioned(const std::vector<data::EntityId>& entities,
                                  const core::MatchSet& positive,
                                  const core::MatchSet& negative)
      const override;
  std::vector<data::EntityPair> EntangledPairs(
      const std::vector<data::EntityId>& entities,
      const core::MatchSet& evidence,
      const core::MatchSet& base) const override;
  const data::Dataset& dataset() const override { return inner_.dataset(); }
  double Score(const core::MatchSet& matches) const override;
  double ScoreDelta(
      const core::MatchSet& current,
      const std::vector<data::EntityPair>& additions) const override;

  CallStats stats(Method method) const;
  /// Nanoseconds spent inside calls of every method.
  uint64_t total_nanos() const;
  /// Match + MatchConditioned calls that returned a pair outside their
  /// positive evidence.
  uint64_t useful_calls() const { return useful_.load(); }
  /// Durations of every Match call so far, microseconds.
  std::vector<double> MatchDurationsUs() const;
  void Reset();

 private:
  void Record(Method method, int64_t start_ns) const;
  void RecordSolve(const core::MatchSet& result,
                   const core::MatchSet& positive) const;

  const core::ProbabilisticMatcher& inner_;
  mutable std::array<std::atomic<uint64_t>, kNumMethods> calls_{};
  mutable std::array<std::atomic<uint64_t>, kNumMethods> nanos_{};
  mutable std::atomic<uint64_t> useful_{0};
  mutable std::mutex durations_mu_;
  mutable std::vector<float> match_us_;  // Guarded by durations_mu_.
};

}  // namespace cem::perfbench

#endif  // CEM_PERFBENCH_INSTRUMENT_H_
