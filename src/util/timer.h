#ifndef CEM_UTIL_TIMER_H_
#define CEM_UTIL_TIMER_H_

#include <chrono>

namespace cem {

/// Wall-clock stopwatch used by the benchmark harness.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Milliseconds elapsed since construction or the last Reset().
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace cem

#endif  // CEM_UTIL_TIMER_H_
