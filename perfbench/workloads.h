#ifndef CEM_PERFBENCH_WORKLOADS_H_
#define CEM_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace cem::perfbench {

/// Worker threads of the execution context every workload runs on.
constexpr uint32_t kThreads = 4;

/// One benchmark invocation.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Measured time budget of the run (set-up and checks excluded).
  double seconds = 10.0;
  /// Traced run: per-layer metrics and a span file instead of the
  /// end-to-end metrics.
  bool trace = false;
  /// Directory for the corpus TSV and the span file.
  std::string work_dir;
  /// Host facts, one JSON object, stamped into the span file.
  std::string host_json;
};

/// What a run prints as its last line: the metrics in order, plus the
/// operations attempted and failed. A failed correctness check is a
/// failed operation.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Adds each metric of `runs` (reports holding the same metrics in the
  /// same order) as its median over the runs.
  void AddMedians(const std::vector<Report>& runs);
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& what);
  /// Counts one attempted check; a false `ok` fails it.
  void Check(bool ok, const std::string& what);
  std::string ToJson() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Runs `options.workload`, filling `report`. Returns false on a set-up
/// error (no result is printed then).
bool RunWorkload(const Options& options, Report& report);

}  // namespace cem::perfbench

#endif  // CEM_PERFBENCH_WORKLOADS_H_
