// The repository benchmark's program. Runs one workload for one seed and
// prints, as its last line, one JSON object with the keys correct,
// attempted, failed and metrics. Normally started through run.py, which
// builds it first:
//
//   perfbench --workload batch_smp --seed 1 --seconds 55 --trace 0
//             [--work-dir .bench_build/perfbench-work] [--commit <sha>]

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "blocking/minhash_simd.h"
#include "workloads.h"

namespace {

constexpr const char* kBuildType = CEM_PERFBENCH_BUILD_TYPE;
constexpr const char* kSanitize = CEM_PERFBENCH_SANITIZE;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "batch_smp|stream_serve --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--commit SHA]\n",
               why);
  return 2;
}

bool ParseUint(const char* text, unsigned long long& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

/// Debug, assertion-enabled and sanitizer builds time something else.
bool OptimizedBuild() {
#ifndef NDEBUG
  return false;
#else
  const std::string type = kBuildType;
  return (type == "Release" || type == "RelWithDebInfo") && kSanitize[0] == '\0';
#endif
}

}  // namespace

int main(int argc, char** argv) {
  cem::perfbench::Options options;
  options.work_dir = ".bench_build/perfbench-work";
  std::string commit = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    unsigned long long n = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseUint(value, n)) {
      options.seed = n;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUint(value, n) && n > 0) {
      options.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace" && ParseUint(value, n) && n <= 1) {
      options.trace = n == 1;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage(("bad flag or value: " + flag + " " + value).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : cem::perfbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!have_workload || !known) return Usage("unknown or missing --workload");
  if (!have_seed || !have_seconds) return Usage("--seed and --seconds are required");
  if (!OptimizedBuild()) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a %s build (sanitize='%s'); "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 kBuildType, kSanitize);
    return 3;
  }
  mkdir(options.work_dir.c_str(), 0755);

  char host[512];
  std::snprintf(host, sizeof(host),
                "{\"nproc\": %ld, \"threads\": %u, \"simd\": \"%s\", "
                "\"build_type\": \"%s\", \"commit\": \"%s\", "
                "\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d}",
                sysconf(_SC_NPROCESSORS_ONLN), cem::perfbench::kThreads,
                cem::blocking::SimdLevelName(cem::blocking::ActiveSimdLevel()),
                kBuildType, commit.c_str(), options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.trace ? 1 : 0);
  options.host_json = host;
  std::printf("{\"host\": %s}\n", host);
  std::fflush(stdout);

  cem::perfbench::Report report;
  if (!cem::perfbench::RunWorkload(options, report)) {
    std::fprintf(stderr, "perfbench: set-up failed, no result\n");
    return 1;
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
