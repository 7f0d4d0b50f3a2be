#include "instrument.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>
#include <utility>

namespace cem::perfbench {

namespace {

uint32_t ThreadTag() {
  return static_cast<uint32_t>(
      std::hash<std::thread::id>()(std::this_thread::get_id()) & 0xffff);
}

}  // namespace

int32_t SpanLog::Begin(const char* name, int32_t parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = parent;
  span.tid = ThreadTag();
  span.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::End(int32_t id) {
  if (id < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

double SpanLog::ChildCoverage(int32_t id) const {
  if (id < 0) return 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  const Span& root = spans_[static_cast<size_t>(id)];
  std::vector<std::pair<int64_t, int64_t>> children;
  for (const Span& span : spans_) {
    if (span.parent == id) {
      children.emplace_back(std::max(span.start_ns, root.start_ns),
                            std::min(span.end_ns, root.end_ns));
    }
  }
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t reach = root.start_ns;
  for (const auto& [start, end] : children) {
    const int64_t from = std::max(start, reach);
    if (end > from) covered += end - from;
    reach = std::max(reach, end);
  }
  const int64_t total = root.end_ns - root.start_ns;
  return total > 0 ? static_cast<double>(covered) / total : 0.0;
}

bool SpanLog::WriteChromeJson(const std::string& path,
                              const std::string& host_json) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "{\"host\": %s, \"traceEvents\": [\n", host_json.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %zu, \"parent\": %d, \"run\": %llu}}\n",
                 i == 0 ? "" : ",", s.name, s.tid,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent, static_cast<unsigned long long>(run_id_));
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

void InstrumentedMatcher::Record(Method method, int64_t start_ns) const {
  const int64_t elapsed = NowNs() - start_ns;
  calls_[method].fetch_add(1, std::memory_order_relaxed);
  nanos_[method].fetch_add(static_cast<uint64_t>(elapsed),
                           std::memory_order_relaxed);
  if (method == kMatch) {
    std::lock_guard<std::mutex> lock(durations_mu_);
    match_us_.push_back(static_cast<float>(elapsed / 1e3));
  }
}

void InstrumentedMatcher::RecordSolve(const core::MatchSet& result,
                                      const core::MatchSet& positive) const {
  for (uint64_t key : result.keys()) {
    if (positive.keys().count(key) == 0) {
      useful_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
}

core::MatchSet InstrumentedMatcher::Match(
    const std::vector<data::EntityId>& entities,
    const core::MatchSet& positive, const core::MatchSet& negative) const {
  const int64_t start = NowNs();
  core::MatchSet result = inner_.Match(entities, positive, negative);
  Record(kMatch, start);
  RecordSolve(result, positive);
  return result;
}

core::MatchSet InstrumentedMatcher::MatchConditioned(
    const std::vector<data::EntityId>& entities,
    const core::MatchSet& positive, const core::MatchSet& negative) const {
  const int64_t start = NowNs();
  core::MatchSet result = inner_.MatchConditioned(entities, positive, negative);
  Record(kConditioned, start);
  RecordSolve(result, positive);
  return result;
}

std::vector<data::EntityPair> InstrumentedMatcher::EntangledPairs(
    const std::vector<data::EntityId>& entities,
    const core::MatchSet& evidence, const core::MatchSet& base) const {
  const int64_t start = NowNs();
  std::vector<data::EntityPair> result =
      inner_.EntangledPairs(entities, evidence, base);
  Record(kEntangled, start);
  return result;
}

double InstrumentedMatcher::Score(const core::MatchSet& matches) const {
  const int64_t start = NowNs();
  const double score = inner_.Score(matches);
  Record(kScore, start);
  return score;
}

double InstrumentedMatcher::ScoreDelta(
    const core::MatchSet& current,
    const std::vector<data::EntityPair>& additions) const {
  const int64_t start = NowNs();
  const double delta = inner_.ScoreDelta(current, additions);
  Record(kScoreDelta, start);
  return delta;
}

InstrumentedMatcher::CallStats InstrumentedMatcher::stats(
    Method method) const {
  return {calls_[method].load(), nanos_[method].load()};
}

uint64_t InstrumentedMatcher::total_nanos() const {
  uint64_t total = 0;
  for (const auto& n : nanos_) total += n.load();
  return total;
}

std::vector<double> InstrumentedMatcher::MatchDurationsUs() const {
  std::lock_guard<std::mutex> lock(durations_mu_);
  return {match_us_.begin(), match_us_.end()};
}

void InstrumentedMatcher::Reset() {
  for (auto& c : calls_) c.store(0);
  for (auto& n : nanos_) n.store(0);
  useful_.store(0);
  std::lock_guard<std::mutex> lock(durations_mu_);
  match_us_.clear();
}

}  // namespace cem::perfbench
