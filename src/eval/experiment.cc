#include "eval/experiment.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <unordered_set>
#include <utility>

#include "blocking/lsh_cover.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"

namespace cem::eval {

double BenchScale() {
  const char* raw = std::getenv("CEM_BENCH_SCALE");
  if (raw == nullptr) return 1.0;
  const double parsed = std::atof(raw);
  if (parsed <= 0.0) return 1.0;
  return std::clamp(parsed, 0.05, 100.0);
}

core::BlockingStrategy BenchBlocking() {
  const char* raw = std::getenv("CEM_BLOCKING");
  if (raw == nullptr) return core::BlockingStrategy::kCanopy;
  const auto parsed = core::ParseBlockingStrategy(raw);
  if (!parsed.has_value()) {
    CEM_LOG(Warning) << "unknown CEM_BLOCKING value '" << raw
                     << "', using canopy";
    return core::BlockingStrategy::kCanopy;
  }
  return *parsed;
}

namespace {

Workload MakeBibWorkload(std::string name, const data::BibConfig& config,
                         core::BlockingStrategy blocking,
                         const ExecutionContext& ctx) {
  Workload w;
  w.name = std::move(name);
  w.blocking = blocking;
  w.dataset = data::GenerateBibDataset(config, {}, ctx);
  w.cover = blocking::MakeCoverBuilder(blocking)->Build(*w.dataset, ctx);
  return w;
}

}  // namespace

Workload MakeHepthWorkload(double scale) {
  return MakeHepthWorkload(scale, BenchBlocking());
}

Workload MakeHepthWorkload(double scale, core::BlockingStrategy blocking,
                           const ExecutionContext& ctx) {
  return MakeBibWorkload("HEPTH-like", data::BibConfig::HepthLike(scale),
                         blocking, ctx);
}

Workload MakeDblpWorkload(double scale) {
  return MakeDblpWorkload(scale, BenchBlocking());
}

Workload MakeDblpWorkload(double scale, core::BlockingStrategy blocking,
                          const ExecutionContext& ctx) {
  return MakeBibWorkload("DBLP-like", data::BibConfig::DblpLike(scale),
                         blocking, ctx);
}

CostModelMatcher::CostModelMatcher(const core::Matcher& inner,
                                   double cost_scale_us, double exponent)
    : inner_(&inner),
      inner_probabilistic_(
          dynamic_cast<const core::ProbabilisticMatcher*>(&inner)),
      cost_scale_us_(cost_scale_us),
      exponent_(exponent) {}

size_t CostModelMatcher::CountFreeVariables(
    const std::vector<data::EntityId>& entities,
    const core::MatchSet& positive, const core::MatchSet& negative) const {
  const data::Dataset& dataset = inner_->dataset();
  const std::unordered_set<data::EntityId> members(entities.begin(),
                                                   entities.end());
  size_t free_vars = 0;
  for (data::EntityId e : entities) {
    for (data::PairId id : dataset.PairsOfEntity(e)) {
      const data::EntityPair p = dataset.candidate_pair(id).pair;
      if (p.a != e || !members.count(p.b)) continue;
      if (positive.Contains(p) || negative.Contains(p)) continue;
      ++free_vars;
    }
  }
  return free_vars;
}

void CostModelMatcher::Burn(size_t free_vars, double discount) const {
  const double cost_us = discount * cost_scale_us_ *
                         std::pow(static_cast<double>(free_vars), exponent_);
  // Burn CPU for cost_us microseconds (busy loop: we model compute, not
  // I/O wait, so the simulated grid's makespan accounting stays honest).
  Timer burn;
  volatile double sink = 0.0;
  while (burn.ElapsedSeconds() * 1e6 < cost_us) {
    for (int i = 0; i < 64; ++i) sink = sink + std::sqrt(i + 1.0);
  }
  charged_nanos_.fetch_add(static_cast<uint64_t>(cost_us * 1e3),
                           std::memory_order_relaxed);
}

core::MatchSet CostModelMatcher::Match(
    const std::vector<data::EntityId>& entities,
    const core::MatchSet& positive, const core::MatchSet& negative) const {
  Burn(CountFreeVariables(entities, positive, negative), 1.0);
  return inner_->Match(entities, positive, negative);
}

core::MatchSet CostModelMatcher::MatchConditioned(
    const std::vector<data::EntityId>& entities,
    const core::MatchSet& positive, const core::MatchSet& negative) const {
  // Conditioned re-solves are charged on the neighborhood size proxy (the
  // exact free-variable count would cost more to compute than the
  // discounted charge it produces).
  Burn(entities.size(), kConditionedDiscount);
  return inner_->MatchConditioned(entities, positive, negative);
}

double CostModelMatcher::Score(const core::MatchSet& matches) const {
  CEM_CHECK(inner_probabilistic_ != nullptr)
      << "Score requires a probabilistic inner matcher";
  return inner_probabilistic_->Score(matches);
}

double CostModelMatcher::ScoreDelta(
    const core::MatchSet& current,
    const std::vector<data::EntityPair>& additions) const {
  CEM_CHECK(inner_probabilistic_ != nullptr)
      << "ScoreDelta requires a probabilistic inner matcher";
  return inner_probabilistic_->ScoreDelta(current, additions);
}

double CostModelMatcher::charged_seconds() const {
  return static_cast<double>(charged_nanos_.load()) * 1e-9;
}

StreamingReplayResult ReplayStreaming(const core::Matcher& matcher,
                                      uint64_t arrival_seed,
                                      size_t chunk_size,
                                      const stream::StreamingOptions& options) {
  StreamingReplayResult result;
  std::vector<data::EntityId> refs = matcher.dataset().author_refs();
  Rng rng(arrival_seed);
  rng.Shuffle(refs);
  stream::StreamingMatcher streaming(matcher, options);
  if (chunk_size == 0) {
    for (data::EntityId ref : refs) {
      streaming.Add(ref);
      ++result.num_chunks;
    }
  } else {
    for (size_t start = 0; start < refs.size(); start += chunk_size) {
      const size_t end = std::min(refs.size(), start + chunk_size);
      streaming.AddBatch({refs.begin() + start, refs.begin() + end});
      ++result.num_chunks;
    }
  }
  result.matches = streaming.matches();
  result.stats = streaming.stats();
  result.num_refs = refs.size();
  result.lsh_memory_bytes =
      streaming.incremental_cover().lsh_index().memory_bytes();
  return result;
}

SchemeResults RunAllSchemes(const core::Matcher& matcher,
                            const core::Cover& cover) {
  SchemeResults results;
  results.no_mp = core::RunNoMp(matcher, cover);
  results.smp = core::RunSmp(matcher, cover);
  const auto* probabilistic =
      dynamic_cast<const core::ProbabilisticMatcher*>(&matcher);
  if (probabilistic != nullptr) {
    results.mmp = core::RunMmp(*probabilistic, cover);
    results.has_mmp = true;
  }
  return results;
}

}  // namespace cem::eval
