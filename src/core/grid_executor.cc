#include "core/grid_executor.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/message_passing.h"
#include "util/execution_context.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace cem::core {
namespace {

/// Output of one map task (one neighborhood run).
struct MapOutput {
  MatchSet matches;
  std::vector<MaximalMessage> messages;  // MMP only.
  double seconds = 0.0;
};

/// Makespan of assigning `task_seconds` randomly to `machines` machines.
double SimulatedMakespan(const std::vector<double>& task_seconds,
                         uint32_t machines, Rng& rng) {
  std::vector<double> load(std::max<uint32_t>(machines, 1), 0.0);
  for (double t : task_seconds) {
    load[rng.NextBounded(load.size())] += t;
  }
  return *std::max_element(load.begin(), load.end());
}

}  // namespace

const char* MpSchemeName(MpScheme scheme) {
  switch (scheme) {
    case MpScheme::kNoMp:
      return "NO-MP";
    case MpScheme::kSmp:
      return "SMP";
    case MpScheme::kMmp:
      return "MMP";
  }
  return "?";
}

GridResult RunGrid(const Matcher& matcher, const Cover& cover,
                   const GridOptions& options) {
  Timer wall;
  GridResult result;
  Rng rng(options.seed);
  const CoverMembership membership(cover);
  // M+ and T live in the engine and change only in reduce steps; the map
  // phase reads M+ concurrently.
  MessagePassingEngine engine(matcher, cover, membership,
                              options.scheme == MpScheme::kMmp
                                  ? MessageMode::kMerged
                                  : MessageMode::kNone);
  // 0 workers = the caller's context pool (one pool for the whole pipeline
  // instead of one per RunGrid call); an explicit count gets a dedicated
  // pool.
  std::unique_ptr<ThreadPool> own_pool;
  if (options.num_worker_threads > 0) {
    own_pool = std::make_unique<ThreadPool>(options.num_worker_threads);
  }
  ThreadPool& pool = own_pool != nullptr ? *own_pool
                     : options.context != nullptr
                         ? options.context->pool()
                         : ExecutionContext::Default().pool();
  const size_t max_rounds =
      options.max_rounds > 0 ? options.max_rounds : cover.size() + 8;

  // Initial active set: every neighborhood.
  std::vector<uint32_t> active(cover.size());
  for (uint32_t i = 0; i < cover.size(); ++i) active[i] = i;

  while (!active.empty() && result.rounds < max_rounds) {
    ++result.rounds;

    // ---- Map: run every active neighborhood against the round-start
    // snapshot, in parallel.
    std::vector<MapOutput> outputs(active.size());
    ParallelFor(pool, active.size(), [&](size_t i) {
      Timer task_timer;
      const std::vector<data::EntityId>& entities =
          cover.neighborhood(active[i]).entities;
      outputs[i].matches = matcher.Match(entities, engine.matches());
      if (options.scheme == MpScheme::kMmp) {
        outputs[i].messages = ComputeMaximal(matcher, entities,
                                             engine.matches(),
                                             outputs[i].matches);
      }
      outputs[i].seconds = task_timer.ElapsedSeconds();
    });
    result.neighborhood_evaluations += active.size();

    // ---- Simulated grid time for this round.
    std::vector<double> task_seconds(outputs.size());
    for (size_t i = 0; i < outputs.size(); ++i) {
      task_seconds[i] = outputs[i].seconds;
    }
    result.simulated_seconds +=
        SimulatedMakespan(task_seconds, options.num_machines, rng) +
        options.per_round_overhead_seconds;

    // ---- Reduce: merge evidence, promote messages, compute next round.
    std::vector<data::EntityPair> new_matches;
    for (const MapOutput& out : outputs) {
      const std::vector<data::EntityPair> added =
          engine.Absorb(out.matches, out.messages);
      new_matches.insert(new_matches.end(), added.begin(), added.end());
    }
    // NO-MP: one round, plain union, no re-activation.
    if (options.scheme == MpScheme::kNoMp) break;
    engine.Promote(new_matches);
    active = AffectedNeighborhoods(membership, new_matches);
  }

  result.matches = engine.TakeMatches();
  result.wall_seconds = wall.ElapsedSeconds();
  return result;
}

}  // namespace cem::core
