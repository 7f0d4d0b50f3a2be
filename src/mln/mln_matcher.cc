#include "mln/mln_matcher.h"

#include "mln/map_inference.h"
#include "util/logging.h"

namespace cem::mln {

MlnMatcher::MlnMatcher(const data::Dataset& dataset, MlnWeights weights)
    : dataset_(&dataset),
      weights_(weights),
      graph_(PairGraph::Build(dataset)) {}

core::MatchSet MlnMatcher::Match(const std::vector<data::EntityId>& entities,
                                 const core::MatchSet& positive,
                                 const core::MatchSet& negative) const {
  InferenceStats stats;
  core::MatchSet out = SolveNeighborhoodMap(*dataset_, graph_, weights_,
                                            entities, positive, negative,
                                            &stats);
  num_runs_.fetch_add(1, std::memory_order_relaxed);
  total_free_vars_.fetch_add(stats.num_variables, std::memory_order_relaxed);
  return out;
}

std::vector<data::EntityPair> MlnMatcher::EntangledPairs(
    const std::vector<data::EntityId>& entities,
    const core::MatchSet& evidence, const core::MatchSet& base) const {
  return EntangledPairsOf(*dataset_, graph_, entities, evidence, base);
}

double MlnMatcher::Score(const core::MatchSet& matches) const {
  double score = 0.0;
  // Unary groundings.
  for (uint64_t key : matches.keys()) {
    const data::EntityPair p = data::PairFromKey(key);
    const auto id = dataset_->FindCandidatePair(p.a, p.b);
    if (!id.has_value()) continue;  // Non-candidate pairs carry no grounding.
    score += graph_.GlobalTheta(*id, weights_);
    // Link groundings, counted once per unordered link.
    for (data::PairId q : graph_.node(*id).links) {
      if (q > *id && matches.Contains(graph_.node(q).pair)) {
        score += weights_.w_coauthor;
      }
    }
  }
  // Count also the (p > q) halves for pairs whose partner has smaller id
  // but is absent from the iteration above. The loop above visits every
  // matched pair, and for each counts links to matched pairs with larger
  // id — every unordered link with both ends matched is counted exactly
  // once. Nothing further needed.
  return score;
}

double MlnMatcher::ScoreDelta(
    const core::MatchSet& current,
    const std::vector<data::EntityPair>& additions) const {
  double delta = 0.0;
  core::MatchSet added;  // Additions processed so far (deduplicated).
  for (const data::EntityPair& p : additions) {
    if (current.Contains(p) || added.Contains(p)) continue;
    const auto id = dataset_->FindCandidatePair(p.a, p.b);
    if (id.has_value()) {
      delta += graph_.GlobalTheta(*id, weights_);
      for (data::PairId q : graph_.node(*id).links) {
        const data::EntityPair qp = graph_.node(q).pair;
        // A link fires once when its second endpoint arrives: count links
        // into the already-matched set (current plus earlier additions).
        if (current.Contains(qp) || added.Contains(qp)) {
          delta += weights_.w_coauthor;
        }
      }
    }
    added.Insert(p);
  }
  return delta;
}

void MlnMatcher::ResetCounters() const {
  num_runs_.store(0);
  total_free_vars_.store(0);
}

}  // namespace cem::mln
