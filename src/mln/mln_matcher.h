#ifndef CEM_MLN_MLN_MATCHER_H_
#define CEM_MLN_MLN_MATCHER_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/matcher.h"
#include "mln/grounding.h"
#include "mln/mln_program.h"

namespace cem::mln {

/// The paper's MLN entity matcher (Singla & Domingos [18], Appendix B
/// rules) as a Type-II probabilistic black box.
///
/// * Match() is exact MAP inference over the sub-network induced by the
///   given entities, conditioned on the evidence sets, returning the
///   largest most-likely match set.
/// * Score()/ScoreDelta() evaluate the unnormalised log P_E of explicit
///   match sets over the full dataset — cheap, as Section 5.2 requires.
///
/// The matcher is well-behaved (idempotent + monotone) and supermodular,
/// by the paper's Proposition 4: every rule has a single equals literal in
/// its implicant. Property tests verify this empirically.
///
/// Thread safety: Match/Score/ScoreDelta are const and safe to call
/// concurrently (the GridExecutor does); neighborhood solves use per-thread
/// scratch (see map_inference.h) and the run counters are atomic.
class MlnMatcher : public core::ProbabilisticMatcher {
 public:
  /// Builds the ground network for `dataset`. The dataset must outlive the
  /// matcher, be Finalize()d and have candidate pairs built.
  explicit MlnMatcher(const data::Dataset& dataset,
                      MlnWeights weights = MlnWeights::PaperLearned());

  core::MatchSet Match(const std::vector<data::EntityId>& entities,
                       const core::MatchSet& positive,
                       const core::MatchSet& negative) const override;
  using core::Matcher::Match;

  /// Exact pruning for COMPUTEMAXIMAL: only pairs with at least one induced
  /// link to another unresolved in-neighborhood pair can appear in a
  /// non-singleton maximal message (interactions flow exclusively through
  /// links), so only those are returned.
  std::vector<data::EntityPair> EntangledPairs(
      const std::vector<data::EntityId>& entities,
      const core::MatchSet& evidence,
      const core::MatchSet& base) const override;

  const data::Dataset& dataset() const override { return *dataset_; }

  double Score(const core::MatchSet& matches) const override;
  double ScoreDelta(
      const core::MatchSet& current,
      const std::vector<data::EntityPair>& additions) const override;

  const PairGraph& pair_graph() const { return graph_; }
  const MlnWeights& weights() const { return weights_; }

  /// Cumulative observability counters (reset with ResetCounters).
  uint64_t num_runs() const { return num_runs_.load(); }
  uint64_t total_free_variables() const { return total_free_vars_.load(); }
  void ResetCounters() const;

 private:
  const data::Dataset* dataset_;
  MlnWeights weights_;
  PairGraph graph_;
  mutable std::atomic<uint64_t> num_runs_{0};
  mutable std::atomic<uint64_t> total_free_vars_{0};
};

}  // namespace cem::mln

#endif  // CEM_MLN_MLN_MATCHER_H_
