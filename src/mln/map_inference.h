#ifndef CEM_MLN_MAP_INFERENCE_H_
#define CEM_MLN_MAP_INFERENCE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/match_set.h"
#include "data/dataset.h"
#include "mln/grounding.h"
#include "mln/mln_program.h"

namespace cem::mln {

/// Statistics of one inference call (for the running-time analyses of
/// Figures 3(d)-(f): the paper's key observation is that message passing
/// shrinks the *active* size of neighborhoods).
struct InferenceStats {
  size_t num_variables = 0;   // Free (unclamped) match variables.
  size_t num_clamped = 0;     // Evidence-clamped variables.
  size_t num_edges = 0;       // Pairwise link terms among free variables.
};

/// Every function here takes the neighborhood C as a span of entity ids
/// (any order, duplicates ignored; covers pass their sorted member lists)
/// and reads membership from dense per-thread scratch (kept for the
/// thread's lifetime, sized to the largest dataset it has served), so
/// concurrent calls from different threads are safe and a call allocates
/// no hash containers.

/// Exact MAP over the sub-network induced by `members` (R(C) semantics),
/// conditioned on evidence: pairs of `positive` inside C x C are clamped to
/// match, pairs of `negative` to non-match. Returns the *largest*
/// most-likely match set (Section 3.2's tie-break), which includes the
/// clamped positive pairs.
///
/// Exactness: the energy is pairwise-submodular (all interaction weights
/// are attractive for w_coauthor >= 0), so the minimiser is an s-t min-cut;
/// the largest optimal assignment is the sink-unreachable side of the
/// residual graph.
core::MatchSet SolveNeighborhoodMap(
    const data::Dataset& dataset, const PairGraph& graph,
    const MlnWeights& weights,
    std::span<const data::EntityId> members, const core::MatchSet& positive,
    const core::MatchSet& negative, InferenceStats* stats = nullptr);

/// Reference solver: enumerates all assignments of the free variables
/// (requires <= 25 of them) and returns the largest maximum-score set.
/// Used by tests to certify the graph-cut solver; it finds the in-C pairs
/// by scanning the whole graph rather than the members' pair lists.
core::MatchSet BruteForceMap(const PairGraph& graph, const MlnWeights& weights,
                             std::span<const data::EntityId> members,
                             const core::MatchSet& positive,
                             const core::MatchSet& negative);

/// Score of an explicit assignment restricted to the induced sub-network:
/// sum of unary plus link groundings inside `members` satisfied by
/// `matches`. Shared by both solvers and by tests.
double InducedScore(const data::Dataset& dataset, const PairGraph& graph,
                    const MlnWeights& weights,
                    std::span<const data::EntityId> members,
                    const core::MatchSet& matches);

/// In-neighborhood candidate pairs, unresolved (in neither `base` nor
/// `evidence`), with at least one induced link to another unresolved
/// in-neighborhood pair; sorted. MlnMatcher::EntangledPairs.
std::vector<data::EntityPair> EntangledPairsOf(
    const data::Dataset& dataset, const PairGraph& graph,
    std::span<const data::EntityId> members, const core::MatchSet& evidence,
    const core::MatchSet& base);

}  // namespace cem::mln

#endif  // CEM_MLN_MAP_INFERENCE_H_
