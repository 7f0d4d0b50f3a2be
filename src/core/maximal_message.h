#ifndef CEM_CORE_MAXIMAL_MESSAGE_H_
#define CEM_CORE_MAXIMAL_MESSAGE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/match_set.h"
#include "core/matcher.h"
#include "data/entity.h"

namespace cem::core {

/// A maximal message (Definition 8): a set of correlated pairs such that
/// either all of them are in E(E) or none are — a "partial inference
/// waiting to be completed".
using MaximalMessage = std::vector<data::EntityPair>;

/// COMPUTEMAXIMAL (Algorithm 2). For each unresolved candidate pair p in
/// neighborhood C, runs E(C, M+ ∪ {p}) and connects p—p' on mutual
/// entailment; connected components are the maximal messages (Lemma 1).
/// Pairs already matched (in `base`, the matcher's output on (C, M+)) are
/// excluded — they are facts, not hypotheses; singleton components are
/// dropped as information-free. When `num_conditioned` is non-null it
/// receives the number of MatchConditioned calls issued (one per
/// hypothesis).
std::vector<MaximalMessage> ComputeMaximal(
    const Matcher& matcher, const std::vector<data::EntityId>& entities,
    const MatchSet& evidence, const MatchSet& base,
    size_t* num_conditioned = nullptr);

/// The set T of Algorithm 3: disjoint maximal messages under the merge
/// rule (T ∪ TC)* — overlapping messages are replaced by their union
/// (valid by Proposition 3(ii)).
class MaximalMessageSet {
 public:
  MaximalMessageSet() = default;

  /// Inserts a message, merging it with every existing message it
  /// overlaps. Returns the id of the resulting (merged) message.
  uint32_t Insert(const MaximalMessage& message);

  /// Removes all pairs of `matched` from every message: once a pair is
  /// known true, every message containing it is entirely true (Definition
  /// 8), so callers should first Extract such messages via
  /// FindIntersecting. This method is for discarding them afterwards.
  void RemoveMessage(uint32_t id);

  /// Ids of live messages intersecting `matches`.
  std::vector<uint32_t> FindIntersecting(const MatchSet& matches) const;

  /// All live message ids.
  std::vector<uint32_t> LiveIds() const;

  /// Pairs of message `id`.
  const MaximalMessage& Message(uint32_t id) const;

  size_t num_live() const { return num_live_; }

 private:
  std::vector<MaximalMessage> messages_;    // Indexed by id; may be dead.
  std::vector<bool> live_;
  std::unordered_map<uint64_t, uint32_t> owner_;  // pair key -> live id.
  size_t num_live_ = 0;
};

}  // namespace cem::core

#endif  // CEM_CORE_MAXIMAL_MESSAGE_H_
