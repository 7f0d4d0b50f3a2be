#ifndef CEM_DATA_DATASET_H_
#define CEM_DATA_DATASET_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/entity.h"
#include "data/relation.h"
#include "text/similarity_level.h"
#include "text/token_index.h"
#include "util/execution_context.h"

namespace cem::data {

/// Identifier of a candidate pair within a Dataset (dense 0..m-1).
using PairId = uint32_t;

/// A candidate matching decision: a same-type entity pair whose similarity
/// level is >= 1 (the paper's `similar(e1, e2, score)` predicate with the
/// discretised score). Pairs below level 1 carry no match variable —
/// standard blocking, and what makes the paper's "1.3M matching decisions"
/// a finite set.
struct CandidatePair {
  EntityPair pair;
  text::SimilarityLevel level = text::SimilarityLevel::kNone;
};

/// Options controlling candidate-pair generation.
struct CandidateOptions {
  /// Thresholds bucketing continuous name similarity into levels 1..3.
  text::LevelThresholds thresholds;
  /// Minimum character-trigram overlap for the blocking prefilter; pairs
  /// below it are never even scored. Keep below the level-1 threshold's
  /// effective trigram overlap so blocking does not lose candidates.
  double min_ngram_overlap = 0.25;
};

/// An entity-matching problem instance: entities E, relations R, ground
/// truth, and the derived candidate-pair index that every matcher and the
/// covering algorithm share.
///
/// Construction protocol: add entities and relation tuples, then call
/// Finalize(), then BuildCandidatePairs().
class Dataset {
 public:
  Dataset();

  // --- construction -------------------------------------------------------

  /// Adds an author reference; returns its id.
  EntityId AddAuthorRef(std::string first_name, std::string last_name,
                        uint32_t truth = kNoTruth);

  /// Adds a paper; returns its id.
  EntityId AddPaper(std::string title, int year = 0,
                    uint32_t truth = kNoTruth);

  /// Records that reference `ref` authored paper `paper`.
  void AddAuthored(EntityId ref, EntityId paper);

  /// Records that `from` cites `to` (papers).
  void AddCites(EntityId from, EntityId to);

  /// Derives the symmetric Coauthor relation from Authored (self-join, as in
  /// Example 1), sorts all adjacency lists, and builds the blocking
  /// substrate (see blocking_index()) on `ctx`. Must be called once after
  /// all entities/tuples are added.
  void Finalize(const ExecutionContext& ctx = ExecutionContext::Default());

  /// Computes the candidate-pair index over author references: trigram
  /// postings scans of the blocking substrate followed by exact name
  /// similarity. Scoring runs in parallel on `ctx`; the result is sorted
  /// and deduplicated, so it is identical for any thread count.
  /// Requires Finalize().
  void BuildCandidatePairs(
      const CandidateOptions& options = {},
      const ExecutionContext& ctx = ExecutionContext::Default());

  /// Registers a candidate pair with an explicit level, bypassing name
  /// similarity. Used by hand-built instances (Figure 1) and tests.
  /// Call instead of BuildCandidatePairs(), then FinalizeCandidatePairs().
  void AddCandidatePair(EntityId a, EntityId b, text::SimilarityLevel level);

  /// Builds the pair lookup structures for hand-registered pairs.
  void FinalizeCandidatePairs();

  // --- entity access -------------------------------------------------------

  size_t num_entities() const { return entities_.size(); }
  const Entity& entity(EntityId id) const { return entities_[id]; }
  const std::vector<Entity>& entities() const { return entities_; }

  /// Ids of all author references.
  const std::vector<EntityId>& author_refs() const { return author_refs_; }

  // --- blocking substrate ---------------------------------------------------

  /// The dataset's one blocking substrate, built once by Finalize(): the
  /// blocking::AppendAuthorBlockingTokens corpus of every author reference
  /// and its flat trigram index, doc id = position in author_refs().
  /// Candidate pairs, both batch cover builders, the incremental cover and
  /// serving all read it, so they agree on what "nearby" means and nothing
  /// tokenizes a reference twice. Query results and counts are identical
  /// for any thread count Finalize() ran on.
  const text::TokenIndex& blocking_index() const { return blocking_index_; }

  /// The normalised blocking tokens of author reference `ref`.
  std::span<const text::TokenRef> BlockingTokens(EntityId ref) const;

  // --- relations -----------------------------------------------------------

  const Relation& authored() const { return authored_; }
  const Relation& cites() const { return cites_; }
  const Relation& coauthor() const { return coauthor_; }

  /// Coauthors of reference `ref` (other references on the same papers).
  const std::vector<EntityId>& Coauthors(EntityId ref) const {
    return coauthor_.Neighbors(ref);
  }

  // --- candidate pairs ------------------------------------------------------

  size_t num_candidate_pairs() const { return candidate_pairs_.size(); }
  const CandidatePair& candidate_pair(PairId id) const {
    return candidate_pairs_[id];
  }
  const std::vector<CandidatePair>& candidate_pairs() const {
    return candidate_pairs_;
  }

  /// PairId of the candidate pair (a, b), if it is a candidate.
  std::optional<PairId> FindCandidatePair(EntityId a, EntityId b) const;

  /// Candidate pairs incident to entity `e`.
  const std::vector<PairId>& PairsOfEntity(EntityId e) const;

  // --- ground truth ----------------------------------------------------------

  /// True if the ground truth labels both entities as the same real-world
  /// entity (both must be labelled).
  bool IsTrueMatch(EntityPair p) const;

  /// Total number of true-match candidate pairs (the recall denominator
  /// restricted to candidates) plus, via `include_blocked`, true matches
  /// outside the candidate set.
  size_t CountTrueMatches() const;

 private:
  EntityId AddEntity(Entity entity);

  std::vector<Entity> entities_;
  std::vector<EntityId> author_refs_;
  Relation authored_;
  Relation cites_;
  Relation coauthor_;
  bool finalized_ = false;
  text::TokenIndex blocking_index_;

  std::vector<CandidatePair> candidate_pairs_;
  std::unordered_map<uint64_t, PairId> pair_index_;
  std::vector<std::vector<PairId>> pairs_of_entity_;
  static const std::vector<PairId> kNoPairs;
};

}  // namespace cem::data

#endif  // CEM_DATA_DATASET_H_
