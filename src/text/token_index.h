#ifndef CEM_TEXT_TOKEN_INDEX_H_
#define CEM_TEXT_TOKEN_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "text/token_arena.h"

namespace cem::text {

/// Inverted index from token -> document ids, used as the "cheap distance"
/// of the Canopies algorithm [McCallum et al., KDD 2000]: candidate
/// neighbours of a document are the documents sharing at least one token,
/// scored by overlap.
///
/// Immutable and flat. The constructor takes a TokenCorpus (see
/// token_arena.h), interns each distinct token by its (view, hash) into a
/// dense token id, and stores two CSR (compressed sparse row) arrays:
/// doc -> token ids, and token -> doc ids (the postings), the latter
/// counting-sorted from the former so every postings list is in ascending
/// doc order. No per-token heap lists, no hash maps after construction.
///
/// Candidates() counts overlaps in a dense per-thread array indexed by doc
/// id plus a list of the docs it touched, which it sorts and then zeroes,
/// so concurrent read-only queries need no locks and allocate only their
/// result.
class TokenIndex {
 public:
  /// Indexes `corpus` (doc id = position in the corpus); the default is the
  /// empty index.
  explicit TokenIndex(TokenCorpus corpus = TokenCorpus());

  /// Number of documents indexed.
  size_t num_documents() const { return corpus_.num_docs(); }
  /// Alias of num_documents(), mirroring blocking::LshIndex.
  size_t size() const { return num_documents(); }
  bool empty() const { return num_documents() == 0; }

  struct Neighbor {
    uint32_t doc_id;
    /// Token-overlap score: |tokens(a) ∩ tokens(b)| / max(|a|,|b|).
    double score;
  };

  /// Returns documents with id >= `first_doc` sharing >= 1 token with
  /// `doc_id` whose overlap score is at least `min_score`, excluding
  /// `doc_id` itself. Order is by doc id. When `num_scored` is non-null it
  /// receives the number of distinct documents scored (the blocking work
  /// done, before the min_score filter); documents below `first_doc` are
  /// neither scored nor counted.
  std::vector<Neighbor> Candidates(uint32_t doc_id, double min_score,
                                   size_t* num_scored = nullptr,
                                   uint32_t first_doc = 0) const;

  /// Number of distinct tokens across the corpus.
  size_t num_tokens() const { return postings_offsets_.size() - 1; }

  /// Total postings entries (sum of postings-list lengths).
  size_t num_postings() const { return postings_.size(); }

  /// The normalised (lower-cased, sorted, unique) tokens of document `doc`.
  /// Postings are a pure function of these.
  std::span<const TokenRef> doc_tokens(size_t doc) const {
    return corpus_.doc(doc);
  }

  /// The backing corpus (signed by the MinHash batch kernels).
  const TokenCorpus& corpus() const { return corpus_; }

 private:
  TokenCorpus corpus_;
  /// Doc d's token ids are doc_token_ids_[doc_offsets_[d], doc_offsets_[d+1]).
  std::vector<uint32_t> doc_offsets_;
  std::vector<uint32_t> doc_token_ids_;
  /// Token t's docs are postings_[postings_offsets_[t],
  /// postings_offsets_[t+1]), ascending.
  std::vector<uint32_t> postings_offsets_;
  std::vector<uint32_t> postings_;
};

}  // namespace cem::text

#endif  // CEM_TEXT_TOKEN_INDEX_H_
