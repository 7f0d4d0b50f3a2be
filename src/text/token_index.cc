#include "text/token_index.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <utility>

#include "util/logging.h"

namespace cem::text {

TokenIndex::TokenIndex(TokenCorpus corpus) : corpus_(std::move(corpus)) {
  const size_t num_docs = corpus_.num_docs();
  const size_t total = corpus_.num_tokens();
  CEM_CHECK(std::max(num_docs, total) < std::numeric_limits<uint32_t>::max())
      << "token index ids are 32-bit";

  // Intern tokens by (view, hash) into dense ids, in first-seen order, via
  // an open-addressing table at most half full: each slot holds id + 1
  // (0 = empty) and `first_seen` the token each id stands for.
  const int table_bits =
      std::max(4, static_cast<int>(std::bit_width(2 * total)));
  std::vector<uint32_t> slots(size_t{1} << table_bits, 0);
  const size_t mask = slots.size() - 1;
  std::vector<const TokenRef*> first_seen;
  doc_offsets_.reserve(num_docs + 1);
  doc_offsets_.push_back(0);
  doc_token_ids_.reserve(total);
  for (size_t doc = 0; doc < num_docs; ++doc) {
    for (const TokenRef& ref : corpus_.doc(doc)) {
      // Fibonacci hashing spreads the FNV hash over the table's top bits.
      size_t slot = (ref.hash * 0x9e3779b97f4a7c15ULL) >> (64 - table_bits);
      while (slots[slot] != 0) {
        const TokenRef& seen = *first_seen[slots[slot] - 1];
        if (seen.hash == ref.hash && seen.view() == ref.view()) break;
        slot = (slot + 1) & mask;
      }
      if (slots[slot] == 0) {
        first_seen.push_back(&ref);
        slots[slot] = static_cast<uint32_t>(first_seen.size());
      }
      doc_token_ids_.push_back(slots[slot] - 1);
    }
    doc_offsets_.push_back(static_cast<uint32_t>(doc_token_ids_.size()));
  }

  // Counting sort of the (doc, token) entries by token; filling in doc
  // order leaves every postings list ascending.
  postings_offsets_.assign(first_seen.size() + 1, 0);
  for (uint32_t token : doc_token_ids_) ++postings_offsets_[token + 1];
  std::partial_sum(postings_offsets_.begin(), postings_offsets_.end(),
                   postings_offsets_.begin());
  std::vector<uint32_t> cursor(postings_offsets_.begin(),
                               postings_offsets_.end() - 1);
  postings_.resize(doc_token_ids_.size());
  for (uint32_t doc = 0; doc < num_docs; ++doc) {
    for (uint32_t i = doc_offsets_[doc]; i < doc_offsets_[doc + 1]; ++i) {
      postings_[cursor[doc_token_ids_[i]]++] = doc;
    }
  }
}

std::vector<TokenIndex::Neighbor> TokenIndex::Candidates(
    uint32_t doc_id, double min_score, size_t* num_scored,
    uint32_t first_doc) const {
  CEM_CHECK(doc_id < num_documents());
  // Per-thread scratch: overlap counts by doc id (all zero between calls)
  // and the docs this call touched, which are zeroed again on the way out.
  thread_local std::vector<uint32_t> overlap;
  thread_local std::vector<uint32_t> touched;
  if (overlap.size() < num_documents()) overlap.resize(num_documents(), 0);
  touched.clear();
  for (uint32_t i = doc_offsets_[doc_id]; i < doc_offsets_[doc_id + 1]; ++i) {
    const uint32_t token = doc_token_ids_[i];
    const uint32_t* const end = postings_.data() + postings_offsets_[token + 1];
    for (const uint32_t* it = std::lower_bound(
             postings_.data() + postings_offsets_[token], end, first_doc);
         it != end; ++it) {
      if (*it != doc_id && overlap[*it]++ == 0) touched.push_back(*it);
    }
  }
  if (num_scored != nullptr) *num_scored = touched.size();
  std::sort(touched.begin(), touched.end());

  std::vector<Neighbor> out;
  const auto doc_size = [this](uint32_t doc) {
    return doc_offsets_[doc + 1] - doc_offsets_[doc];
  };
  const double my_count = doc_size(doc_id);
  for (uint32_t other : touched) {
    const uint32_t shared = std::exchange(overlap[other], 0);
    // shared >= 1, so both documents are non-empty and the max is > 0.
    const double score = shared / std::max<double>(my_count, doc_size(other));
    if (score >= min_score) out.push_back({other, score});
  }
  return out;
}

}  // namespace cem::text
