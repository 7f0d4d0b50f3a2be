#include "text/token_index.h"

#include <algorithm>

#include "util/logging.h"

namespace cem::text {

TokenIndex::TokenIndex(uint32_t num_shards)
    : shards_(std::max(num_shards, 1u)) {}

void TokenIndex::AddDocument(uint32_t doc_id,
                             const std::vector<std::string>& tokens) {
  CEM_CHECK(doc_id == corpus_.num_docs())
      << "documents must be appended densely in increasing id order";
  corpus_.AppendDoc([&](TokenCorpus::DocBuilder& builder) {
    for (const std::string& t : tokens) builder.EmitLower(t);
  });
  for (const TokenRef& ref : corpus_.doc(doc_id)) {
    shards_[ShardOf(ref)].postings[KeyOf(ref)].push_back(doc_id);
  }
}

void TokenIndex::AddDocuments(TokenCorpus corpus, const ExecutionContext& ctx) {
  CEM_CHECK(empty()) << "AddDocuments on a non-empty index";
  corpus_ = std::move(corpus);
  // Partition the (token, doc) stream by owning shard — one cheap linear
  // append pass, in doc order, so each shard's list replays serial
  // AddDocument order exactly.
  struct Entry {
    const TokenRef* token;
    uint32_t doc;
  };
  const size_t num_docs = corpus_.num_docs();
  std::vector<std::vector<Entry>> per_shard(shards_.size());
  for (auto& list : per_shard) {
    list.reserve(corpus_.num_tokens() / shards_.size() + 1);
  }
  for (size_t doc = 0; doc < num_docs; ++doc) {
    for (const TokenRef& ref : corpus_.doc(doc)) {
      per_shard[ShardOf(ref)].push_back({&ref, static_cast<uint32_t>(doc)});
    }
  }
  // Parallel insertion: each worker owns whole shards, so the (expensive)
  // postings-map building needs no synchronisation.
  ParallelFor(ctx.pool(), shards_.size(), [&](size_t s) {
    Shard& shard = shards_[s];
    for (const Entry& entry : per_shard[s]) {
      shard.postings[KeyOf(*entry.token)].push_back(entry.doc);
    }
  });
}

std::vector<TokenIndex::Neighbor> TokenIndex::Candidates(
    uint32_t doc_id, double min_score, size_t* num_scored) const {
  CEM_CHECK(doc_id < corpus_.num_docs());
  // One lookup per token: collect the postings lists, then reserve the
  // overlap map from their summed sizes (bounds the number of distinct
  // overlapping documents) so it never rehashes mid-scan.
  const std::span<const TokenRef> my_tokens = corpus_.doc(doc_id);
  size_t postings_total = 0;
  std::vector<const std::vector<uint32_t>*> lists;
  lists.reserve(my_tokens.size());
  for (const TokenRef& ref : my_tokens) {
    const Shard& shard = shards_[ShardOf(ref)];
    auto it = shard.postings.find(KeyOf(ref));
    if (it == shard.postings.end()) continue;
    lists.push_back(&it->second);
    postings_total += it->second.size();
  }
  std::unordered_map<uint32_t, uint32_t> overlap;
  overlap.reserve(std::min(postings_total, corpus_.num_docs()));
  for (const std::vector<uint32_t>* list : lists) {
    for (uint32_t other : *list) {
      if (other != doc_id) ++overlap[other];
    }
  }
  if (num_scored != nullptr) *num_scored = overlap.size();
  std::vector<Neighbor> out;
  out.reserve(overlap.size());
  const double my_count = static_cast<double>(my_tokens.size());
  for (const auto& [other, shared] : overlap) {
    const double denom =
        std::max<double>(my_count, corpus_.doc(other).size());
    const double score = denom == 0 ? 0.0 : shared / denom;
    if (score >= min_score) out.push_back({other, score});
  }
  std::sort(out.begin(), out.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.doc_id < b.doc_id;
            });
  return out;
}

size_t TokenIndex::num_tokens() const {
  size_t total = 0;
  for (const Shard& shard : shards_) total += shard.postings.size();
  return total;
}

size_t TokenIndex::num_postings() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    for (const auto& [token, docs] : shard.postings) total += docs.size();
  }
  return total;
}

}  // namespace cem::text
