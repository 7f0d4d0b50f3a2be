#include "data/dataset.h"

#include <algorithm>

#include "blocking/blocking_tokens.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/similarity_level.h"
#include "util/logging.h"

namespace cem::data {

const std::vector<PairId> Dataset::kNoPairs;

Dataset::Dataset()
    : authored_("Authored", /*symmetric=*/false),
      cites_("Cites", /*symmetric=*/false),
      coauthor_("Coauthor", /*symmetric=*/true) {}

EntityId Dataset::AddEntity(Entity entity) {
  CEM_CHECK(!finalized_) << "AddEntity after Finalize";
  entity.id = static_cast<EntityId>(entities_.size());
  entities_.push_back(std::move(entity));
  return entities_.back().id;
}

EntityId Dataset::AddAuthorRef(std::string first_name, std::string last_name,
                               uint32_t truth) {
  Entity e;
  e.type = EntityType::kAuthorRef;
  e.first_name = std::move(first_name);
  e.last_name = std::move(last_name);
  e.truth = truth;
  EntityId id = AddEntity(std::move(e));
  author_refs_.push_back(id);
  return id;
}

EntityId Dataset::AddPaper(std::string title, int year, uint32_t truth) {
  Entity e;
  e.type = EntityType::kPaper;
  e.title = std::move(title);
  e.year = year;
  e.truth = truth;
  return AddEntity(std::move(e));
}

void Dataset::AddAuthored(EntityId ref, EntityId paper) {
  CEM_CHECK(entity(ref).type == EntityType::kAuthorRef);
  CEM_CHECK(entity(paper).type == EntityType::kPaper);
  authored_.Add(ref, paper);
}

void Dataset::AddCites(EntityId from, EntityId to) {
  CEM_CHECK(entity(from).type == EntityType::kPaper);
  CEM_CHECK(entity(to).type == EntityType::kPaper);
  cites_.Add(from, to);
}

void Dataset::Finalize(const ExecutionContext& ctx) {
  CEM_CHECK(!finalized_);
  authored_.Finalize();
  // Coauthor = self-join of Authored on the paper attribute.
  std::vector<std::vector<EntityId>> refs_of_paper(entities_.size());
  for (EntityId ref : author_refs_) {
    for (EntityId paper : authored_.Neighbors(ref)) {
      refs_of_paper[paper].push_back(ref);
    }
  }
  for (const auto& refs : refs_of_paper) {
    for (size_t i = 0; i < refs.size(); ++i) {
      for (size_t j = i + 1; j < refs.size(); ++j) {
        coauthor_.Add(refs[i], refs[j]);
      }
    }
  }
  coauthor_.Finalize();
  cites_.Finalize();

  // The blocking substrate: tokens are emitted straight into a flat arena
  // corpus (hashed once at emit time), then the postings build runs on ctx
  // with each worker owning whole token shards.
  text::TokenCorpus corpus;
  {
    CEM_TRACE("blocking/tokenize");
    corpus = text::TokenCorpus::Build(
        author_refs_.size(),
        [&](size_t i, text::TokenCorpus::DocBuilder& builder) {
          blocking::AppendAuthorBlockingTokens(entities_[author_refs_[i]],
                                               builder);
        },
        ctx);
  }
  {
    CEM_TRACE("blocking/token_index_build");
    blocking_index_ = text::TokenIndex(ctx.num_token_shards());
    blocking_index_.AddDocuments(std::move(corpus), ctx);
  }
  static obs::Counter& postings_counter =
      obs::MetricsRegistry::Global().counter("blocking_token_postings");
  postings_counter.Add(blocking_index_.num_postings());
  finalized_ = true;
}

std::span<const text::TokenRef> Dataset::BlockingTokens(EntityId ref) const {
  CEM_CHECK(finalized_) << "BlockingTokens before Finalize";
  // author_refs_ is in increasing id order (ids are assigned densely).
  const auto it =
      std::lower_bound(author_refs_.begin(), author_refs_.end(), ref);
  CEM_CHECK(it != author_refs_.end() && *it == ref)
      << "blocking tokens exist only for author references; entity " << ref
      << " is not one";
  return blocking_index_.doc_tokens(it - author_refs_.begin());
}

void Dataset::BuildCandidatePairs(const CandidateOptions& options,
                                  const ExecutionContext& ctx) {
  CEM_CHECK(finalized_) << "BuildCandidatePairs before Finalize";
  CEM_CHECK(candidate_pairs_.empty()) << "candidate pairs already built";
  const size_t n = author_refs_.size();

  // Blocking prefilter over the substrate's trigram postings, then exact
  // name similarity. Each reference scores its candidates with larger doc
  // ids in parallel; per-reference result slots keep the merge
  // order-independent, and the sort in FinalizeCandidatePairs makes the
  // final index identical for any thread count either way.
  std::vector<std::vector<CandidatePair>> found(n);
  ParallelFor(ctx.pool(), n, [&](size_t i) {
    const Entity& a = entities_[author_refs_[i]];
    for (const text::TokenIndex::Neighbor& cand : blocking_index_.Candidates(
             static_cast<uint32_t>(i), options.min_ngram_overlap)) {
      if (cand.doc_id <= i) continue;
      const Entity& b = entities_[author_refs_[cand.doc_id]];
      const text::SimilarityLevel level = text::NameSimilarityLevel(
          a.first_name, a.last_name, b.first_name, b.last_name,
          options.thresholds);
      if (level == text::SimilarityLevel::kNone) continue;
      found[i].push_back({EntityPair(a.id, b.id), level});
    }
  });
  for (const std::vector<CandidatePair>& pairs : found) {
    candidate_pairs_.insert(candidate_pairs_.end(), pairs.begin(),
                            pairs.end());
  }
  FinalizeCandidatePairs();
}

void Dataset::AddCandidatePair(EntityId a, EntityId b,
                               text::SimilarityLevel level) {
  CEM_CHECK(level != text::SimilarityLevel::kNone);
  CEM_CHECK(a != b);
  candidate_pairs_.push_back({EntityPair(a, b), level});
}

void Dataset::FinalizeCandidatePairs() {
  std::sort(candidate_pairs_.begin(), candidate_pairs_.end(),
            [](const CandidatePair& x, const CandidatePair& y) {
              return x.pair < y.pair;
            });
  candidate_pairs_.erase(
      std::unique(candidate_pairs_.begin(), candidate_pairs_.end(),
                  [](const CandidatePair& x, const CandidatePair& y) {
                    return x.pair == y.pair;
                  }),
      candidate_pairs_.end());
  pair_index_.clear();
  pair_index_.reserve(candidate_pairs_.size() * 2);
  pairs_of_entity_.assign(entities_.size(), {});
  for (PairId id = 0; id < candidate_pairs_.size(); ++id) {
    const EntityPair p = candidate_pairs_[id].pair;
    pair_index_.emplace(PairKey(p), id);
    pairs_of_entity_[p.a].push_back(id);
    pairs_of_entity_[p.b].push_back(id);
  }
}

std::optional<PairId> Dataset::FindCandidatePair(EntityId a,
                                                 EntityId b) const {
  auto it = pair_index_.find(PairKey(EntityPair(a, b)));
  if (it == pair_index_.end()) return std::nullopt;
  return it->second;
}

const std::vector<PairId>& Dataset::PairsOfEntity(EntityId e) const {
  if (e >= pairs_of_entity_.size()) return kNoPairs;
  return pairs_of_entity_[e];
}

bool Dataset::IsTrueMatch(EntityPair p) const {
  const Entity& a = entities_[p.a];
  const Entity& b = entities_[p.b];
  return a.truth != kNoTruth && b.truth != kNoTruth && a.truth == b.truth &&
         a.type == b.type;
}

size_t Dataset::CountTrueMatches() const {
  // True matches among labelled author refs: sum over clusters of C(n,2).
  std::unordered_map<uint32_t, size_t> cluster_sizes;
  for (EntityId ref : author_refs_) {
    uint32_t t = entities_[ref].truth;
    if (t != kNoTruth) ++cluster_sizes[t];
  }
  size_t total = 0;
  for (const auto& [label, n] : cluster_sizes) total += n * (n - 1) / 2;
  return total;
}

}  // namespace cem::data
