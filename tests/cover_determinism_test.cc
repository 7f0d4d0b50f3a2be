// Determinism contract of the parallel blocking front-end: every
// ExecutionContext-driven stage (MinHash signatures, sharded LSH
// insertion, speculative cover assembly, boundary expansion, candidate
// generation) must produce bit-identical output for ANY thread count and
// ANY shard count — parallelism may change when work happens, never what
// is computed. These tests pin that contract for both cover builders and
// for Dataset::BuildCandidatePairs, mirroring the RunGrid==RunSmp style of
// grid_consistency_test.cc at the blocking layer, and pin the dataset's
// shared blocking substrate against a fresh string-oracle build.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/blocking_tokens.h"
#include "blocking/lsh_cover.h"
#include "core/canopy.h"
#include "core/cover.h"
#include "core/cover_assembly.h"
#include "core/cover_builder.h"
#include "data/bib_generator.h"
#include "data/figure1.h"
#include "stream/incremental_cover.h"
#include "text/similarity_level.h"
#include "text/token_index.h"
#include "util/execution_context.h"

namespace cem {
namespace {

using core::BlockingStrategy;
using core::Cover;

/// Thread counts exercised everywhere: serial, oversubscribed small, and
/// whatever this host actually has.
std::vector<uint32_t> ThreadCounts() {
  return {1, 4, std::max(1u, std::thread::hardware_concurrency())};
}

std::unique_ptr<data::Dataset> MakeCorpus(uint64_t seed, double scale = 0.08) {
  data::BibConfig config = data::BibConfig::DblpLike(scale);
  config.seed = seed;
  return data::GenerateBibDataset(config);
}

void ExpectSameCover(const Cover& reference, const Cover& cover,
                     const std::string& label) {
  ASSERT_EQ(reference.size(), cover.size()) << label;
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(reference.neighborhood(i).entities,
              cover.neighborhood(i).entities)
        << label << ", neighborhood " << i;
  }
}

class CoverDeterminism : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoverDeterminism, CanopyCoverIdenticalAcrossThreadCounts) {
  const auto dataset = MakeCorpus(GetParam());
  const auto builder = blocking::MakeCoverBuilder(BlockingStrategy::kCanopy);
  ExecutionContext serial(1);
  const Cover reference = builder->Build(*dataset, serial);
  for (uint32_t threads : ThreadCounts()) {
    ExecutionContext ctx(threads);
    ExpectSameCover(reference, builder->Build(*dataset, ctx),
                    "canopy, " + std::to_string(threads) + " threads");
  }
}

TEST_P(CoverDeterminism, LshCoverIdenticalAcrossThreadAndShardCounts) {
  const auto dataset = MakeCorpus(GetParam());
  const auto builder = blocking::MakeCoverBuilder(BlockingStrategy::kLsh);
  ExecutionContext serial(1, /*num_shards=*/1);
  const Cover reference = builder->Build(*dataset, serial);
  for (uint32_t threads : ThreadCounts()) {
    for (uint32_t shards : {1u, 4u, 32u}) {
      ExecutionContext ctx(threads, shards);
      ExpectSameCover(reference, builder->Build(*dataset, ctx),
                      "lsh, " + std::to_string(threads) + " threads, " +
                          std::to_string(shards) + " shards");
    }
  }
}

TEST_P(CoverDeterminism, WorkCountersIdenticalAcrossThreadCounts) {
  // The speculative scan batches are a fixed size, so even the *work*
  // counters (not just the covers) are thread-count-independent.
  const auto dataset = MakeCorpus(GetParam());
  for (const BlockingStrategy strategy :
       {BlockingStrategy::kCanopy, BlockingStrategy::kLsh}) {
    const auto builder = blocking::MakeCoverBuilder(strategy);
    ExecutionContext serial(1);
    core::BlockingStats reference;
    builder->Build(*dataset, serial, &reference);
    EXPECT_GT(reference.pairs_considered, 0u);
    for (uint32_t threads : ThreadCounts()) {
      ExecutionContext ctx(threads);
      core::BlockingStats stats;
      builder->Build(*dataset, ctx, &stats);
      EXPECT_EQ(stats.pairs_considered, reference.pairs_considered)
          << builder->name() << ", " << threads << " threads";
    }
  }
}

TEST_P(CoverDeterminism, CandidatePairsIdenticalAcrossThreadCounts) {
  // Trigram candidate generation: same pairs, same levels, any context.
  data::BibConfig config = data::BibConfig::DblpLike(0.08);
  config.seed = GetParam();
  ExecutionContext serial(1);
  const auto reference = data::GenerateBibDataset(config, {}, serial);
  for (uint32_t threads : ThreadCounts()) {
    ExecutionContext ctx(threads);
    const auto dataset = data::GenerateBibDataset(config, {}, ctx);
    ASSERT_EQ(dataset->num_candidate_pairs(),
              reference->num_candidate_pairs());
    for (data::PairId id = 0; id < dataset->num_candidate_pairs(); ++id) {
      EXPECT_EQ(dataset->candidate_pair(id).pair,
                reference->candidate_pair(id).pair);
      EXPECT_EQ(dataset->candidate_pair(id).level,
                reference->candidate_pair(id).level);
    }
  }
}

// ---- Substrate equivalence: every consumer of the dataset's one blocking
// substrate (candidate pairs, both cover builders, the incremental cover's
// signatures) must see exactly what a private build from the string oracle
// (AuthorBlockingTokens -> TokenIndex::AddDocument / MinHasher::Signature)
// would give it, for any thread and shard count.

/// Serial single-shard index over the oracle token strings, doc id =
/// position in author_refs().
text::TokenIndex OracleIndex(const data::Dataset& dataset) {
  text::TokenIndex index;
  const std::vector<data::EntityId>& refs = dataset.author_refs();
  for (size_t i = 0; i < refs.size(); ++i) {
    index.AddDocument(static_cast<uint32_t>(i),
                      blocking::AuthorBlockingTokens(dataset.entity(refs[i])));
  }
  return index;
}

/// Candidate pairs from full postings scans of the oracle index, sorted.
std::vector<data::CandidatePair> OracleCandidatePairs(
    const data::Dataset& dataset, const text::TokenIndex& index) {
  const data::CandidateOptions options;
  const std::vector<data::EntityId>& refs = dataset.author_refs();
  std::vector<data::CandidatePair> pairs;
  for (uint32_t i = 0; i < refs.size(); ++i) {
    const data::Entity& a = dataset.entity(refs[i]);
    for (const auto& cand : index.Candidates(i, options.min_ngram_overlap)) {
      if (cand.doc_id <= i) continue;
      const data::Entity& b = dataset.entity(refs[cand.doc_id]);
      const text::SimilarityLevel level =
          text::NameSimilarityLevel(a.first_name, a.last_name, b.first_name,
                                    b.last_name, options.thresholds);
      if (level == text::SimilarityLevel::kNone) continue;
      pairs.push_back({data::EntityPair(a.id, b.id), level});
    }
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const data::CandidatePair& x, const data::CandidatePair& y) {
              return x.pair < y.pair;
            });
  return pairs;
}

/// Default-option canopy cover over the oracle index.
Cover OracleCanopyCover(const data::Dataset& dataset,
                        const text::TokenIndex& index,
                        const ExecutionContext& ctx, size_t* pairs) {
  const core::CanopyOptions options;
  const auto candidate_fn = [&](uint32_t doc, size_t* num_scored) {
    std::vector<core::AssemblyCandidate> out;
    for (const auto& n : index.Candidates(doc, options.loose, num_scored)) {
      out.push_back({n.doc_id, n.score});
    }
    return out;
  };
  Cover cover = core::AssembleCanopies(dataset.author_refs(), ctx.seed(),
                                       options.tight, candidate_fn, ctx,
                                       pairs);
  core::PatchPairCoverage(dataset, cover, ctx);
  core::ExpandCoauthorBoundary(dataset, cover, ctx);
  return cover;
}

/// Default-option LSH cover over per-reference oracle signatures.
Cover OracleLshCover(const data::Dataset& dataset,
                     const ExecutionContext& ctx, size_t* pairs) {
  const blocking::LshCoverOptions options;
  const blocking::MinHasher hasher(options.minhash);
  const std::vector<data::EntityId>& refs = dataset.author_refs();
  std::vector<std::vector<uint64_t>> signatures;
  blocking::LshIndex index(options.lsh, hasher.num_hashes());
  for (uint32_t i = 0; i < refs.size(); ++i) {
    signatures.push_back(hasher.Signature(
        blocking::AuthorBlockingTokens(dataset.entity(refs[i]))));
    index.AddDocument(i, signatures.back());
  }
  const auto candidate_fn = [&](uint32_t doc, size_t* num_scored) {
    const std::vector<uint32_t> candidates = index.Candidates(doc);
    *num_scored = candidates.size();
    std::vector<core::AssemblyCandidate> out;
    for (uint32_t other : candidates) {
      const double estimate = blocking::MinHasher::EstimateJaccard(
          signatures[doc], signatures[other]);
      if (estimate >= options.loose) out.push_back({other, estimate});
    }
    return out;
  };
  Cover cover = core::AssembleCanopies(refs, ctx.seed(), options.tight,
                                       candidate_fn, ctx, pairs);
  core::PatchPairCoverage(dataset, cover, ctx);
  core::ExpandCoauthorBoundary(dataset, cover, ctx);
  return cover;
}

/// Substrate-built results on `ctx` against the string oracle. Candidate
/// pairs are compared only when the dataset derived them from the
/// substrate (`check_pairs`), not when they were registered by hand.
void ExpectSubstrateMatchesOracle(const data::Dataset& dataset,
                                  const ExecutionContext& ctx,
                                  bool check_pairs, const std::string& label) {
  const text::TokenIndex oracle = OracleIndex(dataset);
  if (check_pairs) {
    const std::vector<data::CandidatePair> expected =
        OracleCandidatePairs(dataset, oracle);
    ASSERT_EQ(dataset.num_candidate_pairs(), expected.size()) << label;
    for (data::PairId id = 0; id < expected.size(); ++id) {
      EXPECT_EQ(dataset.candidate_pair(id).pair, expected[id].pair) << label;
      EXPECT_EQ(dataset.candidate_pair(id).level, expected[id].level)
          << label;
    }
  }

  size_t expected_pairs = 0;
  core::BlockingStats stats;
  const Cover canopy = OracleCanopyCover(dataset, oracle, ctx, &expected_pairs);
  ExpectSameCover(canopy,
                  blocking::MakeCoverBuilder(BlockingStrategy::kCanopy)
                      ->Build(dataset, ctx, &stats),
                  label + ", canopy");
  EXPECT_EQ(stats.pairs_considered, expected_pairs) << label << ", canopy";

  const Cover lsh = OracleLshCover(dataset, ctx, &expected_pairs);
  ExpectSameCover(lsh,
                  blocking::MakeCoverBuilder(BlockingStrategy::kLsh)
                      ->Build(dataset, ctx, &stats),
                  label + ", lsh");
  EXPECT_EQ(stats.pairs_considered, expected_pairs) << label << ", lsh";

  const stream::IncrementalCover icover(dataset, {}, ctx);
  const blocking::MinHasher hasher(icover.options().minhash);
  std::vector<uint64_t> signature(icover.num_hashes());
  for (data::EntityId ref : dataset.author_refs()) {
    icover.ComputeSignature(ref, signature.data());
    EXPECT_EQ(signature, hasher.Signature(blocking::AuthorBlockingTokens(
                             dataset.entity(ref))))
        << label << ", ref " << ref;
  }
}

TEST_P(CoverDeterminism, SubstrateMatchesStringOracleAcrossContexts) {
  data::BibConfig config = data::BibConfig::DblpLike(0.08);
  config.seed = GetParam();
  for (uint32_t threads : {1u, 4u}) {
    for (uint32_t shards : {1u, 32u}) {
      ExecutionContext ctx(threads, shards);
      const auto dataset = data::GenerateBibDataset(config, {}, ctx);
      ASSERT_GT(dataset->num_candidate_pairs(), 0u);
      ExpectSubstrateMatchesOracle(
          *dataset, ctx, /*check_pairs=*/true,
          std::to_string(threads) + " threads, " + std::to_string(shards) +
              " shards");
    }
  }
}

TEST(SubstrateEquivalence, Figure1MatchesStringOracleAcrossContexts) {
  const data::Figure1 fig = data::MakeFigure1();
  for (uint32_t threads : {1u, 4u}) {
    for (uint32_t shards : {1u, 32u}) {
      ExecutionContext ctx(threads, shards);
      ExpectSubstrateMatchesOracle(
          *fig.dataset, ctx, /*check_pairs=*/false,
          "figure 1, " + std::to_string(threads) + " threads, " +
              std::to_string(shards) + " shards");
    }
  }
}

TEST_P(CoverDeterminism, TokenIndexIdenticalAcrossThreadAndShardCounts) {
  // The sharded TokenIndex build: candidates AND the num_scored work
  // counter must match the serial single-shard AddDocument loop for any
  // thread count and any shard count.
  const auto dataset = MakeCorpus(GetParam());
  const std::vector<data::EntityId>& refs = dataset->author_refs();
  std::vector<std::vector<std::string>> token_sets(refs.size());
  for (size_t i = 0; i < refs.size(); ++i) {
    token_sets[i] = blocking::AuthorBlockingTokens(dataset->entity(refs[i]));
  }
  text::TokenIndex reference;
  for (size_t i = 0; i < refs.size(); ++i) {
    reference.AddDocument(static_cast<uint32_t>(i), token_sets[i]);
  }
  for (uint32_t threads : ThreadCounts()) {
    for (uint32_t shards : {1u, 4u, 32u}) {
      ExecutionContext ctx(threads, shards);
      text::TokenIndex index(ctx.num_shards());
      index.AddDocuments(
          text::TokenCorpus::Build(
              token_sets.size(),
              [&](size_t doc, text::TokenCorpus::DocBuilder& builder) {
                for (const std::string& t : token_sets[doc]) {
                  builder.EmitLower(t);
                }
              },
              ctx),
          ctx);
      ASSERT_EQ(index.num_documents(), reference.num_documents());
      EXPECT_EQ(index.num_tokens(), reference.num_tokens());
      EXPECT_EQ(index.num_postings(), reference.num_postings());
      for (uint32_t doc = 0; doc < refs.size(); ++doc) {
        size_t scored = 0;
        size_t reference_scored = 0;
        const auto candidates = index.Candidates(doc, 0.3, &scored);
        const auto expected =
            reference.Candidates(doc, 0.3, &reference_scored);
        EXPECT_EQ(scored, reference_scored)
            << threads << " threads, " << shards << " shards, doc " << doc;
        ASSERT_EQ(candidates.size(), expected.size())
            << threads << " threads, " << shards << " shards, doc " << doc;
        for (size_t i = 0; i < candidates.size(); ++i) {
          EXPECT_EQ(candidates[i].doc_id, expected[i].doc_id);
          EXPECT_EQ(candidates[i].score, expected[i].score);
        }
      }
    }
  }
}

TEST_P(CoverDeterminism, PatchPairCoverageIdenticalAcrossThreadCounts) {
  // The parallel totality patch: patched covers AND the PatchStats
  // counters must be thread-count-independent, for the raw cover of
  // either builder (raw covers leave the most split pairs to repair).
  const auto dataset = MakeCorpus(GetParam());
  for (const BlockingStrategy strategy :
       {BlockingStrategy::kCanopy, BlockingStrategy::kLsh}) {
    Cover raw;
    if (strategy == BlockingStrategy::kCanopy) {
      core::CanopyOptions options;
      options.ensure_pair_coverage = false;
      options.expand_boundary = false;
      raw = core::BuildCanopyCover(*dataset, options);
    } else {
      blocking::LshCoverOptions options;
      options.ensure_pair_coverage = false;
      options.expand_boundary = false;
      raw = blocking::BuildLshCover(*dataset, options);
    }
    ExecutionContext serial(1);
    Cover reference = raw;
    core::PatchStats reference_stats;
    core::PatchPairCoverage(*dataset, reference, serial, &reference_stats);
    EXPECT_TRUE(reference.CandidatePairCoverage(*dataset) == 1.0);
    for (uint32_t threads : ThreadCounts()) {
      ExecutionContext ctx(threads);
      Cover patched = raw;
      core::PatchStats stats;
      core::PatchPairCoverage(*dataset, patched, ctx, &stats);
      const std::string label = core::BlockingStrategyName(strategy) +
                                std::string(", ") + std::to_string(threads) +
                                " threads";
      ExpectSameCover(reference, patched, label);
      EXPECT_EQ(stats.pairs_patched, reference_stats.pairs_patched) << label;
      EXPECT_EQ(stats.pairs_rechecked, reference_stats.pairs_rechecked)
          << label;
    }
  }
}

TEST_P(CoverDeterminism, PatchPairCoverageMatchesNaiveReference) {
  // Pins the CoverMembership (sorted-vector) representation against the
  // textbook serial algorithm it replaced: per-entity append-only home
  // lists, nested linear Together scans, repairs into the front (first)
  // home of the pair's first endpoint. Covers and the patched count must
  // be bit-identical.
  const auto dataset = MakeCorpus(GetParam());
  blocking::LshCoverOptions options;
  options.ensure_pair_coverage = false;
  options.expand_boundary = false;
  const Cover raw = blocking::BuildLshCover(*dataset, options);

  Cover naive = raw;
  size_t naive_patched = 0;
  {
    std::unordered_map<data::EntityId, std::vector<size_t>> homes;
    for (size_t i = 0; i < naive.size(); ++i) {
      for (data::EntityId e : naive.neighborhood(i).entities) {
        homes[e].push_back(i);
      }
    }
    const auto together = [&homes](data::EntityId a, data::EntityId b) {
      const auto it_a = homes.find(a);
      const auto it_b = homes.find(b);
      if (it_a == homes.end() || it_b == homes.end()) return false;
      for (size_t ha : it_a->second) {
        for (size_t hb : it_b->second) {
          if (ha == hb) return true;
        }
      }
      return false;
    };
    for (const data::CandidatePair& cp : dataset->candidate_pairs()) {
      if (together(cp.pair.a, cp.pair.b)) continue;
      const size_t home = homes.at(cp.pair.a).front();
      naive.AddEntityTo(home, cp.pair.b);
      homes[cp.pair.b].push_back(home);
      ++naive_patched;
    }
  }

  Cover patched = raw;
  core::PatchStats stats;
  core::PatchPairCoverage(*dataset, patched, ExecutionContext::Default(),
                          &stats);
  ExpectSameCover(naive, patched, "naive reference");
  EXPECT_EQ(stats.pairs_patched, naive_patched);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, CoverDeterminism,
                         ::testing::Range<uint64_t>(7100, 7106));

}  // namespace
}  // namespace cem
