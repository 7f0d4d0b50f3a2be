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
#include <iterator>
#include <memory>
#include <set>
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
// signatures) must see exactly what the string oracle gives it, for any
// thread and shard count. The oracle never touches text::TokenIndex: token
// overlap is a brute-force pairwise intersection of the AuthorBlockingTokens
// string sets, and signatures come from MinHasher::Signature.

/// The sorted, deduplicated AuthorBlockingTokens of every author ref, doc
/// id = position in author_refs().
std::vector<std::vector<std::string>> OracleTokenSets(
    const data::Dataset& dataset) {
  const std::vector<data::EntityId>& refs = dataset.author_refs();
  std::vector<std::vector<std::string>> sets(refs.size());
  for (size_t i = 0; i < refs.size(); ++i) {
    sets[i] = blocking::AuthorBlockingTokens(dataset.entity(refs[i]));
    std::sort(sets[i].begin(), sets[i].end());
    sets[i].erase(std::unique(sets[i].begin(), sets[i].end()), sets[i].end());
  }
  return sets;
}

/// Every doc's brute-force overlap neighbors: each other doc sharing >= 1
/// token, in doc order, scored |a ∩ b| / max(|a|, |b|).
std::vector<std::vector<core::AssemblyCandidate>> OracleOverlaps(
    const std::vector<std::vector<std::string>>& sets) {
  std::vector<std::vector<core::AssemblyCandidate>> overlaps(sets.size());
  for (uint32_t i = 0; i < sets.size(); ++i) {
    for (uint32_t j = 0; j < sets.size(); ++j) {
      if (i == j) continue;
      std::vector<std::string> shared;
      std::set_intersection(sets[i].begin(), sets[i].end(), sets[j].begin(),
                            sets[j].end(), std::back_inserter(shared));
      if (shared.empty()) continue;
      overlaps[i].push_back(
          {j, static_cast<double>(shared.size()) /
                  std::max<double>(sets[i].size(), sets[j].size())});
    }
  }
  return overlaps;
}

/// The neighbors in `overlaps` scoring at least `min_score`.
std::vector<core::AssemblyCandidate> AtLeast(
    const std::vector<core::AssemblyCandidate>& overlaps, double min_score) {
  std::vector<core::AssemblyCandidate> out;
  for (const core::AssemblyCandidate& n : overlaps) {
    if (n.score >= min_score) out.push_back(n);
  }
  return out;
}

/// Candidate pairs from the oracle overlaps, sorted.
std::vector<data::CandidatePair> OracleCandidatePairs(
    const data::Dataset& dataset,
    const std::vector<std::vector<core::AssemblyCandidate>>& overlaps) {
  const data::CandidateOptions options;
  const std::vector<data::EntityId>& refs = dataset.author_refs();
  std::vector<data::CandidatePair> pairs;
  for (uint32_t i = 0; i < refs.size(); ++i) {
    const data::Entity& a = dataset.entity(refs[i]);
    for (const auto& cand : AtLeast(overlaps[i], options.min_ngram_overlap)) {
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

/// Default-option canopy cover over the oracle overlaps.
Cover OracleCanopyCover(
    const data::Dataset& dataset,
    const std::vector<std::vector<core::AssemblyCandidate>>& overlaps,
    const ExecutionContext& ctx, size_t* pairs) {
  const core::CanopyOptions options;
  const auto candidate_fn = [&](uint32_t doc, size_t* num_scored) {
    *num_scored = overlaps[doc].size();
    return AtLeast(overlaps[doc], options.loose);
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
  const std::vector<std::vector<core::AssemblyCandidate>> overlaps =
      OracleOverlaps(OracleTokenSets(dataset));
  if (check_pairs) {
    const std::vector<data::CandidatePair> expected =
        OracleCandidatePairs(dataset, overlaps);
    ASSERT_EQ(dataset.num_candidate_pairs(), expected.size()) << label;
    for (data::PairId id = 0; id < expected.size(); ++id) {
      EXPECT_EQ(dataset.candidate_pair(id).pair, expected[id].pair) << label;
      EXPECT_EQ(dataset.candidate_pair(id).level, expected[id].level)
          << label;
    }
  }

  size_t expected_pairs = 0;
  core::BlockingStats stats;
  const Cover canopy =
      OracleCanopyCover(dataset, overlaps, ctx, &expected_pairs);
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
  // The dataset's token index, built on contexts of any thread and shard
  // count: its size, every doc's candidates AND the num_scored work counter
  // must equal the brute-force oracle overlaps.
  data::BibConfig config = data::BibConfig::DblpLike(0.08);
  config.seed = GetParam();
  for (uint32_t threads : {1u, 4u}) {
    for (uint32_t shards : {1u, 32u}) {
      ExecutionContext ctx(threads, shards);
      const auto dataset = data::GenerateBibDataset(config, {}, ctx);
      const std::string label = std::to_string(threads) + " threads, " +
                                std::to_string(shards) + " shards";
      const std::vector<std::vector<std::string>> sets =
          OracleTokenSets(*dataset);
      const std::vector<std::vector<core::AssemblyCandidate>> overlaps =
          OracleOverlaps(sets);
      const text::TokenIndex& index = dataset->blocking_index();
      ASSERT_EQ(index.num_documents(), sets.size()) << label;
      size_t postings = 0;
      std::set<std::string> tokens;
      for (const std::vector<std::string>& set : sets) {
        tokens.insert(set.begin(), set.end());
        postings += set.size();
      }
      EXPECT_EQ(index.num_tokens(), tokens.size()) << label;
      EXPECT_EQ(index.num_postings(), postings) << label;
      for (uint32_t doc = 0; doc < sets.size(); ++doc) {
        size_t scored = 0;
        const auto candidates = index.Candidates(doc, 0.3, &scored);
        const auto expected = AtLeast(overlaps[doc], 0.3);
        EXPECT_EQ(scored, overlaps[doc].size()) << label << ", doc " << doc;
        ASSERT_EQ(candidates.size(), expected.size())
            << label << ", doc " << doc;
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
