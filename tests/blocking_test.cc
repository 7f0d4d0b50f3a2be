// Unit tests for the MinHash/LSH blocking subsystem: signature
// determinism, Jaccard-estimate accuracy, collision-probability
// monotonicity, and banding determinism.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/lsh_index.h"
#include "blocking/minhash.h"
#include "util/execution_context.h"

namespace cem {
namespace {

using blocking::LshIndex;
using blocking::LshParams;
using blocking::MinHasher;
using blocking::MinHashOptions;

std::vector<std::string> Tokens(int start, int count) {
  std::vector<std::string> out;
  for (int i = 0; i < count; ++i) {
    out.push_back("tok" + std::to_string(start + i));
  }
  return out;
}

TEST(MinHash, SignatureIsDeterministicAcrossInstances) {
  const MinHasher a, b;
  const std::vector<std::string> tokens = Tokens(0, 12);
  EXPECT_EQ(a.Signature(tokens), b.Signature(tokens));
}

TEST(MinHash, SignatureHasSetSemantics) {
  const MinHasher hasher;
  std::vector<std::string> tokens = Tokens(0, 8);
  std::vector<std::string> with_dupes = tokens;
  with_dupes.insert(with_dupes.end(), tokens.begin(), tokens.end());
  EXPECT_EQ(hasher.Signature(tokens), hasher.Signature(with_dupes));
}

TEST(MinHash, DifferentSeedsGiveDifferentSignatures) {
  MinHashOptions other;
  other.seed = 99;
  const MinHasher a, b(other);
  const std::vector<std::string> tokens = Tokens(0, 12);
  EXPECT_NE(a.Signature(tokens), b.Signature(tokens));
}

TEST(MinHash, EmptyTokenSetGetsEmptySlots) {
  const MinHasher hasher;
  const std::vector<uint64_t> signature = hasher.Signature({});
  for (uint64_t component : signature) {
    EXPECT_EQ(component, MinHasher::kEmptySlot);
  }
}

TEST(MinHash, EstimateTracksTrueJaccard) {
  MinHashOptions options;
  options.num_hashes = 512;  // stddev ~= sqrt(s(1-s)/512) < 0.023
  const MinHasher hasher(options);
  // |A| = |B| = 30, |A ∩ B| = 15 -> J = 15/45 = 1/3.
  const std::vector<std::string> a = Tokens(0, 30);
  const std::vector<std::string> b = Tokens(15, 30);
  const double estimate =
      MinHasher::EstimateJaccard(hasher.Signature(a), hasher.Signature(b));
  EXPECT_NEAR(estimate, 1.0 / 3.0, 0.1);
  EXPECT_DOUBLE_EQ(
      MinHasher::EstimateJaccard(hasher.Signature(a), hasher.Signature(a)),
      1.0);
}

TEST(MinHash, ComponentAgreementIsMonotoneInOverlap) {
  // The empirical side of the collision-probability law: more overlapping
  // token sets agree on more signature components.
  MinHashOptions options;
  options.num_hashes = 256;
  const MinHasher hasher(options);
  const std::vector<uint64_t> base = hasher.Signature(Tokens(0, 20));
  double previous = 1.1;
  for (int shift : {2, 6, 12}) {  // Jaccard 18/22 > 14/26 > 8/32.
    const double estimate = MinHasher::EstimateJaccard(
        base, hasher.Signature(Tokens(shift, 20)));
    EXPECT_LT(estimate, previous) << "shift " << shift;
    previous = estimate;
  }
}

TEST(LshIndex, CollisionProbabilityIsMonotoneInJaccard) {
  for (const LshParams params : {LshParams{32, 2}, LshParams{16, 4}}) {
    double previous = -1.0;
    for (double s = 0.0; s <= 1.0; s += 0.05) {
      const double p =
          LshIndex::CollisionProbability(s, params.bands, params.rows);
      EXPECT_GE(p, previous);
      previous = p;
    }
  }
}

TEST(LshIndex, CollisionProbabilityBoundaries) {
  EXPECT_DOUBLE_EQ(LshIndex::CollisionProbability(0.0, 32, 2), 0.0);
  EXPECT_DOUBLE_EQ(LshIndex::CollisionProbability(1.0, 32, 2), 1.0);
  // More bands catch more; more rows per band catch fewer.
  EXPECT_GT(LshIndex::CollisionProbability(0.4, 32, 2),
            LshIndex::CollisionProbability(0.4, 16, 2));
  EXPECT_LT(LshIndex::CollisionProbability(0.4, 32, 4),
            LshIndex::CollisionProbability(0.4, 32, 2));
}

TEST(LshIndex, BandingIsDeterministic) {
  const MinHasher hasher;
  const LshParams params{16, 4};
  LshIndex first(params, hasher.num_hashes());
  LshIndex second(params, hasher.num_hashes());
  for (uint32_t doc = 0; doc < 24; ++doc) {
    const auto signature = hasher.Signature(Tokens(doc % 7, 10));
    first.AddDocument(doc, signature);
    second.AddDocument(doc, signature);
  }
  EXPECT_EQ(first.num_buckets(), second.num_buckets());
  EXPECT_EQ(first.TotalBucketPairs(), second.TotalBucketPairs());
  for (uint32_t doc = 0; doc < 24; ++doc) {
    EXPECT_EQ(first.Candidates(doc), second.Candidates(doc)) << "doc " << doc;
  }
}

TEST(LshIndex, IdenticalSignaturesAlwaysCollide) {
  const MinHasher hasher;
  LshIndex index(LshParams{32, 2}, hasher.num_hashes());
  const auto signature = hasher.Signature(Tokens(0, 10));
  index.AddDocument(0, signature);
  index.AddDocument(1, signature);
  EXPECT_EQ(index.Candidates(0), std::vector<uint32_t>{1});
  EXPECT_EQ(index.Candidates(1), std::vector<uint32_t>{0});
}

TEST(LshIndex, SizeTracksIncrementalAdds) {
  // The streaming layer assigns arrival slots from size(); it must be an
  // O(1) running document count, not something inferred from buckets.
  const MinHasher hasher;
  LshIndex index(LshParams{32, 2}, hasher.num_hashes());
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.size(), 0u);
  for (uint32_t doc = 0; doc < 17; ++doc) {
    index.AddDocument(doc, hasher.Signature(Tokens(doc % 5, 8)));
    EXPECT_EQ(index.size(), doc + 1u);
    EXPECT_EQ(index.size(), index.num_documents());
    EXPECT_FALSE(index.empty());
  }
}

TEST(LshIndex, CandidatesAreSymmetricSortedAndSelfFree) {
  const MinHasher hasher;
  LshIndex index(LshParams{32, 2}, hasher.num_hashes());
  constexpr uint32_t kDocs = 40;
  for (uint32_t doc = 0; doc < kDocs; ++doc) {
    index.AddDocument(doc, hasher.Signature(Tokens(doc % 9, 12)));
  }
  for (uint32_t doc = 0; doc < kDocs; ++doc) {
    const std::vector<uint32_t> candidates = index.Candidates(doc);
    EXPECT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
    for (uint32_t other : candidates) {
      EXPECT_NE(other, doc);
      const std::vector<uint32_t> back = index.Candidates(other);
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), doc))
          << doc << " -> " << other;
    }
  }
}

TEST(LshIndex, DisjointTokenSetsRarelyCollide) {
  const MinHasher hasher;
  LshIndex index(LshParams{32, 2}, hasher.num_hashes());
  index.AddDocument(0, hasher.Signature(Tokens(0, 10)));
  index.AddDocument(1, hasher.Signature(Tokens(100, 10)));
  EXPECT_TRUE(index.Candidates(0).empty());
}

TEST(LshIndex, ShardCountNeverChangesTheIndex) {
  // Sharding partitions the bucket space for parallel ownership; it must be
  // invisible in every observable: candidates, bucket counts, work metric.
  const MinHasher hasher;
  const LshParams params{32, 2};
  LshIndex reference(params, hasher.num_hashes());  // 1 shard.
  std::vector<LshIndex> sharded;
  for (uint32_t shards : {2u, 7u, 64u}) {
    sharded.emplace_back(params, hasher.num_hashes(), shards);
  }
  constexpr uint32_t kDocs = 60;
  for (uint32_t doc = 0; doc < kDocs; ++doc) {
    const auto signature = hasher.Signature(Tokens(doc % 11, 12));
    reference.AddDocument(doc, signature);
    for (LshIndex& index : sharded) index.AddDocument(doc, signature);
  }
  for (const LshIndex& index : sharded) {
    EXPECT_EQ(index.num_buckets(), reference.num_buckets());
    EXPECT_EQ(index.TotalBucketPairs(), reference.TotalBucketPairs());
    for (uint32_t doc = 0; doc < kDocs; ++doc) {
      EXPECT_EQ(index.Candidates(doc), reference.Candidates(doc))
          << index.num_shards() << " shards, doc " << doc;
    }
  }
}

TEST(LshIndex, ParallelBulkAddMatchesSerialAdds) {
  const MinHasher hasher;
  const LshParams params{16, 4};
  constexpr uint32_t kDocs = 80;
  std::vector<std::vector<uint64_t>> signatures;
  for (uint32_t doc = 0; doc < kDocs; ++doc) {
    signatures.push_back(hasher.Signature(Tokens(doc % 13, 10)));
  }
  LshIndex serial(params, hasher.num_hashes());
  for (uint32_t doc = 0; doc < kDocs; ++doc) {
    serial.AddDocument(doc, signatures[doc]);
  }
  for (uint32_t threads : {1u, 4u}) {
    for (uint32_t shards : {1u, 8u}) {
      ExecutionContext ctx(threads, shards);
      LshIndex bulk(params, hasher.num_hashes(), shards);
      bulk.AddDocuments(signatures, ctx);
      EXPECT_EQ(bulk.num_documents(), serial.num_documents());
      EXPECT_EQ(bulk.num_buckets(), serial.num_buckets());
      EXPECT_EQ(bulk.TotalBucketPairs(), serial.TotalBucketPairs());
      for (uint32_t doc = 0; doc < kDocs; ++doc) {
        EXPECT_EQ(bulk.Candidates(doc), serial.Candidates(doc))
            << threads << " threads, " << shards << " shards, doc " << doc;
      }
    }
  }
}

}  // namespace
}  // namespace cem
