// Unit tests for the MinHash/LSH blocking subsystem: signature
// determinism, Jaccard-estimate accuracy, collision-probability
// monotonicity, banding determinism, and the chained bucket layout
// against a map-of-vectors oracle.

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/lsh_index.h"
#include "blocking/minhash.h"
#include "blocking/minhash_simd.h"
#include "util/execution_context.h"
#include "util/random.h"

namespace cem {
namespace {

using blocking::LshIndex;
using blocking::LshParams;
using blocking::MinHasher;
using blocking::MinHashOptions;

/// Copies per-document signatures into the row layout bulk insertion
/// takes.
blocking::SignatureMatrix ToRows(
    const std::vector<std::vector<uint64_t>>& signatures,
    uint32_t num_hashes) {
  blocking::SignatureMatrix rows(signatures.size(), num_hashes);
  for (size_t doc = 0; doc < signatures.size(); ++doc) {
    std::copy(signatures[doc].begin(), signatures[doc].end(), rows.row(doc));
  }
  return rows;
}

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
      bulk.AddDocuments(ToRows(signatures, hasher.num_hashes()), ctx);
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

/// Random signatures whose components come from alphabets of very
/// different sizes, so buckets range from singletons to hundreds of
/// members and the bucket tables grow through several doublings.
std::vector<std::vector<uint64_t>> RandomSignatures(uint32_t docs,
                                                    uint32_t num_hashes,
                                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<uint64_t>> out(docs);
  for (std::vector<uint64_t>& signature : out) {
    const uint64_t alphabet = rng.NextBernoulli(0.3)
                                  ? 2
                                  : uint64_t{1} << (2 + rng.NextBounded(40));
    for (uint32_t h = 0; h < num_hashes; ++h) {
      signature.push_back(rng.NextBounded(alphabet));
    }
  }
  return out;
}

/// Reference buckets: band key -> members in insertion order.
using BucketOracle = std::map<uint64_t, std::vector<uint32_t>>;

std::vector<uint32_t> OracleUnion(const BucketOracle& oracle,
                                  const std::vector<uint64_t>& keys) {
  std::vector<uint32_t> out;
  for (uint64_t key : keys) {
    const auto it = oracle.find(key);
    if (it != oracle.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Every bucket of `index`, gathered through the snapshot writer's walk.
BucketOracle WalkedBuckets(const LshIndex& index) {
  BucketOracle walked;
  for (size_t s = 0; s < index.num_shards(); ++s) {
    uint64_t previous = 0;
    bool first = true;
    index.ForEachBucket(s, [&](uint64_t key, std::span<const uint32_t> docs) {
      EXPECT_TRUE(first || key > previous) << "shard " << s << " unsorted";
      EXPECT_EQ(key % index.num_shards(), s);
      first = false;
      previous = key;
      walked[key].assign(docs.begin(), docs.end());
    });
  }
  return walked;
}

/// The index's buckets as saved files for `num_files` shards.
std::vector<LshIndex::SavedBuckets> SaveBuckets(const BucketOracle& buckets,
                                                size_t num_files) {
  std::vector<LshIndex::SavedBuckets> saved(num_files);
  for (const auto& [key, docs] : buckets) {
    LshIndex::SavedBuckets& file = saved[key % num_files];
    file.keys.push_back(key);
    file.docs.insert(file.docs.end(), docs.begin(), docs.end());
    file.offsets.push_back(static_cast<uint32_t>(file.docs.size()));
  }
  return saved;
}

TEST(LshIndex, ChainedBucketsMatchMapOracle) {
  const LshParams params{32, 2};
  constexpr uint32_t kNumHashes = 64;
  constexpr uint32_t kDocs = 700;
  const std::vector<std::vector<uint64_t>> signatures =
      RandomSignatures(kDocs, kNumHashes, 41);
  const std::vector<std::vector<uint64_t>> probes =
      RandomSignatures(60, kNumHashes, 42);

  const LshIndex keyer(params, kNumHashes);
  BucketOracle oracle;
  for (uint32_t doc = 0; doc < kDocs; ++doc) {
    for (uint64_t key : keyer.BandKeys(signatures[doc])) {
      oracle[key].push_back(doc);
    }
  }
  size_t oracle_pairs = 0;
  size_t largest = 0;
  for (const auto& [key, docs] : oracle) {
    oracle_pairs += docs.size() * (docs.size() - 1) / 2;
    largest = std::max(largest, docs.size());
  }
  ASSERT_GT(largest, 30u) << "the corpus must produce large buckets";
  ASSERT_GT(oracle.size(), 4000u) << "and many buckets";

  for (uint32_t shards : {1u, 4u, 32u}) {
    LshIndex incremental(params, kNumHashes, shards);
    for (uint32_t doc = 0; doc < kDocs; ++doc) {
      incremental.AddDocument(doc, signatures[doc]);
    }
    ExecutionContext ctx(4, shards);
    LshIndex bulk(params, kNumHashes, shards);
    bulk.AddDocuments(ToRows(signatures, kNumHashes), ctx);

    for (const LshIndex* index : {&incremental, &bulk}) {
      const std::string label = std::to_string(shards) + " shards, " +
                                (index == &bulk ? "bulk" : "incremental");
      EXPECT_EQ(index->num_buckets(), oracle.size()) << label;
      EXPECT_EQ(index->TotalBucketPairs(), oracle_pairs) << label;
      EXPECT_EQ(WalkedBuckets(*index), oracle) << label;
      for (uint32_t doc = 0; doc < kDocs; ++doc) {
        std::vector<uint32_t> expected =
            OracleUnion(oracle, keyer.BandKeys(signatures[doc]));
        expected.erase(std::find(expected.begin(), expected.end(), doc));
        ASSERT_EQ(index->Candidates(doc), expected) << label << ", doc " << doc;
      }
      for (const std::vector<uint64_t>& probe : probes) {
        EXPECT_EQ(index->CandidatesOfSignature(probe),
                  OracleUnion(oracle, keyer.BandKeys(probe)))
            << label;
      }
      for (const std::vector<uint64_t>& signature : {signatures[0],
                                                     signatures[kDocs / 2]}) {
        EXPECT_EQ(index->CandidatesOfSignature(signature),
                  OracleUnion(oracle, keyer.BandKeys(signature)))
            << label;
      }
    }
    // Bulk insertion links each shard's entries in serial order, so the
    // two tables are the same size, slot for slot.
    EXPECT_EQ(bulk.memory_bytes(), incremental.memory_bytes()) << shards;
    // Per entry a band key and a link, per document a flag, and a 4-byte
    // head slot per bucket at a load factor between 3/8 and 3/4.
    const size_t flat = kDocs * params.bands * (sizeof(uint64_t) +
                                                sizeof(uint32_t)) +
                        kDocs;
    EXPECT_GE(bulk.memory_bytes(), flat + oracle.size() * 4 * 4 / 3);
    EXPECT_LE(bulk.memory_bytes(),
              flat + (oracle.size() * 8 / 3 + 16 * shards) * 4);
  }
}

TEST(LshIndex, SavedBucketsCheckAcrossShardCountsAndCatchTampering) {
  const LshParams params{32, 2};
  constexpr uint32_t kNumHashes = 64;
  const std::vector<std::vector<uint64_t>> signatures =
      RandomSignatures(300, kNumHashes, 7);
  ExecutionContext ctx(2, 4);
  LshIndex index(params, kNumHashes, 4);
  index.AddDocuments(ToRows(signatures, kNumHashes), ctx);
  const BucketOracle buckets = WalkedBuckets(index);
  // Bucket contents do not depend on the shard count: files saved for any
  // shard count check out.
  for (size_t files : {1u, 3u, 4u, 32u}) {
    EXPECT_TRUE(index.CheckSavedBuckets(SaveBuckets(buckets, files)).ok())
        << files;
  }

  auto big = std::find_if(buckets.begin(), buckets.end(),
                          [](const auto& b) { return b.second.size() > 2; });
  ASSERT_NE(big, buckets.end());
  {
    BucketOracle tampered = buckets;  // A member dropped.
    tampered[big->first].pop_back();
    EXPECT_FALSE(index.CheckSavedBuckets(SaveBuckets(tampered, 4)).ok());
  }
  {
    BucketOracle tampered = buckets;  // Members reordered.
    std::swap(tampered[big->first][0], tampered[big->first][1]);
    EXPECT_FALSE(index.CheckSavedBuckets(SaveBuckets(tampered, 4)).ok());
  }
  {
    BucketOracle tampered = buckets;  // A bucket missing.
    tampered.erase(big->first);
    EXPECT_FALSE(index.CheckSavedBuckets(SaveBuckets(tampered, 4)).ok());
  }
  {
    BucketOracle tampered = buckets;  // A bucket the signatures never made.
    tampered[big->first + 1] = {0};
    EXPECT_FALSE(index.CheckSavedBuckets(SaveBuckets(tampered, 4)).ok());
  }
  {
    std::vector<LshIndex::SavedBuckets> saved = SaveBuckets(buckets, 4);
    std::swap(saved[0], saved[1]);  // Buckets in the wrong shard file.
    EXPECT_FALSE(index.CheckSavedBuckets(saved).ok());
  }
}

}  // namespace
}  // namespace cem
