// Bit-identity contract of the SIMD hot-path kernels: every SimdLevel is
// an execution strategy, never a semantic. These tests pin (1) the kernels
// against the historical scalar formulas they replaced (copied verbatim
// below), (2) AVX2 against scalar on adversarial random inputs, and
// (3) end-to-end covers against a forced-scalar serial reference for every
// level x thread count x shard count — the blocking-layer analogue of
// cover_determinism_test.cc with the instruction set as one more axis.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/blocking_tokens.h"
#include "blocking/lsh_cover.h"
#include "blocking/minhash.h"
#include "blocking/minhash_simd.h"
#include "core/canopy.h"
#include "core/cover.h"
#include "core/cover_builder.h"
#include "data/bib_generator.h"
#include "text/token_arena.h"
#include "util/execution_context.h"
#include "util/hash.h"
#include "util/random.h"

namespace cem {
namespace {

using blocking::MinHasher;
using blocking::SimdLevel;
using core::BlockingStrategy;
using core::Cover;

/// Levels this build + CPU can actually run (scalar always qualifies).
std::vector<SimdLevel> SupportedLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (blocking::SimdLevelSupported(SimdLevel::kAvx2)) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

/// Restores the CEM_SIMD/cpuid dispatch decision on scope exit.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) {
    blocking::internal_simd::SetActiveSimdLevelForTesting(level);
  }
  ~ScopedSimdLevel() {
    blocking::internal_simd::ResetActiveSimdLevelForTesting();
  }
};

/// The pre-refactor MinHash inner loop, copied verbatim from the historical
/// blocking/minhash.cc: per-token FNV-1a base hash, per-salt XOR + SplitMix64,
/// running min. The batched kernels must reproduce it bit-for-bit.
std::vector<uint64_t> LegacySignature(const std::vector<std::string>& tokens,
                                      const std::vector<uint64_t>& salts) {
  std::vector<uint64_t> signature(salts.size(), MinHasher::kEmptySlot);
  for (const std::string& token : tokens) {
    const uint64_t base = Fnv1a64(token);
    for (size_t i = 0; i < salts.size(); ++i) {
      const uint64_t h = Mix64(base ^ salts[i]);
      if (h < signature[i]) signature[i] = h;
    }
  }
  return signature;
}

/// TokenRef slices carrying `hashes` — the kernel reads only the hash, so
/// byte-less refs exercise it on arbitrary (adversarial) hash values.
std::vector<text::TokenRef> RefsOf(const std::vector<uint64_t>& hashes) {
  std::vector<text::TokenRef> refs(hashes.size());
  for (size_t t = 0; t < hashes.size(); ++t) refs[t].hash = hashes[t];
  return refs;
}

TEST(MinHashKernel, ScalarMatchesLegacyFormulaOnRandomHashes) {
  Rng rng(0x51u);
  for (int round = 0; round < 50; ++round) {
    const size_t num_tokens = rng.NextBounded(40);
    const size_t num_salts = 1 + rng.NextBounded(67);
    std::vector<uint64_t> hashes(num_tokens);
    std::vector<uint64_t> salts(num_salts);
    for (uint64_t& h : hashes) h = rng.Next();
    for (uint64_t& s : salts) s = rng.Next();

    std::vector<uint64_t> expected(num_salts, MinHasher::kEmptySlot);
    for (uint64_t base : hashes) {
      for (size_t i = 0; i < num_salts; ++i) {
        const uint64_t h = Mix64(base ^ salts[i]);
        if (h < expected[i]) expected[i] = h;
      }
    }

    std::vector<uint64_t> out(num_salts, 0);
    blocking::simd::MinHashSignatureRefs(RefsOf(hashes), salts, out.data(),
                                         SimdLevel::kScalar);
    EXPECT_EQ(out, expected) << "round " << round;
  }
}

TEST(MinHashKernel, EmptyTokenSetYieldsEmptySlots) {
  for (SimdLevel level : SupportedLevels()) {
    std::vector<uint64_t> salts = {1, 2, 3, 4, 5, 6, 7};
    std::vector<uint64_t> out(salts.size(), 0);
    blocking::simd::MinHashSignatureRefs({}, salts, out.data(), level);
    for (uint64_t component : out) {
      EXPECT_EQ(component, MinHasher::kEmptySlot)
          << blocking::SimdLevelName(level);
    }
  }
}

TEST(MinHashKernel, Avx2MatchesScalarOnAdversarialSizes) {
  if (!blocking::SimdLevelSupported(SimdLevel::kAvx2)) {
    GTEST_SKIP() << "AVX2 kernels not supported on this build/CPU";
  }
  Rng rng(0x52u);
  // Sweep salt counts around the vector width (4 lanes) so remainder
  // handling is exercised: 1..9 plus the real configuration sizes.
  std::vector<size_t> salt_counts = {1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 64, 127};
  for (size_t num_salts : salt_counts) {
    for (size_t num_tokens : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                              size_t{17}, size_t{100}}) {
      std::vector<uint64_t> hashes(num_tokens);
      std::vector<uint64_t> salts(num_salts);
      for (uint64_t& h : hashes) h = rng.Next();
      for (uint64_t& s : salts) s = rng.Next();
      // Bias some inputs toward the top of the 64-bit range: the unsigned
      // min emulation (sign-flip + signed compare) is exactly what a
      // naive signed compare would get wrong for values >= 2^63.
      for (uint64_t& h : hashes) {
        if (rng.NextBernoulli(0.3)) h |= 0x8000000000000000ULL;
      }

      const std::vector<text::TokenRef> refs = RefsOf(hashes);
      std::vector<uint64_t> scalar(num_salts, 0);
      std::vector<uint64_t> avx2(num_salts, 0);
      blocking::simd::MinHashSignatureRefs(refs, salts, scalar.data(),
                                           SimdLevel::kScalar);
      blocking::simd::MinHashSignatureRefs(refs, salts, avx2.data(),
                                           SimdLevel::kAvx2);
      EXPECT_EQ(avx2, scalar)
          << num_tokens << " tokens, " << num_salts << " salts";
    }
  }
}

TEST(CountEqualKernel, AllLevelsMatchNaiveLoop) {
  Rng rng(0x53u);
  for (int round = 0; round < 50; ++round) {
    const size_t n = rng.NextBounded(130);
    std::vector<uint64_t> a(n);
    std::vector<uint64_t> b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.Next();
      // Force a high equality rate so both branches are exercised.
      b[i] = rng.NextBernoulli(0.5) ? a[i] : rng.Next();
    }
    size_t expected = 0;
    for (size_t i = 0; i < n; ++i) {
      if (a[i] == b[i]) ++expected;
    }
    for (SimdLevel level : SupportedLevels()) {
      EXPECT_EQ(blocking::simd::CountEqual(a.data(), b.data(), n, level),
                expected)
          << blocking::SimdLevelName(level) << ", n=" << n;
    }
  }
}

TEST(MinHasherEquivalence, SignatureMatchesLegacyStringImplementation) {
  Rng rng(0x54u);
  const MinHasher hasher;
  const std::vector<std::string> pool = {"doe", "smi", "mit", "ith", "j|do",
                                         "a|sm", "ng",   "wan", "ang", "li"};
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel scoped(level);
    for (int round = 0; round < 30; ++round) {
      std::vector<std::string> tokens;
      const size_t count = rng.NextBounded(8);
      for (size_t i = 0; i < count; ++i) {
        tokens.push_back(pool[rng.NextBounded(pool.size())]);  // dups allowed
      }
      EXPECT_EQ(hasher.Signature(tokens), LegacySignature(tokens, hasher.salts()))
          << blocking::SimdLevelName(level) << ", round " << round;
    }
  }
}

TEST(MinHasherEquivalence, BlockingTokenHashesMatchStringTokenHashes) {
  // The dataset's blocking substrate must hold, per reference, exactly the
  // set of base hashes of the AuthorBlockingTokens strings — MinHash is
  // order- and duplicate-invariant, so equal sorted unique hash lists
  // guarantee equal signatures.
  const auto dataset =
      data::GenerateBibDataset(data::BibConfig::DblpLike(0.05));
  ASSERT_FALSE(dataset->author_refs().empty());
  for (data::EntityId ref : dataset->author_refs()) {
    std::vector<uint64_t> expected;
    for (const std::string& token :
         blocking::AuthorBlockingTokens(dataset->entity(ref))) {
      expected.push_back(Fnv1a64(token));
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    std::vector<uint64_t> actual;
    for (const text::TokenRef& token : dataset->BlockingTokens(ref)) {
      actual.push_back(token.hash);
    }
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected) << "entity " << ref;
  }
}

TEST(ComputeSignaturesEquivalence, MatchesPerDocSignatureAcrossContexts) {
  // Scale chosen so the corpus spans multiple fixed-size chunks.
  const auto dataset =
      data::GenerateBibDataset(data::BibConfig::DblpLike(0.4));
  const std::vector<data::EntityId>& refs = dataset->author_refs();
  ASSERT_GT(refs.size(), text::TokenCorpus::kChunkDocs)
      << "corpus too small to cross a chunk boundary";
  const MinHasher hasher;

  // Per-document reference signatures through the string front door.
  std::vector<std::vector<uint64_t>> expected(refs.size());
  for (size_t i = 0; i < refs.size(); ++i) {
    expected[i] =
        hasher.Signature(blocking::AuthorBlockingTokens(dataset->entity(refs[i])));
  }

  const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  for (SimdLevel level : SupportedLevels()) {
    for (uint32_t threads : {1u, 4u, hw}) {
      ExecutionContext ctx(threads);
      const text::TokenCorpus corpus = text::TokenCorpus::Build(
          refs.size(),
          [&](size_t i, text::TokenCorpus::DocBuilder& builder) {
            blocking::AppendAuthorBlockingTokens(dataset->entity(refs[i]),
                                                 builder);
          },
          ctx);
      const blocking::SignatureMatrix signatures =
          blocking::ComputeSignatures(hasher, corpus, ctx, level);
      ASSERT_EQ(signatures.num_docs(), refs.size());
      ASSERT_EQ(signatures.num_hashes(), hasher.num_hashes());
      for (size_t doc = 0; doc < refs.size(); ++doc) {
        ASSERT_EQ(std::memcmp(signatures.row(doc), expected[doc].data(),
                              hasher.num_hashes() * sizeof(uint64_t)),
                  0)
            << blocking::SimdLevelName(level) << ", " << threads
            << " threads, doc " << doc;
      }
    }
  }
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

TEST(EndToEndSimdEquivalence, CoversBitIdenticalAcrossLevelsThreadsShards) {
  // The full blocking pipeline — tokenise, signatures, banding, cover
  // assembly — must produce one answer regardless of the dispatched
  // instruction set, the thread count, or the shard count.
  data::BibConfig config = data::BibConfig::DblpLike(0.08);
  config.seed = 9001;
  const auto dataset = data::GenerateBibDataset(config);

  Cover lsh_reference;
  Cover canopy_reference;
  {
    ScopedSimdLevel scoped(SimdLevel::kScalar);
    ExecutionContext serial(1, /*num_shards=*/1);
    lsh_reference = blocking::MakeCoverBuilder(BlockingStrategy::kLsh)
                        ->Build(*dataset, serial);
    canopy_reference = blocking::MakeCoverBuilder(BlockingStrategy::kCanopy)
                           ->Build(*dataset, serial);
  }

  const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel scoped(level);
    for (uint32_t threads : {1u, 4u, hw}) {
      for (uint32_t shards : {1u, 4u, 32u}) {
        ExecutionContext ctx(threads, shards);
        const std::string label = std::string(blocking::SimdLevelName(level)) +
                                  ", " + std::to_string(threads) +
                                  " threads, " + std::to_string(shards) +
                                  " shards";
        ExpectSameCover(lsh_reference,
                        blocking::MakeCoverBuilder(BlockingStrategy::kLsh)
                            ->Build(*dataset, ctx),
                        "lsh, " + label);
        ExpectSameCover(canopy_reference,
                        blocking::MakeCoverBuilder(BlockingStrategy::kCanopy)
                            ->Build(*dataset, ctx),
                        "canopy, " + label);
      }
    }
  }
}

}  // namespace
}  // namespace cem
