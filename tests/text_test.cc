#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "text/jaccard.h"
#include "text/jaro_winkler.h"
#include "text/similarity_level.h"
#include "text/token_arena.h"
#include "text/token_index.h"
#include "util/execution_context.h"
#include "util/hash.h"

namespace cem::text {
namespace {

// ------------------------------------------------------------------ Jaro --

TEST(JaroTest, IdenticalStrings) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("martha", "martha"), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
}

TEST(JaroTest, CompletelyDifferent) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "xyz"), 0.0);
}

TEST(JaroTest, EmptyVersusNonEmpty) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("", "abc"), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", ""), 0.0);
}

TEST(JaroTest, KnownLiteratureValues) {
  // Classic examples from the record-linkage literature.
  EXPECT_NEAR(JaroSimilarity("martha", "marhta"), 0.9444, 1e-3);
  EXPECT_NEAR(JaroSimilarity("dixon", "dicksonx"), 0.7667, 1e-3);
  EXPECT_NEAR(JaroSimilarity("jellyfish", "smellyfish"), 0.8963, 1e-3);
}

TEST(JaroTest, Symmetric) {
  const char* samples[] = {"smith", "smyth", "johnson", "jonson", "a", "ab"};
  for (const char* a : samples) {
    for (const char* b : samples) {
      EXPECT_DOUBLE_EQ(JaroSimilarity(a, b), JaroSimilarity(b, a));
    }
  }
}

TEST(JaroWinklerTest, KnownValues) {
  EXPECT_NEAR(JaroWinklerSimilarity("martha", "marhta"), 0.9611, 1e-3);
  EXPECT_NEAR(JaroWinklerSimilarity("dixon", "dicksonx"), 0.8133, 1e-3);
}

TEST(JaroWinklerTest, PrefixBoostsScore) {
  const double jw = JaroWinklerSimilarity("prefixed", "prefixes");
  const double j = JaroSimilarity("prefixed", "prefixes");
  EXPECT_GT(jw, j);
}

TEST(JaroWinklerTest, BoundedByOne) {
  EXPECT_LE(JaroWinklerSimilarity("aaaa", "aaaa"), 1.0);
  EXPECT_LE(JaroWinklerSimilarity("aaaab", "aaaac", 0.25), 1.0);
}

// -------------------------------------------------------------- Jaccard --

TEST(JaccardTest, SetSemantics) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity({"a", "a", "b"}, {"a", "b", "b"}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({"a"}, {"b"}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({"a", "b"}, {"b", "c"}), 1.0 / 3.0);
}

TEST(JaccardTest, TokenJaccard) {
  EXPECT_DOUBLE_EQ(TokenJaccard("john smith", "smith john"), 1.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("john smith", "mary jones"), 0.0);
}

TEST(JaccardTest, NgramJaccardDetectsTypos) {
  EXPECT_GT(NgramJaccard("rastogi", "rastogy"), 0.4);
  EXPECT_LT(NgramJaccard("rastogi", "garofalakis"), 0.2);
}

// ------------------------------------------------------ SimilarityLevel --

TEST(SimilarityLevelTest, DiscretizeThresholds) {
  LevelThresholds t;  // 0.74 / 0.93 / 0.97
  EXPECT_EQ(Discretize(0.99, t), SimilarityLevel::kHigh);
  EXPECT_EQ(Discretize(0.97, t), SimilarityLevel::kHigh);
  EXPECT_EQ(Discretize(0.94, t), SimilarityLevel::kMedium);
  EXPECT_EQ(Discretize(0.80, t), SimilarityLevel::kLow);
  EXPECT_EQ(Discretize(0.74, t), SimilarityLevel::kLow);
  EXPECT_EQ(Discretize(0.30, t), SimilarityLevel::kNone);
}

TEST(SimilarityLevelTest, IdenticalFullNamesAreHigh) {
  LevelThresholds t;
  EXPECT_EQ(NameSimilarityLevel("John", "Smith", "John", "Smith", t),
            SimilarityLevel::kHigh);
}

TEST(SimilarityLevelTest, AbbreviatedFirstNameIsAmbiguous) {
  LevelThresholds t;
  // "J. Smith" vs "John Smith": similar but not top-level — the HEPTH
  // situation the paper describes.
  const SimilarityLevel level =
      NameSimilarityLevel("J.", "Smith", "John", "Smith", t);
  EXPECT_TRUE(level == SimilarityLevel::kMedium ||
              level == SimilarityLevel::kLow);
  EXPECT_NE(level, SimilarityLevel::kHigh);
  EXPECT_NE(level, SimilarityLevel::kNone);
}

TEST(SimilarityLevelTest, MismatchedInitialKillsSimilarity) {
  EXPECT_LT(NameSimilarity("J.", "Smith", "Mary", "Smith"),
            NameSimilarity("M.", "Smith", "Mary", "Smith"));
}

TEST(SimilarityLevelTest, DifferentLastNamesAreNone) {
  LevelThresholds t;
  EXPECT_EQ(NameSimilarityLevel("John", "Smith", "John", "Garofalakis", t),
            SimilarityLevel::kNone);
}

TEST(SimilarityLevelTest, SymmetricInArguments) {
  EXPECT_DOUBLE_EQ(NameSimilarity("J.", "Smith", "John", "Smith"),
                   NameSimilarity("John", "Smith", "J.", "Smith"));
}

TEST(SimilarityLevelTest, SmallTypoStaysSimilar) {
  LevelThresholds t;
  EXPECT_NE(NameSimilarityLevel("John", "Smith", "John", "Smyth", t),
            SimilarityLevel::kNone);
}

// ------------------------------------------------------------ TokenIndex --

/// Index over `docs` (doc id = position), each appended through
/// TokenCorpus::AppendDoc with lower-casing.
TokenIndex IndexOf(const std::vector<std::vector<std::string>>& docs) {
  TokenCorpus corpus;
  for (const std::vector<std::string>& tokens : docs) {
    corpus.AppendDoc([&](TokenCorpus::DocBuilder& builder) {
      for (const std::string& t : tokens) builder.EmitLower(t);
    });
  }
  return TokenIndex(std::move(corpus));
}

TEST(TokenIndexTest, FindsOverlappingDocs) {
  const TokenIndex index =
      IndexOf({{"smi", "mit", "ith"}, {"smi", "mit", "itt"}, {"xyz"}});
  auto candidates = index.Candidates(0, 0.1);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].doc_id, 1u);
  EXPECT_NEAR(candidates[0].score, 2.0 / 3.0, 1e-9);
}

TEST(TokenIndexTest, MinScoreFilters) {
  const TokenIndex index = IndexOf({{"a", "b", "c", "d"}, {"a"}});
  EXPECT_TRUE(index.Candidates(0, 0.5).empty());
  EXPECT_EQ(index.Candidates(0, 0.2).size(), 1u);
}

TEST(TokenIndexTest, CaseInsensitive) {
  const TokenIndex index = IndexOf({{"ABC"}, {"abc"}});
  EXPECT_EQ(index.Candidates(0, 0.5).size(), 1u);
}

TEST(TokenIndexTest, DuplicateTokensCollapse) {
  const TokenIndex index = IndexOf({{"a", "a", "a"}, {"a", "b"}});
  auto candidates = index.Candidates(0, 0.0);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_NEAR(candidates[0].score, 0.5, 1e-9);  // 1 shared / max(1, 2)
}

TEST(TokenIndexTest, SelfExcluded) {
  const TokenIndex index = IndexOf({{"x"}});
  EXPECT_TRUE(index.Candidates(0, 0.0).empty());
}

TEST(TokenIndexTest, ParallelBuiltCorpusMatchesSerialAppend) {
  // A corpus built in parallel indexes exactly like one appended serially.
  const std::vector<std::vector<std::string>> docs = {
      {"a", "b", "c"}, {"b", "c", "d"}, {"A", "a", "e"}, {"f"}, {}};
  const TokenIndex serial = IndexOf(docs);
  ExecutionContext ctx(3);
  const TokenIndex bulk(TokenCorpus::Build(
      docs.size(),
      [&](size_t doc, TokenCorpus::DocBuilder& builder) {
        for (const std::string& t : docs[doc]) builder.EmitLower(t);
      },
      ctx));
  EXPECT_TRUE(TokenIndex().empty());
  EXPECT_FALSE(bulk.empty());
  EXPECT_EQ(bulk.size(), docs.size());  // Token-free documents count too.
  EXPECT_EQ(bulk.num_documents(), serial.num_documents());
  EXPECT_EQ(bulk.num_tokens(), 6u);
  EXPECT_EQ(bulk.num_tokens(), serial.num_tokens());
  EXPECT_EQ(bulk.num_postings(), 9u);
  EXPECT_EQ(bulk.num_postings(), serial.num_postings());
  for (uint32_t doc = 0; doc < docs.size(); ++doc) {
    const auto expected = serial.Candidates(doc, 0.0);
    const auto actual = bulk.Candidates(doc, 0.0);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].doc_id, expected[i].doc_id);
      EXPECT_EQ(actual[i].score, expected[i].score);
    }
  }
}

TEST(TokenIndexTest, FirstDocBoundScansOnlyLaterDocs) {
  // Candidates(i, s, &scored, i + 1) is Candidates(i, s) restricted to doc
  // ids > i, and scores only those docs.
  const std::vector<std::vector<std::string>> docs = {
      {"smi", "mit", "ith"}, {"smi", "mit", "itt"}, {"xyz", "smi"},
      {"ith", "xyz"},        {},                    {"mit", "ith", "smi"}};
  const TokenIndex index = IndexOf(docs);
  for (const double min_score : {0.0, 0.5}) {
    for (uint32_t doc = 0; doc < docs.size(); ++doc) {
      // At min_score 0 every scored doc is returned.
      std::vector<TokenIndex::Neighbor> expected;
      size_t expected_scored = 0;
      for (const auto& n : index.Candidates(doc, 0.0)) {
        if (n.doc_id <= doc) continue;
        ++expected_scored;
        if (n.score >= min_score) expected.push_back(n);
      }
      size_t scored = 0;
      const auto actual = index.Candidates(doc, min_score, &scored, doc + 1);
      EXPECT_EQ(scored, expected_scored) << "doc " << doc;
      ASSERT_EQ(actual.size(), expected.size()) << "doc " << doc;
      for (size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i].doc_id, expected[i].doc_id);
        EXPECT_EQ(actual[i].score, expected[i].score);
      }
    }
  }
}

// ----------------------------------------------------------- TokenCorpus --

std::vector<std::string_view> Views(std::span<const TokenRef> tokens) {
  std::vector<std::string_view> out;
  for (const TokenRef& token : tokens) out.push_back(token.view());
  return out;
}

TEST(TokenCorpusTest, NormalisesLikeTokenIndex) {
  // Lower-cased, sorted, deduplicated — the historical per-document form.
  TokenCorpus corpus;
  corpus.AppendDoc([](TokenCorpus::DocBuilder& b) {
    b.EmitLower("Beta");
    b.EmitLower("alpha");
    b.EmitLower("BETA");
    b.EmitLower("gamma");
  });
  ASSERT_EQ(corpus.num_docs(), 1u);
  EXPECT_EQ(Views(corpus.doc(0)),
            (std::vector<std::string_view>{"alpha", "beta", "gamma"}));
  EXPECT_EQ(corpus.num_tokens(), 3u);
}

TEST(TokenCorpusTest, TokenRefHashMatchesFnv1a64OfView) {
  TokenCorpus corpus;
  corpus.AppendDoc([](TokenCorpus::DocBuilder& b) {
    b.EmitLower("Doe");
    b.Emit("j|do");
  });
  for (const TokenRef& token : corpus.doc(0)) {
    EXPECT_EQ(token.hash, Fnv1a64(token.view())) << token.view();
  }
}

TEST(TokenCorpusTest, AliasedTrigramsShareInternedStorage) {
  TokenCorpus corpus;
  corpus.AppendDoc([](TokenCorpus::DocBuilder& b) {
    const std::string_view interned = b.InternLower("Smith");
    EXPECT_EQ(interned, "smith");
    for (size_t i = 0; i + 3 <= interned.size(); ++i) {
      b.EmitAlias(interned.data() + i, 3);
    }
  });
  const auto tokens = corpus.doc(0);
  EXPECT_EQ(Views(tokens),
            (std::vector<std::string_view>{"ith", "mit", "smi"}));
  // Aliases slice the single interned copy: 5 bytes, not 9.
  EXPECT_EQ(corpus.arena_bytes(), 5u);
}

TEST(TokenCorpusTest, BuildIdenticalAcrossThreadCounts) {
  // Enough documents to span multiple fixed-size chunks.
  const size_t num_docs = TokenCorpus::kChunkDocs * 3 + 17;
  const auto tokenize = [](size_t doc, TokenCorpus::DocBuilder& b) {
    b.EmitLower("Doc" + std::to_string(doc % 100));
    b.EmitLower("shared");
    if (doc % 3 == 0) b.EmitLower("Third");
  };
  ExecutionContext serial(1);
  const TokenCorpus reference = TokenCorpus::Build(num_docs, tokenize, serial);
  ASSERT_EQ(reference.num_docs(), num_docs);
  for (uint32_t threads : {2u, 8u}) {
    ExecutionContext ctx(threads);
    const TokenCorpus corpus = TokenCorpus::Build(num_docs, tokenize, ctx);
    ASSERT_EQ(corpus.num_docs(), num_docs);
    EXPECT_EQ(corpus.num_tokens(), reference.num_tokens());
    EXPECT_EQ(corpus.arena_bytes(), reference.arena_bytes());
    for (size_t doc = 0; doc < num_docs; ++doc) {
      const auto actual = corpus.doc(doc);
      const auto expected = reference.doc(doc);
      ASSERT_EQ(actual.size(), expected.size()) << "doc " << doc;
      for (size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i].view(), expected[i].view());
        EXPECT_EQ(actual[i].hash, expected[i].hash);
      }
    }
  }
}

TEST(TokenCorpusTest, AppendDocMatchesBuild) {
  const auto tokenize = [](size_t doc, TokenCorpus::DocBuilder& b) {
    b.EmitLower("tok" + std::to_string(doc));
    b.EmitLower("common");
  };
  ExecutionContext serial(1);
  const TokenCorpus built = TokenCorpus::Build(5, tokenize, serial);
  TokenCorpus appended;
  for (size_t doc = 0; doc < 5; ++doc) {
    appended.AppendDoc(
        [&](TokenCorpus::DocBuilder& b) { tokenize(doc, b); });
  }
  ASSERT_EQ(appended.num_docs(), built.num_docs());
  for (size_t doc = 0; doc < 5; ++doc) {
    EXPECT_EQ(Views(appended.doc(doc)), Views(built.doc(doc)));
  }
}

TEST(TokenCorpusTest, MovePreservesDocuments) {
  TokenCorpus corpus;
  corpus.AppendDoc([](TokenCorpus::DocBuilder& b) { b.EmitLower("Alpha"); });
  TokenCorpus moved(std::move(corpus));
  ASSERT_EQ(moved.num_docs(), 1u);
  EXPECT_EQ(Views(moved.doc(0)), (std::vector<std::string_view>{"alpha"}));
}

TEST(HashedJaccardTest, MatchesStringJaccardOnCorpusDocs) {
  TokenCorpus corpus;
  const std::vector<std::vector<std::string>> docs = {
      {"a", "b", "c"},
      {"b", "c", "d", "e"},
      {},
      {"a", "b", "c"},
      {"x"},
  };
  for (const auto& tokens : docs) {
    corpus.AppendDoc([&](TokenCorpus::DocBuilder& b) {
      for (const std::string& token : tokens) b.EmitLower(token);
    });
  }
  for (size_t i = 0; i < docs.size(); ++i) {
    for (size_t j = 0; j < docs.size(); ++j) {
      EXPECT_DOUBLE_EQ(HashedJaccard(corpus.doc(i), corpus.doc(j)),
                       JaccardSimilarity(docs[i], docs[j]))
          << i << " vs " << j;
    }
  }
}

}  // namespace
}  // namespace cem::text
