#include <vector>

#include <gtest/gtest.h>

#include "core/canopy.h"
#include "core/cover.h"
#include "core/message_passing.h"
#include "data/bib_generator.h"
#include "data/dataset.h"
#include "data/figure1.h"

namespace cem::core {
namespace {

using data::EntityId;
using data::EntityPair;

TEST(CoverTest, AddNormalises) {
  Cover cover;
  cover.Add({3, 1, 2, 1});
  EXPECT_EQ(cover.neighborhood(0).entities,
            (std::vector<EntityId>{1, 2, 3}));
}

TEST(CoverTest, AddEntityToKeepsSorted) {
  Cover cover;
  cover.Add({1, 5});
  cover.AddEntityTo(0, 3);
  cover.AddEntityTo(0, 3);  // Duplicate ignored.
  EXPECT_EQ(cover.neighborhood(0).entities,
            (std::vector<EntityId>{1, 3, 5}));
}

TEST(CoverTest, SizeStatistics) {
  Cover cover;
  cover.Add({0, 1});
  cover.Add({2, 3, 4, 5});
  EXPECT_EQ(cover.MaxNeighborhoodSize(), 4u);
  EXPECT_DOUBLE_EQ(cover.MeanNeighborhoodSize(), 3.0);
}

TEST(CoverTest, Figure1CoverProperties) {
  data::Figure1 fig = data::MakeFigure1();
  Cover cover;
  for (const auto& n : fig.neighborhoods) cover.Add(n);
  EXPECT_TRUE(cover.CoversAllAuthorRefs(*fig.dataset));
  // Figure 2's C1..C3 cover all Coauthor edges used by the walkthrough.
  EXPECT_TRUE(cover.IsTotalForCoauthor(*fig.dataset));
  EXPECT_DOUBLE_EQ(cover.CandidatePairCoverage(*fig.dataset), 1.0);
}

TEST(CoverTest, DetectsNonTotalCover) {
  data::Figure1 fig = data::MakeFigure1();
  Cover cover;
  // Only C1 and C3 — the paper's example of a NON-total cover (the tuple
  // Coauthor(b1, c1) is lost).
  cover.Add(fig.neighborhoods[0]);
  cover.Add(fig.neighborhoods[2]);
  EXPECT_FALSE(cover.IsTotalForCoauthor(*fig.dataset));
}

TEST(CoverTest, ContainedPairsCountsMultiplicity) {
  data::Figure1 fig = data::MakeFigure1();
  Cover cover;
  cover.Add({fig.c1, fig.c2, fig.c3});
  cover.Add({fig.c1, fig.c2});
  // First neighborhood holds 3 candidate pairs, second 1.
  EXPECT_EQ(cover.TotalContainedPairs(*fig.dataset), 4u);
}

// --------------------------------------------------------------- Canopy --

class CanopyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = data::GenerateBibDataset(data::BibConfig::DblpLike(0.3));
  }
  std::unique_ptr<data::Dataset> dataset_;
};

TEST_F(CanopyTest, CoversAllRefsAndPairs) {
  const Cover cover = BuildCanopyCover(*dataset_);
  EXPECT_TRUE(cover.CoversAllAuthorRefs(*dataset_));
  EXPECT_DOUBLE_EQ(cover.CandidatePairCoverage(*dataset_), 1.0);
}

TEST_F(CanopyTest, BoundaryExpansionMakesTotalCover) {
  const Cover cover = BuildCanopyCover(*dataset_);
  EXPECT_TRUE(cover.IsTotalForCoauthor(*dataset_));
}

TEST_F(CanopyTest, WithoutExpansionNotTotal) {
  CanopyOptions options;
  options.expand_boundary = false;
  const Cover cover = BuildCanopyCover(*dataset_, options);
  // Coauthors are usually dissimilar, so canopies split them.
  EXPECT_FALSE(cover.IsTotalForCoauthor(*dataset_));
}

TEST_F(CanopyTest, BoundaryBringsDissimilarEntitiesTogether) {
  // The paper's point about covers vs blocking: neighborhoods contain
  // entities that are NOT similar (coauthors). Find some neighborhood
  // containing two refs with no candidate pair between them.
  const Cover cover = BuildCanopyCover(*dataset_);
  bool found_dissimilar_pair = false;
  for (const Neighborhood& n : cover.neighborhoods()) {
    for (size_t i = 0; i < n.entities.size() && !found_dissimilar_pair; ++i) {
      for (size_t j = i + 1; j < n.entities.size(); ++j) {
        if (!dataset_->FindCandidatePair(n.entities[i], n.entities[j])
                 .has_value()) {
          found_dissimilar_pair = true;
          break;
        }
      }
    }
  }
  EXPECT_TRUE(found_dissimilar_pair);
}

TEST_F(CanopyTest, DeterministicForSeed) {
  const Cover a = BuildCanopyCover(*dataset_);
  const Cover b = BuildCanopyCover(*dataset_);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.neighborhood(i).entities, b.neighborhood(i).entities);
  }
}

TEST_F(CanopyTest, TighterThresholdGivesMoreNeighborhoods) {
  CanopyOptions few;
  few.loose = 0.3;
  few.tight = 0.3;
  CanopyOptions many;
  many.loose = 0.3;
  many.tight = 0.9;
  EXPECT_LT(BuildCanopyCover(*dataset_, few).size(),
            BuildCanopyCover(*dataset_, many).size());
}

TEST(CanopyContrastTest, HepthHasLargerNeighborhoodsThanDblp) {
  // The paper: abbreviated HEPTH names collide -> fewer, larger
  // neighborhoods; DBLP full names -> more, smaller ones.
  auto hepth = data::GenerateBibDataset(data::BibConfig::HepthLike(0.3));
  auto dblp = data::GenerateBibDataset(data::BibConfig::DblpLike(0.3));
  const Cover hepth_cover = BuildCanopyCover(*hepth);
  const Cover dblp_cover = BuildCanopyCover(*dblp);
  EXPECT_GT(hepth_cover.MeanNeighborhoodSize(),
            dblp_cover.MeanNeighborhoodSize());
}

// ---------------------------------------------- Neighbor(.) on the index --
// CoverMembership is the one entity -> neighborhood index; the message-
// passing engine re-activates neighborhoods through AffectedNeighborhoods.

TEST(NeighborIndexTest, FindsContainingNeighborhoods) {
  Cover cover;
  cover.Add({0, 1, 2});
  cover.Add({2, 3});
  cover.Add({4});
  const CoverMembership index(cover);
  EXPECT_EQ(index.HomesOf(2), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(index.HomesOf(4), (std::vector<uint32_t>{2}));
  EXPECT_TRUE(index.HomesOf(99).empty());
}

TEST(NeighborIndexTest, AffectedNeedsBothEndpoints) {
  Cover cover;
  cover.Add({0, 1});
  cover.Add({1, 2});
  const CoverMembership index(cover);
  // Pair (0,1) affects only the first neighborhood; (0,2) affects none.
  EXPECT_EQ(AffectedNeighborhoods(index, {EntityPair(0, 1)}),
            (std::vector<uint32_t>{0}));
  EXPECT_TRUE(AffectedNeighborhoods(index, {EntityPair(0, 2)}).empty());
}

TEST(NeighborIndexTest, AffectedDeduplicates) {
  Cover cover;
  cover.Add({0, 1, 2});
  cover.Add({1, 2, 3});
  cover.Add({0, 1});
  const CoverMembership index(cover);
  // Pairs listed against id order: the union comes back sorted, unique.
  EXPECT_EQ(AffectedNeighborhoods(
                index, {EntityPair(1, 2), EntityPair(0, 1), EntityPair(1, 2)}),
            (std::vector<uint32_t>{0, 1, 2}));
}

/// Matches every pair of the neighborhood it is given (well-behaved).
class AllPairsMatcher : public Matcher {
 public:
  explicit AllPairsMatcher(const data::Dataset& dataset)
      : dataset_(dataset) {}

  MatchSet Match(const std::vector<EntityId>& entities, const MatchSet&,
                 const MatchSet&) const override {
    MatchSet out;
    for (size_t i = 0; i < entities.size(); ++i) {
      for (size_t j = i + 1; j < entities.size(); ++j) {
        out.Insert(EntityPair(entities[i], entities[j]));
      }
    }
    return out;
  }

  const data::Dataset& dataset() const override { return dataset_; }

 private:
  const data::Dataset& dataset_;
};

TEST(NeighborIndexTest, JustEvaluatedNeighborhoodIsNotRequeued) {
  Cover cover;
  cover.Add({0, 1, 2});
  cover.Add({1, 2});
  const CoverMembership index(cover);
  EXPECT_EQ(AffectedNeighborhoods(index, {EntityPair(1, 2)}, /*skip=*/0),
            (std::vector<uint32_t>{1}));
  EXPECT_TRUE(
      AffectedNeighborhoods(index, {EntityPair(0, 1)}, /*skip=*/0).empty());

  // End to end: a lone neighborhood whose evaluation finds new matches
  // runs once, not twice.
  const data::Figure1 fig = data::MakeFigure1();
  const AllPairsMatcher matcher(*fig.dataset);
  Cover lone;
  lone.Add({fig.a1, fig.a2, fig.b1});
  const MpResult result = RunSmp(matcher, lone);
  EXPECT_EQ(result.matches.size(), 3u);
  EXPECT_EQ(result.neighborhood_evaluations, 1u);
}

}  // namespace
}  // namespace cem::core
