#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/canopy.h"
#include "core/cover.h"
#include "core/match_set.h"
#include "core/maximal_message.h"
#include "core/message_passing.h"
#include "data/bib_generator.h"
#include "data/figure1.h"
#include "mln/mln_matcher.h"

namespace cem::core {
namespace {

using data::EntityId;
using data::EntityPair;

class Figure1Mp : public ::testing::Test {
 protected:
  Figure1Mp()
      : fig_(data::MakeFigure1()),
        matcher_(*fig_.dataset, mln::MlnWeights::Figure1Demo()) {
    for (const auto& n : fig_.neighborhoods) cover_.Add(n);
  }

  EntityPair P(EntityId a, EntityId b) const { return EntityPair(a, b); }

  data::Figure1 fig_;
  mln::MlnMatcher matcher_;
  Cover cover_;
};

// ------------------------------------------------------------- MatchSet --

TEST(MatchSetTest, InsertContainsErase) {
  MatchSet s;
  EXPECT_TRUE(s.Insert(EntityPair(1, 2)));
  EXPECT_FALSE(s.Insert(EntityPair(2, 1)));  // Normalised duplicate.
  EXPECT_TRUE(s.Contains(EntityPair(2, 1)));
  EXPECT_TRUE(s.Erase(EntityPair(1, 2)));
  EXPECT_TRUE(s.empty());
}

TEST(MatchSetTest, SetAlgebra) {
  MatchSet a({EntityPair(1, 2), EntityPair(3, 4)});
  MatchSet b({EntityPair(3, 4), EntityPair(5, 6)});
  EXPECT_EQ(a.IntersectionSize(b), 1u);
  EXPECT_EQ(a.Difference(b), (std::vector<EntityPair>{EntityPair(1, 2)}));
  MatchSet c = a;
  EXPECT_EQ(c.InsertAll(b), 1u);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_TRUE(a.IsSubsetOf(c));
  EXPECT_FALSE(c.IsSubsetOf(a));
}

TEST(MatchSetTest, TransitiveClosureCompletesComponents) {
  MatchSet s({EntityPair(1, 2), EntityPair(2, 3), EntityPair(7, 8)});
  MatchSet closed = TransitiveClosure(s);
  EXPECT_TRUE(closed.Contains(EntityPair(1, 3)));
  EXPECT_TRUE(closed.Contains(EntityPair(7, 8)));
  EXPECT_EQ(closed.size(), 4u);
}

TEST(MatchSetTest, TransitiveClosureOfClosedSetIsIdentity) {
  MatchSet s({EntityPair(1, 2), EntityPair(2, 3), EntityPair(1, 3)});
  EXPECT_EQ(TransitiveClosure(s), s);
}

// ----------------------------------------------------------------- NO-MP --

TEST_F(Figure1Mp, NoMpFindsOnlyC1C2) {
  // Section 2.2: separate runs produce exactly {(c1,c2)}.
  const MpResult result = RunNoMp(matcher_, cover_);
  EXPECT_EQ(result.matches.SortedPairs(),
            (std::vector<EntityPair>{P(fig_.c1, fig_.c2)}));
  EXPECT_EQ(result.neighborhood_evaluations, 3u);
}

// ------------------------------------------------------------------- SMP --

TEST_F(Figure1Mp, SmpRecoversB1B2ButNotTheChain) {
  // Section 2.2: the simple message Match(c1,c2) from C3 lets C2 match
  // (b1,b2); the chain stays unmatched (the chicken-and-egg problem).
  const MpResult result = RunSmp(matcher_, cover_);
  EXPECT_EQ(result.matches.SortedPairs(),
            (std::vector<EntityPair>{P(fig_.b1, fig_.b2),
                                     P(fig_.c1, fig_.c2)}));
}

TEST_F(Figure1Mp, SmpIsSound) {
  // Theorem 2(2): SMP's output is contained in the full run E(E).
  const MatchSet full = matcher_.MatchAll();
  const MpResult result = RunSmp(matcher_, cover_);
  EXPECT_TRUE(result.matches.IsSubsetOf(full));
}

TEST_F(Figure1Mp, SmpIsOrderInvariant) {
  // Theorem 2(3): consistency. Try all 6 processing orders.
  std::vector<uint32_t> order = {0, 1, 2};
  const MatchSet reference = RunSmp(matcher_, cover_).matches;
  do {
    MpOptions options;
    options.initial_order = order;
    EXPECT_EQ(RunSmp(matcher_, cover_, options).matches, reference);
  } while (std::next_permutation(order.begin(), order.end()));
}

// -------------------------------------------------------- ComputeMaximal --

TEST_F(Figure1Mp, MaximalMessagesOfC1) {
  // C1 = {a1,a2,b2,b3}: pairs (a1,a2) and (b2,b3) entail each other.
  const auto messages = ComputeMaximal(matcher_, fig_.neighborhoods[0],
                                       MatchSet(), MatchSet());
  ASSERT_EQ(messages.size(), 1u);
  std::vector<EntityPair> sorted = messages[0];
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<EntityPair>{P(fig_.a1, fig_.a2),
                                             P(fig_.b2, fig_.b3)}));
}

TEST_F(Figure1Mp, MaximalMessagesOfC2) {
  // C2 produces {(b1,b2),(c1,c2)}, {(b2,b3),(c2,c3)}, {(b1,b3),(c1,c3)}.
  const auto messages = ComputeMaximal(matcher_, fig_.neighborhoods[1],
                                       MatchSet(), MatchSet());
  EXPECT_EQ(messages.size(), 3u);
  bool found_paper_message = false;
  for (const auto& m : messages) {
    std::vector<EntityPair> sorted = m;
    std::sort(sorted.begin(), sorted.end());
    if (sorted == std::vector<EntityPair>{P(fig_.b2, fig_.b3),
                                          P(fig_.c2, fig_.c3)}) {
      found_paper_message = true;
    }
  }
  EXPECT_TRUE(found_paper_message)
      << "C2 must generate the paper's maximal message {(b2,b3),(c2,c3)}";
}

TEST_F(Figure1Mp, MatchedPairsAreNotHypotheses) {
  // Once (c1,c2) is evidence, C3 has no unresolved pair -> no messages.
  MatchSet evidence;
  evidence.Insert(P(fig_.c1, fig_.c2));
  const auto messages = ComputeMaximal(matcher_, fig_.neighborhoods[2],
                                       evidence, MatchSet());
  EXPECT_TRUE(messages.empty());
}

TEST_F(Figure1Mp, MaximalMessagesSatisfyDefinition) {
  // Definition 8 against the full run: every message is entirely inside
  // E(E) or disjoint from it.
  const MatchSet full = matcher_.MatchAll();
  for (size_t n = 0; n < cover_.size(); ++n) {
    for (const auto& m : ComputeMaximal(matcher_, cover_.neighborhood(n).entities,
                                        MatchSet(), MatchSet())) {
      size_t inside = 0;
      for (const EntityPair& p : m) inside += full.Contains(p) ? 1 : 0;
      EXPECT_TRUE(inside == 0 || inside == m.size())
          << "message violates Definition 8";
    }
  }
}

// ---------------------------------------------------- MaximalMessageSet --

TEST(MaximalMessageSetTest, DisjointMessagesStaySeparate) {
  MaximalMessageSet set;
  set.Insert({EntityPair(1, 2), EntityPair(3, 4)});
  set.Insert({EntityPair(5, 6)});
  EXPECT_EQ(set.num_live(), 2u);
}

TEST(MaximalMessageSetTest, OverlappingMessagesMerge) {
  // Proposition 3(ii) / the (T ∪ TC)* step: overlap on (3,4) merges.
  MaximalMessageSet set;
  set.Insert({EntityPair(1, 2), EntityPair(3, 4)});
  const uint32_t id = set.Insert({EntityPair(3, 4), EntityPair(5, 6)});
  EXPECT_EQ(set.num_live(), 1u);
  EXPECT_EQ(set.Message(id).size(), 3u);
}

TEST(MaximalMessageSetTest, ChainMergeAcrossThreeMessages) {
  MaximalMessageSet set;
  set.Insert({EntityPair(1, 2), EntityPair(3, 4)});
  set.Insert({EntityPair(5, 6), EntityPair(7, 8)});
  // Bridges both existing messages.
  const uint32_t id = set.Insert({EntityPair(3, 4), EntityPair(5, 6)});
  EXPECT_EQ(set.num_live(), 1u);
  EXPECT_EQ(set.Message(id).size(), 4u);
}

TEST(MaximalMessageSetTest, FindIntersectingAndRemove) {
  MaximalMessageSet set;
  const uint32_t id = set.Insert({EntityPair(1, 2), EntityPair(3, 4)});
  MatchSet probe;
  probe.Insert(EntityPair(3, 4));
  EXPECT_EQ(set.FindIntersecting(probe), (std::vector<uint32_t>{id}));
  set.RemoveMessage(id);
  EXPECT_EQ(set.num_live(), 0u);
  EXPECT_TRUE(set.FindIntersecting(probe).empty());
}

// ------------------------------------------------------------------- MMP --

TEST_F(Figure1Mp, MmpRecoversEverythingIncludingTheChain) {
  // Section 2.2 finale: MMP combines C1's and C2's maximal messages and
  // completes the chain — output equals the full holistic run.
  const MpResult result = RunMmp(matcher_, cover_);
  EXPECT_EQ(result.matches, matcher_.MatchAll());
  EXPECT_EQ(result.matches.size(), 5u);
  EXPECT_GT(result.messages_created, 0u);
  EXPECT_GT(result.messages_promoted, 0u);
}

TEST_F(Figure1Mp, MmpIsSound) {
  const MatchSet full = matcher_.MatchAll();
  EXPECT_TRUE(RunMmp(matcher_, cover_).matches.IsSubsetOf(full));
}

TEST_F(Figure1Mp, MmpIsOrderInvariant) {
  std::vector<uint32_t> order = {0, 1, 2};
  const MatchSet reference = RunMmp(matcher_, cover_).matches;
  do {
    MpOptions options;
    options.initial_order = order;
    EXPECT_EQ(RunMmp(matcher_, cover_, options).matches, reference);
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST_F(Figure1Mp, MmpDominatesSmpDominatesNoMp) {
  // Monotone improvement NO-MP ⊆ SMP ⊆ MMP on this instance.
  const MatchSet no_mp = RunNoMp(matcher_, cover_).matches;
  const MatchSet smp = RunSmp(matcher_, cover_).matches;
  const MatchSet mmp = RunMmp(matcher_, cover_).matches;
  EXPECT_TRUE(no_mp.IsSubsetOf(smp));
  EXPECT_TRUE(smp.IsSubsetOf(mmp));
  EXPECT_LT(smp.size(), mmp.size());
}

/// Counts every black-box call a message-passing run makes; forwards the
/// rest.
class CountingMatcher : public ProbabilisticMatcher {
 public:
  explicit CountingMatcher(const ProbabilisticMatcher& inner) : inner_(inner) {}

  MatchSet Match(const std::vector<EntityId>& entities,
                 const MatchSet& positive,
                 const MatchSet& negative) const override {
    ++match_calls;
    return inner_.Match(entities, positive, negative);
  }
  MatchSet MatchConditioned(const std::vector<EntityId>& entities,
                            const MatchSet& positive,
                            const MatchSet& negative) const override {
    ++conditioned_calls;
    return inner_.MatchConditioned(entities, positive, negative);
  }
  const data::Dataset& dataset() const override { return inner_.dataset(); }
  std::vector<EntityPair> EntangledPairs(
      const std::vector<EntityId>& entities, const MatchSet& evidence,
      const MatchSet& base) const override {
    return inner_.EntangledPairs(entities, evidence, base);
  }
  double Score(const MatchSet& matches) const override {
    return inner_.Score(matches);
  }
  double ScoreDelta(const MatchSet& current,
                    const std::vector<EntityPair>& additions) const override {
    return inner_.ScoreDelta(current, additions);
  }

  mutable size_t match_calls = 0;
  mutable size_t conditioned_calls = 0;

 private:
  const ProbabilisticMatcher& inner_;
};

/// Runs MMP through a counting decorator and checks the reported
/// matcher_calls equals the calls the matcher actually received.
void ExpectExactMmpMatcherCalls(const ProbabilisticMatcher& inner,
                                const Cover& cover) {
  const CountingMatcher counting(inner);
  const MpResult mmp = RunMmp(counting, cover);
  EXPECT_EQ(counting.match_calls, mmp.neighborhood_evaluations);
  EXPECT_GT(counting.conditioned_calls, 0u);
  EXPECT_EQ(mmp.matcher_calls,
            counting.match_calls + counting.conditioned_calls);
  // The decorator is transparent: same answer as the bare matcher.
  EXPECT_EQ(mmp.matches, RunMmp(inner, cover).matches);
}

TEST_F(Figure1Mp, MmpMatcherCallsAreExact) {
  ExpectExactMmpMatcherCalls(matcher_, cover_);
}

TEST(MmpMatcherCalls, ExactOnHepthLikeCorpus) {
  const auto dataset =
      data::GenerateBibDataset(data::BibConfig::HepthLike(0.05));
  const mln::MlnMatcher matcher(*dataset);
  ExpectExactMmpMatcherCalls(matcher, BuildCanopyCover(*dataset));
}

TEST_F(Figure1Mp, SmpMatcherCallsAreExact) {
  const CountingMatcher counting(matcher_);
  const MpResult smp = RunSmp(counting, cover_);
  EXPECT_EQ(counting.conditioned_calls, 0u);
  EXPECT_EQ(smp.matcher_calls, counting.match_calls);
}

TEST_F(Figure1Mp, MmpWithoutMergeMissesTheChain) {
  // Ablation: without (T ∪ TC)* merging the chain never completes.
  const MpResult result = RunMmpWithoutMerge(matcher_, cover_);
  EXPECT_FALSE(result.matches.Contains(P(fig_.a1, fig_.a2)));
  // But the SMP-level matches still appear.
  EXPECT_TRUE(result.matches.Contains(P(fig_.c1, fig_.c2)));
  EXPECT_TRUE(result.matches.Contains(P(fig_.b1, fig_.b2)));
}

TEST_F(Figure1Mp, NonTotalCoverLosesMatches) {
  // Dropping C2 (so Coauthor(b1,c1) etc. are lost) must cost recall.
  Cover partial;
  partial.Add(fig_.neighborhoods[0]);
  partial.Add(fig_.neighborhoods[2]);
  const MatchSet with_total = RunMmp(matcher_, cover_).matches;
  const MatchSet without = RunMmp(matcher_, partial).matches;
  EXPECT_LT(without.size(), with_total.size());
  EXPECT_FALSE(without.Contains(P(fig_.b1, fig_.b2)));
}

TEST_F(Figure1Mp, EmptyCoverYieldsNothing) {
  Cover empty;
  EXPECT_TRUE(RunSmp(matcher_, empty).matches.empty());
  EXPECT_TRUE(RunMmp(matcher_, empty).matches.empty());
  EXPECT_TRUE(RunNoMp(matcher_, empty).matches.empty());
}

TEST_F(Figure1Mp, SingleNeighborhoodCoverEqualsDirectRun) {
  Cover single;
  std::vector<EntityId> all(fig_.dataset->num_entities());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  single.Add(all);
  EXPECT_EQ(RunSmp(matcher_, single).matches, matcher_.MatchAll());
  EXPECT_EQ(RunMmp(matcher_, single).matches, matcher_.MatchAll());
}

}  // namespace
}  // namespace cem::core
