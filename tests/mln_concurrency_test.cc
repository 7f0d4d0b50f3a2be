// MlnMatcher keeps its neighborhood scratch (membership stamps, pair
// positions, solver buffers) per thread. These tests call it from several
// threads at once, alternating between two corpora of different sizes so
// each thread's scratch is grown by one dataset and then reused, stale
// stamps included, by the other. Every answer must equal the serial one.
// Labeled `concurrency`, so the ThreadSanitizer stage runs it.

#include <algorithm>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/match_set.h"
#include "eval/experiment.h"
#include "mln/mln_matcher.h"

namespace cem {
namespace {

struct Corpus {
  eval::Workload workload;
  std::unique_ptr<mln::MlnMatcher> matcher;
};

/// One matcher call: neighborhood `n` of corpus `corpus`, conditioned on
/// `positive` (the serial answer of another neighborhood, so the clamping
/// paths run too).
struct Job {
  size_t corpus;
  size_t n;
  core::MatchSet positive;
};

struct Answer {
  std::vector<data::EntityPair> matches;
  std::vector<data::EntityPair> entangled;

  friend bool operator==(const Answer&, const Answer&) = default;
};

Answer RunJob(const std::vector<Corpus>& corpora, const Job& job) {
  const Corpus& c = corpora[job.corpus];
  const std::vector<data::EntityId>& entities =
      c.workload.cover.neighborhood(job.n).entities;
  return {c.matcher->Match(entities, job.positive).SortedPairs(),
          c.matcher->EntangledPairs(entities, job.positive, core::MatchSet())};
}

TEST(MlnMatcherConcurrency, ThreadsAlternatingDatasetsEqualSerial) {
  std::vector<Corpus> corpora;
  corpora.push_back({eval::MakeDblpWorkload(0.1, core::BlockingStrategy::kLsh),
                     nullptr});
  corpora.push_back({eval::MakeHepthWorkload(0.03,
                                             core::BlockingStrategy::kCanopy),
                     nullptr});
  for (Corpus& c : corpora) {
    c.matcher = std::make_unique<mln::MlnMatcher>(*c.workload.dataset);
  }
  ASSERT_NE(corpora[0].workload.dataset->num_entities(),
            corpora[1].workload.dataset->num_entities());

  // Jobs alternate corpora; each corpus contributes its neighborhoods
  // twice, once unconditioned and once conditioned on a neighbour's
  // unconditioned answer.
  std::vector<Job> jobs;
  const size_t rounds = std::max(corpora[0].workload.cover.size(),
                                 corpora[1].workload.cover.size());
  for (size_t i = 0; i < rounds; ++i) {
    for (size_t c = 0; c < corpora.size(); ++c) {
      const core::Cover& cover = corpora[c].workload.cover;
      if (i < cover.size()) jobs.push_back({c, i, core::MatchSet()});
    }
  }
  const size_t unconditioned = jobs.size();
  for (size_t j = 0; j < unconditioned; ++j) {
    const size_t c = jobs[j].corpus;
    const core::Cover& cover = corpora[c].workload.cover;
    const size_t n = jobs[j].n;
    jobs.push_back({c, (n + 1) % cover.size(),
                    corpora[c].matcher->Match(cover.neighborhood(n).entities)});
  }

  std::vector<Answer> serial;
  serial.reserve(jobs.size());
  for (const Job& job : jobs) serial.push_back(RunJob(corpora, job));

  constexpr size_t kThreads = 4;
  std::vector<Answer> parallel(jobs.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t j = t; j < jobs.size(); j += kThreads) {
        parallel[j] = RunJob(corpora, jobs[j]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  size_t nonempty = 0;
  for (size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_EQ(parallel[j], serial[j])
        << "job " << j << " (corpus " << jobs[j].corpus << ", neighborhood "
        << jobs[j].n << ")";
    if (!serial[j].matches.empty()) ++nonempty;
  }
  // The comparison must be about real answers, not empty sets.
  EXPECT_GT(jobs.size(), 200u);
  EXPECT_GT(nonempty, jobs.size() / 10);
}

}  // namespace
}  // namespace cem
