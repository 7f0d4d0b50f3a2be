// Serving-layer suite (tier1-concurrency; ci/check.sh re-runs it under
// ThreadSanitizer). The two load-bearing claims:
//
//  * Quiescent-prefix pinning: a query answered at any quiescent prefix of
//    the arrival order is a deterministic function of that prefix — bit-
//    identical across thread counts {1, 4, hw} x shard counts {1, 4, 32} —
//    and its match evidence equals a batch RunSmp over the streamed cover
//    at the same prefix (the PR 5 warm-start fixpoint equality, read
//    through the serving API).
//
//  * Concurrent query/ingest safety: readers hammering Lookup() while an
//    ingest thread streams chunks never observe a half-patched cover —
//    every answer carries an epoch that IS a published chunk boundary.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/lsh_index.h"
#include "blocking/minhash.h"
#include "core/match_set.h"
#include "core/message_passing.h"
#include "data/bib_generator.h"
#include "mln/mln_matcher.h"
#include "serve/match_service.h"
#include "stream/streaming_matcher.h"
#include "util/execution_context.h"
#include "util/random.h"

namespace cem {
namespace {

using serve::MatchService;
using serve::Query;
using serve::QueryResult;
using serve::ServeOptions;
using stream::StreamingMatcher;
using stream::StreamingOptions;

std::vector<uint32_t> ThreadCounts() {
  return {1, 4, std::max(1u, std::thread::hardware_concurrency())};
}

/// A small noisy bibliography corpus, distinct per seed (mirrors
/// streaming_test.cc).
std::unique_ptr<data::Dataset> MakeSmallBib(uint64_t seed) {
  data::BibConfig config = data::BibConfig::DblpLike(0.05);
  config.seed = seed;
  return data::GenerateBibDataset(config);
}

/// Everything deterministic about an answer (latency_us excluded).
void ExpectSameAnswer(const QueryResult& a, const QueryResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.ref, b.ref) << label;
  EXPECT_EQ(a.epoch, b.epoch) << label;
  EXPECT_EQ(a.live, b.live) << label;
  EXPECT_EQ(a.candidates, b.candidates) << label;
  EXPECT_EQ(a.cluster, b.cluster) << label;
  EXPECT_EQ(a.confidence, b.confidence) << label;
}

/// Streams `refs` in `chunk`-sized batches through a fresh service built
/// on `ctx`, answering `queries` at every quiescent prefix; fills
/// `per_prefix` with the answers grouped by prefix.
void AnswersAtPrefixes(const core::Matcher& matcher,
                       const std::vector<data::EntityId>& refs,
                       const std::vector<data::EntityId>& queries,
                       size_t chunk, const ExecutionContext& ctx,
                       std::vector<std::vector<QueryResult>>* per_prefix) {
  StreamingOptions options;
  options.context = &ctx;
  StreamingMatcher streaming(matcher, options);
  MatchService service(streaming);
  for (size_t start = 0; start < refs.size(); start += chunk) {
    const size_t end = std::min(refs.size(), start + chunk);
    ASSERT_TRUE(
        service
            .IngestBatch({refs.begin() + start, refs.begin() + end})
            .ok())
        << "prefix " << end;
    per_prefix->emplace_back();
    for (data::EntityId q : queries) {
      const Result<QueryResult> answer = service.Lookup({q});
      ASSERT_TRUE(answer.ok());
      per_prefix->back().push_back(*answer);
    }
  }
}

TEST(MatchService, PrefixAnswersPinnedAcrossThreadAndShardCounts) {
  const auto dataset = MakeSmallBib(7);
  const mln::MlnMatcher matcher(*dataset);
  std::vector<data::EntityId> refs = dataset->author_refs();
  Rng rng(11);
  rng.Shuffle(refs);
  // Query a spread of references: some live early, some late (cold for
  // most prefixes), exercising both answer paths at every prefix.
  std::vector<data::EntityId> queries;
  for (size_t i = 0; i < refs.size(); i += 9) queries.push_back(refs[i]);
  const size_t chunk = 24;

  ExecutionContext serial(1, /*num_shards=*/1);
  std::vector<std::vector<QueryResult>> reference;
  AnswersAtPrefixes(matcher, refs, queries, chunk, serial, &reference);
  for (uint32_t threads : ThreadCounts()) {
    for (uint32_t shards : {1u, 4u, 32u}) {
      ExecutionContext ctx(threads, shards);
      std::vector<std::vector<QueryResult>> answers;
      AnswersAtPrefixes(matcher, refs, queries, chunk, ctx, &answers);
      ASSERT_EQ(answers.size(), reference.size());
      for (size_t p = 0; p < answers.size(); ++p) {
        for (size_t q = 0; q < queries.size(); ++q) {
          ExpectSameAnswer(answers[p][q], reference[p][q],
                           std::to_string(threads) + " threads, " +
                               std::to_string(shards) + " shards, prefix " +
                               std::to_string(p) + ", query " +
                               std::to_string(queries[q]));
        }
      }
    }
  }
}

TEST(MatchService, QuiescentPrefixAnswersMatchBatchRunSmp) {
  const auto dataset = MakeSmallBib(13);
  const mln::MlnMatcher matcher(*dataset);
  std::vector<data::EntityId> refs = dataset->author_refs();
  Rng rng(5);
  rng.Shuffle(refs);
  StreamingMatcher streaming(matcher);
  MatchService service(streaming);
  const size_t chunk = 16;
  for (size_t start = 0; start < refs.size(); start += chunk) {
    const size_t end = std::min(refs.size(), start + chunk);
    ASSERT_TRUE(
        service
            .IngestBatch({refs.begin() + start, refs.begin() + end})
            .ok());
    // The batch reference at this prefix: RunSmp over the streamed cover
    // (total over the live refs — the maintained invariant).
    const core::MatchSet batch =
        core::RunSmp(matcher, streaming.cover()).matches;
    ASSERT_EQ(streaming.matches(), batch) << "prefix " << end;
    // Every live query's matched flags and cluster read that fixpoint.
    for (size_t i = 0; i < end; i += 7) {
      const data::EntityId q = refs[i];
      const Result<QueryResult> answer = service.Lookup({q});
      ASSERT_TRUE(answer.ok());
      EXPECT_EQ(answer->epoch, end);
      EXPECT_TRUE(answer->live);
      for (const serve::CandidateScore& c : answer->candidates) {
        EXPECT_EQ(c.matched, batch.Contains(data::EntityPair(q, c.ref)))
            << "prefix " << end << " query " << q << " candidate " << c.ref;
      }
      EXPECT_EQ(answer->cluster,
                core::ClusterOf(*dataset, batch, q));
    }
  }
}

TEST(MatchService, CandidatesMatchBruteForceLshProbe) {
  const auto dataset = MakeSmallBib(3);
  const mln::MlnMatcher matcher(*dataset);
  std::vector<data::EntityId> refs = dataset->author_refs();
  StreamingMatcher streaming(matcher);
  MatchService service(streaming, ServeOptions{.max_candidates = 0});
  const std::vector<data::EntityId> live(refs.begin(),
                                         refs.begin() + refs.size() / 2);
  ASSERT_TRUE(service.IngestBatch(live).ok());

  const stream::IncrementalCover& icover = streaming.incremental_cover();
  const blocking::LshIndex& index = icover.lsh_index();
  for (size_t i = 0; i < refs.size(); i += 5) {
    const data::EntityId q = refs[i];
    const Result<QueryResult> answer = service.Lookup({q});
    ASSERT_TRUE(answer.ok());
    // Brute force: a live slot is a candidate iff it shares a band key
    // with the query's signature (self excluded).
    std::vector<uint64_t> sig(icover.num_hashes());
    icover.ComputeSignature(q, sig.data());
    const std::vector<uint64_t> q_keys = index.BandKeys(sig);
    std::vector<serve::CandidateScore> expected;
    for (uint32_t slot = 0; slot < icover.num_live(); ++slot) {
      if (icover.slots()[slot] == q) continue;
      const std::vector<uint64_t> keys = index.BandKeys(icover.signature(slot));
      bool shares = false;
      for (uint64_t key : keys) {
        for (uint64_t q_key : q_keys) shares = shares || key == q_key;
      }
      if (!shares) continue;
      expected.push_back(
          {icover.slots()[slot],
           blocking::MinHasher::EstimateJaccard(sig, icover.signature(slot)),
           false});
    }
    ASSERT_EQ(answer->candidates.size(), expected.size()) << "query " << q;
    for (const serve::CandidateScore& c : answer->candidates) {
      bool found = false;
      for (const serve::CandidateScore& e : expected) {
        if (e.ref != c.ref) continue;
        found = true;
        EXPECT_EQ(c.jaccard, e.jaccard);
      }
      EXPECT_TRUE(found) << "query " << q << " candidate " << c.ref;
    }
  }
}

TEST(MatchService, ColdQueryPreviewsIngestWithoutMutating) {
  const auto dataset = MakeSmallBib(17);
  const mln::MlnMatcher matcher(*dataset);
  std::vector<data::EntityId> refs = dataset->author_refs();
  Rng rng(2);
  rng.Shuffle(refs);
  const data::EntityId holdout = refs.back();
  refs.pop_back();
  StreamingMatcher streaming(matcher);
  MatchService service(streaming);
  ASSERT_TRUE(service.IngestBatch(refs).ok());

  const Result<QueryResult> cold = service.Lookup({holdout});
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->live);
  EXPECT_EQ(cold->epoch, refs.size());
  // A preview, not an ingest: nothing mutated.
  EXPECT_EQ(service.epoch(), refs.size());
  EXPECT_FALSE(streaming.is_live(holdout));

  ASSERT_TRUE(service.Ingest(holdout).ok());
  const Result<QueryResult> live = service.Lookup({holdout});
  ASSERT_TRUE(live.ok());
  EXPECT_TRUE(live->live);
  EXPECT_EQ(live->epoch, refs.size() + 1);
  // The LSH probe sees the same collisions (the only new document is the
  // query itself, filtered as self), so the candidate lists coincide.
  ASSERT_EQ(cold->candidates.size(), live->candidates.size());
  for (size_t i = 0; i < cold->candidates.size(); ++i) {
    EXPECT_EQ(cold->candidates[i].ref, live->candidates[i].ref);
    EXPECT_EQ(cold->candidates[i].jaccard, live->candidates[i].jaccard);
    // The cold one-shot re-score is sound: anything it declares matched,
    // the converged fixpoint declares matched too (monotonicity).
    if (cold->candidates[i].matched) {
      EXPECT_TRUE(live->candidates[i].matched)
          << "candidate " << cold->candidates[i].ref;
    }
  }
}

TEST(MatchService, RejectsInvalidQueriesAndIngests) {
  const auto dataset = MakeSmallBib(23);
  const mln::MlnMatcher matcher(*dataset);
  StreamingMatcher streaming(matcher);
  MatchService service(streaming);
  const std::vector<data::EntityId>& refs = dataset->author_refs();
  ASSERT_TRUE(service.Ingest(refs[0]).ok());

  // Out-of-range and non-author queries.
  const auto out_of_range = service.Lookup(
      {static_cast<data::EntityId>(dataset->num_entities())});
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);
  data::EntityId paper = 0;
  for (data::EntityId e = 0; e < dataset->num_entities(); ++e) {
    if (dataset->entity(e).type == data::EntityType::kPaper) {
      paper = e;
      break;
    }
  }
  EXPECT_EQ(service.Lookup({paper}).status().code(),
            StatusCode::kInvalidArgument);

  // Double ingest, duplicates inside a batch, invalid ids — all rejected
  // atomically (the live count never moves).
  EXPECT_EQ(service.Ingest(refs[0]).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.IngestBatch({refs[1], refs[1]}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.IngestBatch({refs[1], paper}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.epoch(), 1u);
  EXPECT_EQ(streaming.num_live(), 1u);
  EXPECT_FALSE(streaming.is_live(refs[1]));
}

TEST(MatchService, ConcurrentQueriesObserveOnlyPublishedEpochs) {
  // The TSAN target: readers race the ingest thread through the public
  // API. Every answered epoch must be a published chunk boundary — a
  // reader can never observe a mid-drain or mid-patch state — and epochs
  // observed by one reader never go backwards.
  const auto dataset = MakeSmallBib(29);
  const mln::MlnMatcher matcher(*dataset);
  std::vector<data::EntityId> refs = dataset->author_refs();
  Rng rng(41);
  rng.Shuffle(refs);
  StreamingMatcher streaming(matcher);
  MatchService service(streaming);
  const size_t chunk = 8;

  std::atomic<bool> done{false};
  std::atomic<size_t> failures{0};
  auto reader_body = [&](uint32_t salt) {
    uint64_t last_epoch = 0;
    size_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      // Breathe between lookups: glibc's shared_mutex prefers readers, so
      // an unthrottled 4-reader spin can starve the ingest thread's
      // exclusive sections (pathological under TSAN's slowdown).
      if (i % 16 == 15) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      const data::EntityId q = refs[(salt + i++) % refs.size()];
      const Result<QueryResult> answer = service.Lookup({q});
      if (!answer.ok()) {
        failures.fetch_add(1);
        continue;
      }
      // Published boundaries only: multiples of the chunk size, or the
      // final partial chunk's total.
      const uint64_t epoch = answer->epoch;
      if (epoch % chunk != 0 && epoch != refs.size()) failures.fetch_add(1);
      if (epoch < last_epoch) failures.fetch_add(1);
      last_epoch = epoch;
      // An answer must be internally consistent with its epoch: a live
      // query always belongs to its own (nonempty) cluster.
      if (answer->cluster.empty() ||
          !std::binary_search(answer->cluster.begin(),
                              answer->cluster.end(), q)) {
        failures.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> readers;
  for (uint32_t r = 0; r < 4; ++r) readers.emplace_back(reader_body, r * 13);
  for (size_t start = 0; start < refs.size(); start += chunk) {
    const size_t end = std::min(refs.size(), start + chunk);
    ASSERT_TRUE(
        service
            .IngestBatch({refs.begin() + start, refs.begin() + end})
            .ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(service.epoch(), refs.size());
}

TEST(MatchService, MetricsHookRunsAtQuiescentPointsDuringServedIngest) {
  // The StreamingOptions::metrics_hook contract, exercised through the
  // serving front door: the hook always observes a quiescent matcher, on
  // the ingest thread, while concurrent readers go through Lookup().
  const auto dataset = MakeSmallBib(31);
  const mln::MlnMatcher matcher(*dataset);
  std::vector<data::EntityId> refs = dataset->author_refs();
  std::atomic<size_t> hook_calls{0};
  std::atomic<bool> hook_saw_nonquiescent{false};
  const std::thread::id ingest_thread = std::this_thread::get_id();
  std::atomic<bool> hook_on_other_thread{false};
  StreamingOptions options;
  options.metrics_every_inserts = 16;
  options.metrics_hook = [&](const StreamingMatcher& m) {
    hook_calls.fetch_add(1);
    if (!m.quiescent()) hook_saw_nonquiescent.store(true);
    if (std::this_thread::get_id() != ingest_thread) {
      hook_on_other_thread.store(true);
    }
  };
  StreamingMatcher streaming(matcher, options);
  MatchService service(streaming);

  std::atomic<bool> done{false};
  std::thread reader([&] {
    size_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      if (i % 16 == 15) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      (void)service.Lookup({refs[i++ % refs.size()]});
    }
  });
  const size_t chunk = 8;
  for (size_t start = 0; start < refs.size(); start += chunk) {
    const size_t end = std::min(refs.size(), start + chunk);
    ASSERT_TRUE(
        service
            .IngestBatch({refs.begin() + start, refs.begin() + end})
            .ok());
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(hook_calls.load(), 0u);
  EXPECT_FALSE(hook_saw_nonquiescent.load());
  EXPECT_FALSE(hook_on_other_thread.load());
}

}  // namespace
}  // namespace cem
