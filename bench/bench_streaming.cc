// Streaming ingest: incremental cover maintenance + dirty-neighborhood
// re-matching vs the batch cover-then-match pipeline.
//
// The production story behind the paper's architecture is append-heavy:
// references arrive one at a time, and rebuilding signatures, buckets,
// cover and matches per arrival is a full pipeline run each time. The
// stream subsystem (stream::StreamingMatcher) instead updates the MinHash/
// LSH state in place, patches only the affected neighborhoods, and
// re-matches only the dirty ones — converging, for any arrival order, to
// the same match set as a batch rebuild.
//
// Three studies:
//  * equivalence — replay each corpus in several random arrival orders and
//    chunk sizes; the streamed fixpoint must equal batch RunSmp exactly.
//  * amortized work — canopies touched and pairs re-scored per insert must
//    sit far below the total neighborhood/pair counts (the sublinearity
//    claim), and per-insert touch stays flat while the corpus grows.
//  * replay cost — wall time of a full streamed replay vs one batch build
//    (streaming pays a constant factor for per-arrival convergence; the
//    win is per-insert latency vs per-insert rebuild).
//
// Top-level "counter_*" metrics in the JSON report are the CI-tracked
// work counters (see bench/bench_diff.cc).

#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.h"
#include "blocking/lsh_cover.h"
#include "core/message_passing.h"
#include "mln/mln_matcher.h"
#include "obs/metrics.h"
#include "util/execution_context.h"
#include "util/timer.h"

namespace {

using namespace cem;

}  // namespace

int main() {
  const double scale = bench::Begin(
      "bench_streaming — incremental ingest vs batch rebuild",
      "cover-then-match supports incremental maintenance: arriving "
      "references touch only their neighborhoods, and message passing "
      "re-converges to the batch fixpoint");
  bench::JsonReport report("bench_streaming");
  const ExecutionContext& ctx = ExecutionContext::Default();
  // The replays pin the LSH shard count (same worker count): each shard
  // sizes its own bucket table, so the index-footprint counter is only
  // host-independent for a fixed shard count. Nothing else depends on it.
  const ExecutionContext stream_ctx(ctx.num_threads(), /*num_shards=*/16);

  // --- equivalence: arrival orders x chunk sizes, streamed == batch.
  TableWriter equivalence(
      {"corpus", "refs", "arrival seed", "chunk", "streamed", "batch",
       "equal"});
  // --- amortized work per insert.
  TableWriter amortized({"corpus", "refs", "neighborhoods",
                         "canopies touched/insert", "evals/insert",
                         "pairs re-scored/insert", "patched pairs"});
  // --- replay cost vs one batch build.
  TableWriter cost(
      {"corpus", "stream replay (s)", "batch rebuild (s)", "ratio"});

  size_t counter_canopies_touched = 0;
  size_t counter_pairs_rescored = 0;
  size_t counter_evaluations = 0;
  size_t counter_pairs_patched = 0;
  size_t counter_lsh_candidates = 0;
  size_t counter_lsh_memory_bytes = 0;
  bool all_equal = true;

  struct Corpus {
    std::string name;
    double scale;
  };
  const std::vector<Corpus> corpora = {{"HEPTH-like", scale},
                                       {"DBLP-like", scale}};
  for (const Corpus& corpus : corpora) {
    eval::Workload w =
        corpus.name == "HEPTH-like"
            ? eval::MakeHepthWorkload(corpus.scale,
                                      core::BlockingStrategy::kLsh, ctx)
            : eval::MakeDblpWorkload(corpus.scale,
                                     core::BlockingStrategy::kLsh, ctx);
    mln::MlnMatcher matcher(*w.dataset);

    // The batch reference point, timed as a *rebuild*: cover construction
    // plus one full SMP run (what every arrival would cost without the
    // streaming layer).
    Timer batch_timer;
    const core::Cover rebuilt =
        blocking::MakeCoverBuilder(core::BlockingStrategy::kLsh)
            ->Build(*w.dataset, ctx);
    const core::MatchSet batch = core::RunSmp(matcher, rebuilt).matches;
    const double batch_seconds = batch_timer.ElapsedSeconds();

    stream::StreamingOptions options;
    options.context = &stream_ctx;

    // Equivalence sweep: 3 arrival orders, alternating chunk sizes.
    const size_t chunks[] = {16, 48, 0};  // 0 = one Add() per reference.
    double replay_seconds = 0.0;
    for (uint64_t arrival = 0; arrival < 3; ++arrival) {
      Timer replay_timer;
      const eval::StreamingReplayResult replay = eval::ReplayStreaming(
          matcher, /*arrival_seed=*/1000 + arrival, chunks[arrival], options);
      replay_seconds = replay_timer.ElapsedSeconds();
      const bool equal = replay.matches == batch;
      all_equal = all_equal && equal;
      equivalence.AddRow({corpus.name, std::to_string(replay.num_refs),
                          std::to_string(1000 + arrival),
                          std::to_string(chunks[arrival]),
                          std::to_string(replay.matches.size()),
                          std::to_string(batch.size()),
                          equal ? "yes" : "NO"});
      if (arrival == 2) {
        // The one-at-a-time replay is the amortized-work measurement: every
        // insert converges before the next arrives.
        const stream::StreamingStats& s = replay.stats;
        const double inserts = static_cast<double>(s.ingest.inserts);
        amortized.AddRow(
            {corpus.name, std::to_string(s.ingest.inserts),
             std::to_string(s.ingest.seeds_created),
             TableWriter::Num(
                 static_cast<double>(s.ingest.canopies_touched) / inserts, 2),
             TableWriter::Num(
                 static_cast<double>(s.matching.neighborhood_evaluations) /
                     inserts,
                 2),
             TableWriter::Num(
                 static_cast<double>(s.matching.pairs_rescored) / inserts, 1),
             std::to_string(s.ingest.pairs_patched)});
        cost.AddRow({corpus.name, bench::Secs(replay_seconds),
                     bench::Secs(batch_seconds),
                     TableWriter::Num(replay_seconds /
                                          std::max(batch_seconds, 1e-9),
                                      1)});
        counter_canopies_touched += s.ingest.canopies_touched;
        counter_pairs_rescored += s.matching.pairs_rescored;
        counter_evaluations += s.matching.neighborhood_evaluations;
        counter_pairs_patched += s.ingest.pairs_patched;
        counter_lsh_candidates += s.ingest.lsh_candidates_scanned;
        counter_lsh_memory_bytes += replay.lsh_memory_bytes;
      }
    }
  }

  // One measurement loop feeds all three tables, so the run's wall time is
  // attributed to the first one ("wall_ms_equivalence"); the other two are
  // derived views and legitimately record ~0.
  report.Table("equivalence", equivalence);
  std::printf(
      "Streamed fixpoint %s the batch rebuild for every arrival order "
      "and chunk size.\n\n",
      all_equal ? "EQUALS" : "DIFFERS FROM (BUG!)");
  report.Table("amortized", amortized);
  std::printf(
      "Canopies touched per insert stays bounded while the neighborhood "
      "count grows with the corpus — amortized per-insert work is "
      "sublinear in corpus size.\n\n");
  report.Table("cost", cost);
  std::printf(
      "A full streamed replay costs a constant factor over one batch "
      "build; the win is per-insert latency versus a per-insert rebuild "
      "of the whole pipeline.\n\n");

  // --- drain latency: the per-arrival serving story. The streaming layer
  // records every convergence drain (and every insert's canopies-touched
  // count) in the process metrics registry; the percentiles here are what
  // an operator of an append-heavy deployment would alert on. Latency
  // percentiles are host-dependent: informational, never gated.
  const obs::HistogramStats drain =
      obs::MetricsRegistry::Global().histogram("stream_drain_us").Stats();
  const obs::HistogramStats touched =
      obs::MetricsRegistry::Global()
          .histogram("stream_canopies_touched_per_insert")
          .Stats();
  TableWriter latency({"histogram", "count", "p50", "p95", "p99"});
  latency.AddRow({"drain latency (us)", std::to_string(drain.count),
                  TableWriter::Num(drain.p50, 1),
                  TableWriter::Num(drain.p95, 1),
                  TableWriter::Num(drain.p99, 1)});
  latency.AddRow({"canopies touched/insert", std::to_string(touched.count),
                  TableWriter::Num(touched.p50, 2),
                  TableWriter::Num(touched.p95, 2),
                  TableWriter::Num(touched.p99, 2)});
  report.Table("drain_latency", latency);
  std::printf(
      "Drain latency is the per-arrival convergence cost an online "
      "deployment pays instead of a batch rebuild.\n");

  report.Metric("all_orders_equal_batch", all_equal ? 1.0 : 0.0);
  report.Metric("counter_stream_canopies_touched",
                static_cast<double>(counter_canopies_touched));
  report.Metric("counter_stream_pairs_rescored",
                static_cast<double>(counter_pairs_rescored));
  report.Metric("counter_stream_evaluations",
                static_cast<double>(counter_evaluations));
  report.Metric("counter_stream_pairs_patched",
                static_cast<double>(counter_pairs_patched));
  report.Metric("counter_stream_lsh_candidates",
                static_cast<double>(counter_lsh_candidates));
  report.Metric("counter_stream_lsh_memory_bytes",
                static_cast<double>(counter_lsh_memory_bytes));
  report.Write();
  return all_equal ? 0 : 1;
}
