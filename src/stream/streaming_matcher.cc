#include "stream/streaming_matcher.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace cem::stream {
namespace {

const ExecutionContext& Resolve(const StreamingOptions& options) {
  return options.context != nullptr ? *options.context
                                    : ExecutionContext::Default();
}

/// Bucket bounds of the per-insert canopies-touched histogram: counts, not
/// durations — the amortized-work claim says these stay single-digit while
/// the cover grows, so the interesting resolution is at the low end.
std::vector<double> CanopiesTouchedBounds() {
  return {0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128};
}

}  // namespace

StreamingMatcher::StreamingMatcher(const core::Matcher& matcher,
                                   const StreamingOptions& options)
    : matcher_(matcher),
      options_(options),
      icover_(matcher.dataset(), options.cover, Resolve(options)),
      engine_(matcher, icover_.cover(), icover_.full_membership(),
              core::MessageMode::kNone) {}

void StreamingMatcher::Add(data::EntityId ref) { AddBatch({ref}); }

void StreamingMatcher::AddBatch(const std::vector<data::EntityId>& refs) {
  // Parallel phase: the whole chunk signed into the rows of one matrix
  // (references are independent, so the result does not depend on the
  // thread count).
  const ExecutionContext& ctx = Resolve(options_);
  blocking::SignatureMatrix signatures(refs.size(), icover_.num_hashes());
  ParallelFor(ctx.pool(), refs.size(), [&](size_t i) {
    icover_.ComputeSignature(refs[i], signatures.row(i));
  });
  // Serial phase: index/cover updates replay in `refs` order, so the
  // result is bit-identical to one-at-a-time ingest of the same order.
  for (size_t i = 0; i < refs.size(); ++i) {
    const std::vector<uint32_t> dirty =
        icover_.Insert(refs[i], signatures.row_span(i));
    for (uint32_t n : dirty) engine_.Activate(n);
    RecordInsert(dirty.size());
  }
  Drain();
  MaybePublishMetrics();
}

void StreamingMatcher::RecordInsert(size_t canopies_touched) {
  static obs::Counter& inserts =
      obs::MetricsRegistry::Global().counter("stream_inserts");
  static obs::Histogram& touched = obs::MetricsRegistry::Global().histogram(
      "stream_canopies_touched_per_insert", CanopiesTouchedBounds());
  inserts.Add(1);
  touched.Record(static_cast<double>(canopies_touched));
}

void StreamingMatcher::MaybePublishMetrics() {
  // The StreamingOptions::metrics_hook contract: publication (and the
  // hook) only ever run at a quiescent point — the drain has finished, so
  // the hook may read matches()/cover()/stats() unsynchronised.
  CEM_DCHECK(quiescent());
  const size_t every = options_.metrics_every_inserts;
  if (every == 0 || num_live() < metrics_published_at_ + every) return;
  metrics_published_at_ = num_live();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.gauge("stream_live_refs").Set(static_cast<double>(num_live()));
  registry.gauge("stream_neighborhoods")
      .Set(static_cast<double>(icover_.cover().size()));
  registry.gauge("stream_matches").Set(static_cast<double>(matches().size()));
  registry.gauge("stream_max_neighborhood")
      .Set(static_cast<double>(cover().MaxNeighborhoodSize()));
  if (options_.metrics_hook) options_.metrics_hook(*this);
}

Status StreamingMatcher::RestoreState(StreamingMatcherState state) {
  if (num_live() != 0 || !matches().empty() || !quiescent() ||
      matching_stats_.matcher_calls != 0) {
    return FailedPreconditionError(
        "RestoreState needs a freshly constructed StreamingMatcher");
  }
  CEM_RETURN_IF_ERROR(
      icover_.RestoreState(std::move(state.cover), Resolve(options_)));
  core::MatchSet restored;
  for (uint64_t key : state.match_keys) {
    const data::EntityPair pair = data::PairFromKey(key);
    if (pair.a >= pair.b || pair.b >= dataset().num_entities() ||
        !restored.Insert(pair)) {
      return InvalidArgumentError(
          "match keys must be normalised, unique dataset pairs");
    }
  }
  engine_.Absorb(restored, {});
  matching_stats_ = state.matching;
  return OkStatus();
}

size_t StreamingMatcher::PairsInside(uint32_t n) {
  const data::Dataset& dataset = matcher_.dataset();
  const std::vector<data::EntityId>& entities =
      icover_.cover().neighborhood(n).entities;
  members_.Reset(dataset.num_entities());
  for (data::EntityId e : entities) members_.Insert(e);
  size_t inside = 0;
  for (data::EntityId e : entities) {
    for (data::PairId id : dataset.PairsOfEntity(e)) {
      const data::EntityPair& p = dataset.candidate_pair(id).pair;
      if (p.a == e && members_.Contains(p.b)) ++inside;
    }
  }
  return inside;
}

void StreamingMatcher::Drain() {
  // Always-on drain-latency histogram (the pre-serve p50/p99 story) plus a
  // flame-chart span when tracing is enabled.
  static obs::Histogram& drain_hist =
      obs::MetricsRegistry::Global().histogram("stream_drain_us");
  CEM_TRACE_TIMED("stream/drain", &drain_hist);
  size_t rescored = 0;
  const core::MpWork work =
      engine_.Drain(options_.max_evaluations,
                    [&](uint32_t n) { rescored += PairsInside(n); });
  matching_stats_.neighborhood_evaluations += work.neighborhood_evaluations;
  matching_stats_.matcher_calls += work.matcher_calls;
  matching_stats_.pairs_rescored += rescored;
  // One registry bump per drain with the serial deltas — deterministic for
  // a fixed arrival order, like the MatchingStats they mirror.
  static obs::Counter& evals_counter =
      obs::MetricsRegistry::Global().counter("stream_drain_evaluations");
  static obs::Counter& rescored_counter =
      obs::MetricsRegistry::Global().counter("stream_drain_pairs_rescored");
  evals_counter.Add(work.neighborhood_evaluations);
  rescored_counter.Add(rescored);
  // Release-published last: a watchdog observing the new value knows this
  // drain's state updates happened before it.
  drains_completed_.fetch_add(1, std::memory_order_release);
}

void StreamingMatcher::set_pending_hint(size_t pending) {
  pending_hint_.store(pending, std::memory_order_release);
  obs::MetricsRegistry::Global()
      .gauge("stream_ingest_queue_depth")
      .Set(static_cast<double>(pending));
}

}  // namespace cem::stream
