#include "serve/match_service.h"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <utility>

#include "blocking/minhash.h"
#include "core/match_set.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace cem::serve {
namespace {

/// Validates that `ref` names an author reference of `dataset`.
Status ValidateRef(const data::Dataset& dataset, data::EntityId ref) {
  if (ref >= dataset.num_entities()) {
    return InvalidArgumentError("reference id out of range");
  }
  if (dataset.entity(ref).type != data::EntityType::kAuthorRef) {
    return InvalidArgumentError("only author references are queryable");
  }
  return OkStatus();
}

}  // namespace

MatchService::MatchService(stream::StreamingMatcher& matcher,
                           const ServeOptions& options)
    : matcher_(matcher),
      options_(options),
      slow_log_(options.slow_query_log_size, options.slow_query_us) {
  epoch_.store(matcher.num_live(), std::memory_order_release);
}

Status MatchService::Ingest(data::EntityId ref) {
  return IngestBatch({ref});
}

Status MatchService::IngestBatch(const std::vector<data::EntityId>& refs) {
  static obs::Counter& chunks =
      obs::MetricsRegistry::Global().counter("serve_ingest_chunks");
  static obs::Gauge& epoch_gauge =
      obs::MetricsRegistry::Global().gauge("serve_epoch");
  // Announce the pending exclusive acquisition so new readers stand
  // aside; without this, glibc's reader-preferenced rwlock lets a steady
  // lookup stream starve ingest indefinitely.
  ingest_waiting_.fetch_add(1, std::memory_order_release);
  std::unique_lock lock(mu_);
  ingest_waiting_.fetch_sub(1, std::memory_order_release);
  // Validation happens under the lock: "already live" is only meaningful
  // against the state this very section will extend.
  std::unordered_set<data::EntityId> in_batch;
  for (data::EntityId ref : refs) {
    CEM_RETURN_IF_ERROR(ValidateRef(matcher_.dataset(), ref));
    if (matcher_.is_live(ref)) {
      return FailedPreconditionError("reference is already live");
    }
    if (!in_batch.insert(ref).second) {
      return InvalidArgumentError("duplicate reference in ingest batch");
    }
  }
  matcher_.AddBatch(refs);
  // Publish: everything AddBatch built is complete and quiescent; readers
  // acquiring the shared lock from here on answer at the new epoch.
  epoch_.store(matcher_.num_live(), std::memory_order_release);
  chunks.Add(1);
  epoch_gauge.Set(static_cast<double>(matcher_.num_live()));
  return OkStatus();
}

Result<QueryResult> MatchService::Lookup(const Query& query) const {
  static obs::Counter& queries =
      obs::MetricsRegistry::Global().counter("serve_queries");
  static obs::Histogram& latency =
      obs::MetricsRegistry::Global().histogram("serve_query_us");
  obs::QueryTrace trace;
  trace.query_id = obs::NextQueryId();
  trace.ref = query.ref;
  trace.start_ns = obs::TraceNowNs();
  if (Status status = ValidateRef(matcher_.dataset(), query.ref);
      !status.ok()) {
    static obs::Counter& errors =
        obs::MetricsRegistry::Global().counter("serve_query_errors");
    trace.error = true;
    trace.total_us = trace.SinceStartUs();
    errors.Add(1);
    // Rejected lookups feed the window as errors (the live error rate),
    // but never the latency histogram or the slow-query log — those
    // describe served answers.
    window_.Record(trace.total_us, /*error=*/true);
    return status;
  }
  // Ingest priority: let a pending exclusive section acquire first (the
  // blocked time still counts toward this lookup's latency).
  while (ingest_waiting_.load(std::memory_order_acquire) > 0) {
    std::this_thread::yield();
  }
  std::shared_lock lock(mu_);
  // Validation, the ingest-priority spin and lock acquisition end here.
  trace.wait_us = trace.SinceStartUs();
  // The epoch contract: a reader holding the shared lock sees a quiescent
  // matcher — every mutation (and its drain) completed before the epoch
  // was published and the exclusive lock released.
  CEM_DCHECK(matcher_.quiescent());
  QueryResult result = LookupLocked(query, &trace);
  lock.unlock();
  trace.total_us = trace.SinceStartUs();
  result.latency_us = static_cast<uint64_t>(trace.total_us);
  latency.Record(trace.total_us);
  queries.Add(1);
  window_.Record(trace.total_us, /*error=*/false);
  slow_log_.Offer(trace);
  result.trace = trace;
  return result;
}

void MatchService::PublishWindowGauges() const {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  char name[64];
  for (const uint64_t window_s : {1ull, 10ull, 60ull}) {
    const obs::WindowStats stats = window_.Over(window_s);
    const std::pair<const char*, double> values[] = {
        {"qps", stats.qps},       {"error_rate", stats.error_rate},
        {"p50_us", stats.p50},    {"p95_us", stats.p95},
        {"p99_us", stats.p99}};
    for (const auto& [suffix, value] : values) {
      std::snprintf(name, sizeof(name), "serve_window%llus_%s",
                    static_cast<unsigned long long>(window_s), suffix);
      registry.gauge(name).Set(value);
    }
  }
  registry.gauge("serve_slow_queries")
      .Set(static_cast<double>(slow_log_.slow_count()));
}

QueryResult MatchService::LookupLocked(const Query& query,
                                       obs::QueryTrace* trace) const {
  static obs::Counter& scanned =
      obs::MetricsRegistry::Global().counter("serve_candidates_scanned");
  static obs::Counter& rescores =
      obs::MetricsRegistry::Global().counter("serve_matcher_rescores");
  const data::Dataset& dataset = matcher_.dataset();
  const stream::IncrementalCover& icover = matcher_.incremental_cover();
  const core::MatchSet& matches = matcher_.matches();

  QueryResult result;
  result.ref = query.ref;
  result.epoch = matcher_.num_live();
  const uint32_t self_slot = icover.SlotOf(query.ref);
  result.live = self_slot != stream::IncrementalCover::kNoSeed;
  // Stage stamps are cumulative offsets from the query's start, read in
  // stage order from one steady clock — monotone by construction.
  trace->epoch = result.epoch;
  trace->live = result.live;

  // The query's MinHash signature: the stored one for live references
  // (bit-identical to recomputation, and cheaper); for cold ones, signed
  // from the reference's span of the dataset's blocking substrate — the
  // only per-query MinHash work.
  const std::vector<uint64_t>& signature =
      result.live ? icover.signatures()[self_slot]
                  : icover.ComputeSignature(query.ref);
  trace->signature_us = trace->SinceStartUs();

  // LSH probe: slots sharing at least one band bucket, self filtered.
  const std::vector<uint32_t> slots =
      icover.lsh_index().CandidatesOfSignature(signature);
  result.candidates.reserve(slots.size());
  for (uint32_t slot : slots) {
    if (slot == self_slot) continue;
    CandidateScore c;
    c.ref = icover.slots()[slot];
    c.jaccard = blocking::MinHasher::EstimateJaccard(
        signature, icover.signatures()[slot]);
    result.candidates.push_back(c);
  }
  scanned.Add(result.candidates.size());
  trace->shards_probed = icover.lsh_index().num_shards();
  trace->candidates_probed = result.candidates.size();
  trace->probe_us = trace->SinceStartUs();

  // Ranked answer: best similarity first, ids break ties — deterministic
  // for any arrival order of the candidates themselves.
  std::sort(result.candidates.begin(), result.candidates.end(),
            [](const CandidateScore& a, const CandidateScore& b) {
              if (a.jaccard != b.jaccard) return a.jaccard > b.jaccard;
              return a.ref < b.ref;
            });
  const size_t cap =
      query.max_candidates > 0 ? query.max_candidates : options_.max_candidates;
  if (cap > 0 && result.candidates.size() > cap) {
    result.candidates.resize(cap);
  }
  trace->candidates_returned = result.candidates.size();
  trace->rank_us = trace->SinceStartUs();

  if (result.live) {
    // Live query: the published fixpoint already holds its matches.
    for (CandidateScore& c : result.candidates) {
      c.matched = matches.Contains(data::EntityPair(query.ref, c.ref));
    }
    result.cluster = core::ClusterOf(dataset, matches, query.ref);
  } else if (options_.score_cold_queries && !result.candidates.empty()) {
    // Cold query: one conditioned matcher call over the query plus its
    // candidates' full neighborhoods — the same relational context an
    // ingest of this reference would evaluate with, minus the mutation.
    std::vector<data::EntityId> entities = {query.ref};
    for (const CandidateScore& c : result.candidates) {
      for (uint32_t n : icover.HomesOf(c.ref)) {
        const std::vector<data::EntityId>& members =
            icover.cover().neighborhood(n).entities;
        entities.insert(entities.end(), members.begin(), members.end());
      }
    }
    std::sort(entities.begin(), entities.end());
    entities.erase(std::unique(entities.begin(), entities.end()),
                   entities.end());
    const core::MatchSet local =
        matcher_.core_matcher().Match(entities, matches);
    rescores.Add(1);
    for (CandidateScore& c : result.candidates) {
      c.matched = local.Contains(data::EntityPair(query.ref, c.ref));
    }
    // The cold reference joins the cluster of its best matched candidate
    // (the candidates are already ranked, so the first matched one wins).
    for (const CandidateScore& c : result.candidates) {
      if (!c.matched) continue;
      result.cluster = core::ClusterOf(dataset, matches, c.ref);
      result.cluster.insert(
          std::lower_bound(result.cluster.begin(), result.cluster.end(),
                           query.ref),
          query.ref);
      break;
    }
  }
  if (result.cluster.empty()) result.cluster = {query.ref};
  trace->cluster_size = result.cluster.size();
  trace->cover_us = trace->SinceStartUs();

  for (const CandidateScore& c : result.candidates) {
    if (c.matched) result.confidence = std::max(result.confidence, c.jaccard);
  }
  return result;
}

}  // namespace cem::serve
