#ifndef CEM_EVAL_EXPERIMENT_H_
#define CEM_EVAL_EXPERIMENT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cover_builder.h"
#include "core/matcher.h"
#include "core/message_passing.h"
#include "data/bib_generator.h"
#include "data/dataset.h"
#include "stream/streaming_matcher.h"

namespace cem::eval {

/// Reads the CEM_BENCH_SCALE environment variable (default 1.0, clamped to
/// [0.05, 100]) — one knob scaling every benchmark workload.
double BenchScale();

/// Reads the CEM_BLOCKING environment variable ("canopy" or "lsh", default
/// canopy) — one knob switching every benchmark workload's cover builder,
/// so each figure/bench runs under either blocking strategy unchanged.
core::BlockingStrategy BenchBlocking();

/// A prepared experiment workload: corpus + cover, shared by the benches.
struct Workload {
  std::string name;  // "HEPTH-like" / "DBLP-like" / ...
  /// The strategy that built `cover`.
  core::BlockingStrategy blocking = core::BlockingStrategy::kCanopy;
  std::unique_ptr<data::Dataset> dataset;
  core::Cover cover;
};

/// Builds the HEPTH-like workload at `scale` (see data::BibConfig) with the
/// given blocking strategy; the single-argument form uses BenchBlocking().
/// Candidate generation and cover construction run on `ctx` (default: the
/// process-wide context, workers from CEM_THREADS).
Workload MakeHepthWorkload(double scale);
Workload MakeHepthWorkload(
    double scale, core::BlockingStrategy blocking,
    const ExecutionContext& ctx = ExecutionContext::Default());

/// Builds the DBLP-like workload at `scale`.
Workload MakeDblpWorkload(double scale);
Workload MakeDblpWorkload(
    double scale, core::BlockingStrategy blocking,
    const ExecutionContext& ctx = ExecutionContext::Default());

/// Decorator that makes any matcher cost what the paper's matcher costs.
///
/// Our exact graph-cut MAP solver runs in microseconds, which is faithful
/// to the *outputs* of the Alchemy-based MLN matcher but not to its *cost
/// profile*: the paper's running-time results (Figures 3(d)-(f), Table 1)
/// live in a regime where probabilistic inference is expensive and
/// super-linear in the active neighborhood size. This wrapper burns CPU
/// proportional to cost_scale * (free variables)^exponent per Match() call
/// (free variables = candidate pairs inside the entity set not already
/// decided by evidence — the paper's "active size"), restoring that regime
/// so the time benches reproduce the paper's shape on any host. Outputs are
/// delegated unchanged, so accuracy results are unaffected.
class CostModelMatcher : public core::ProbabilisticMatcher {
 public:
  /// Wraps `inner` (not owned; must outlive this). `cost_scale_us` is the
  /// per-call budget multiplier in microseconds.
  CostModelMatcher(const core::Matcher& inner, double cost_scale_us = 2.0,
                   double exponent = 1.6);

  core::MatchSet Match(const std::vector<data::EntityId>& entities,
                       const core::MatchSet& positive,
                       const core::MatchSet& negative) const override;
  using core::Matcher::Match;

  /// Conditioned re-runs (COMPUTEMAXIMAL's per-hypothesis calls) are
  /// charged `conditioned_discount` of a fresh run, modelling a solver
  /// that re-solves incrementally from retained per-neighborhood state
  /// (dynamic graph cuts).
  core::MatchSet MatchConditioned(const std::vector<data::EntityId>& entities,
                                  const core::MatchSet& positive,
                                  const core::MatchSet& negative)
      const override;

  const data::Dataset& dataset() const override { return inner_->dataset(); }

  /// Delegates to the inner matcher, which must be probabilistic.
  double Score(const core::MatchSet& matches) const override;
  double ScoreDelta(
      const core::MatchSet& current,
      const std::vector<data::EntityPair>& additions) const override;

  /// Total simulated cost charged so far, in seconds.
  double charged_seconds() const;

 private:
  size_t CountFreeVariables(const std::vector<data::EntityId>& entities,
                            const core::MatchSet& positive,
                            const core::MatchSet& negative) const;
  void Burn(size_t free_vars, double discount) const;

  // A conditioned re-solve adds one clamp to an already-solved
  // neighborhood; with retained solver state (dynamic graph cuts) that is
  // roughly one augmentation pass, i.e. a fraction of a per-mille to a few
  // per-mille of a fresh solve.
  static constexpr double kConditionedDiscount = 0.002;
  const core::Matcher* inner_;
  const core::ProbabilisticMatcher* inner_probabilistic_;  // May be null.
  double cost_scale_us_;
  double exponent_;
  mutable std::atomic<uint64_t> charged_nanos_{0};
};

/// Result of replaying a corpus through the streaming ingest subsystem.
struct StreamingReplayResult {
  /// The streamed fixpoint after the last chunk converged.
  core::MatchSet matches;
  /// Ingest + re-matching work counters (deterministic per arrival seed).
  stream::StreamingStats stats;
  size_t num_refs = 0;
  size_t num_chunks = 0;
  /// Heap footprint of the LSH bucket index after the last chunk
  /// (blocking::LshIndex::memory_bytes; depends on the shard count).
  size_t lsh_memory_bytes = 0;
};

/// The streaming workload: replays the matcher's full corpus through a
/// stream::StreamingMatcher in a seeded random arrival order, ingesting
/// chunks of `chunk_size` references (0 = one at a time) and converging
/// after each chunk. For a well-behaved matcher the returned matches equal
/// a batch rebuild's RunSmp fixpoint for ANY arrival seed, chunk size,
/// thread count and shard count — the streaming equivalence suite and
/// bench_streaming pin exactly this against a batch build.
StreamingReplayResult ReplayStreaming(
    const core::Matcher& matcher, uint64_t arrival_seed, size_t chunk_size = 0,
    const stream::StreamingOptions& options = {});

/// Convenience: runs all three schemes plus (optionally) the FULL holistic
/// run on a workload and returns per-scheme results, for the accuracy
/// benches.
struct SchemeResults {
  core::MpResult no_mp;
  core::MpResult smp;
  core::MpResult mmp;     // Only if the matcher is probabilistic.
  bool has_mmp = false;
};
SchemeResults RunAllSchemes(const core::Matcher& matcher,
                            const core::Cover& cover);

}  // namespace cem::eval

#endif  // CEM_EVAL_EXPERIMENT_H_
