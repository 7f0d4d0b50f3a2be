#include "blocking/lsh_cover.h"

#include <vector>

#include "blocking/minhash_simd.h"
#include "core/cover_assembly.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace cem::blocking {

core::Cover BuildLshCover(const data::Dataset& dataset,
                          const LshCoverOptions& options) {
  CEM_CHECK(options.tight >= options.loose)
      << "tight threshold must be at least the loose threshold";
  const std::vector<data::EntityId>& refs = dataset.author_refs();
  const ExecutionContext& ctx =
      options.context != nullptr ? *options.context
                                 : ExecutionContext::Default();

  // Signatures of the dataset's blocking substrate (doc id = position in
  // author_refs) into one row-major matrix — the batched SIMD hot path —
  // then the sharded banded index, all phases parallel on ctx. Each stage
  // runs under a trace span so `dedup_tool --trace-json` shows the build
  // as a flame chart.
  const MinHasher hasher(options.minhash);
  SignatureMatrix signatures;
  {
    CEM_TRACE("blocking/minhash");
    signatures =
        ComputeSignatures(hasher, dataset.blocking_index().corpus(), ctx);
  }
  LshIndex index(options.lsh, hasher.num_hashes(), ctx.num_shards());
  {
    CEM_TRACE("blocking/lsh_build");
    index.AddDocuments(signatures, ctx);
  }
  static obs::Counter& signatures_counter =
      obs::MetricsRegistry::Global().counter("blocking_minhash_signatures");
  signatures_counter.Add(refs.size());

  // Canopy-style assembly over LSH candidates: random seed order; banding
  // plays the loose filter, estimated Jaccard plays the tight rule. The
  // candidate expansions run in parallel batches; the seed loop replays
  // serially, so the cover matches the single-threaded algorithm exactly.
  const auto candidate_fn = [&](uint32_t doc, size_t* num_scored) {
    const std::vector<uint32_t> candidates = index.Candidates(doc);
    *num_scored = candidates.size();
    std::vector<core::AssemblyCandidate> out;
    for (uint32_t other : candidates) {
      const double estimate = MinHasher::EstimateJaccard(
          signatures.row(doc), signatures.row(other), hasher.num_hashes());
      if (estimate >= options.loose) out.push_back({other, estimate});
    }
    return out;
  };
  size_t pairs_considered = 0;
  core::Cover cover;
  {
    CEM_TRACE("blocking/assemble_canopies");
    cover = core::AssembleCanopies(refs, options.seed.value_or(ctx.seed()),
                                   options.tight, candidate_fn, ctx,
                                   &pairs_considered);
  }
  if (options.stats != nullptr) {
    options.stats->pairs_considered = pairs_considered;
  }
  // Serial point, deterministic totals: safe to export as gated counter_*.
  static obs::Counter& pairs_counter =
      obs::MetricsRegistry::Global().counter("blocking_lsh_pairs_considered");
  static obs::Counter& covers_counter =
      obs::MetricsRegistry::Global().counter("blocking_covers_built");
  pairs_counter.Add(pairs_considered);
  covers_counter.Add(1);

  if (options.ensure_pair_coverage) {
    core::PatchPairCoverage(dataset, cover, ctx);
  }
  if (options.expand_boundary) {
    core::ExpandCoauthorBoundary(dataset, cover, ctx);
  }

  return cover;
}

core::Cover LshCoverBuilder::Build(const data::Dataset& dataset,
                                   const ExecutionContext& ctx,
                                   core::BlockingStats* stats) const {
  LshCoverOptions options = options_;
  options.stats = stats;
  options.context = &ctx;
  return BuildLshCover(dataset, options);
}

std::unique_ptr<core::CoverBuilder> MakeCoverBuilder(
    core::BlockingStrategy strategy) {
  switch (strategy) {
    case core::BlockingStrategy::kCanopy:
      return std::make_unique<core::CanopyCoverBuilder>();
    case core::BlockingStrategy::kLsh:
      return std::make_unique<LshCoverBuilder>();
  }
  CEM_CHECK(false) << "unknown blocking strategy";
  return nullptr;
}

}  // namespace cem::blocking
