#include "core/canopy.h"

#include <vector>

#include "core/cover_assembly.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace cem::core {

Cover BuildCanopyCover(const data::Dataset& dataset,
                       const CanopyOptions& options) {
  CEM_CHECK(options.tight >= options.loose)
      << "tight threshold must be at least the loose threshold";
  const std::vector<data::EntityId>& refs = dataset.author_refs();
  const ExecutionContext& ctx =
      options.context != nullptr ? *options.context
                                 : ExecutionContext::Default();

  // Cheap distance: the dataset's blocking substrate (trigram postings
  // over author refs, doc id = position), shared with candidate pairs.
  const text::TokenIndex& index = dataset.blocking_index();

  // Canopies: random seed order; loose joins, tight removes from seed pool.
  // The postings scans run in parallel batches; the seed loop replays
  // serially, so the cover matches the single-threaded algorithm exactly.
  const auto candidate_fn = [&](uint32_t doc, size_t* num_scored) {
    std::vector<AssemblyCandidate> out;
    for (const auto& neighbor :
         index.Candidates(doc, options.loose, num_scored)) {
      out.push_back({neighbor.doc_id, neighbor.score});
    }
    return out;
  };
  size_t pairs_scored = 0;
  Cover cover;
  {
    CEM_TRACE("blocking/assemble_canopies");
    cover = AssembleCanopies(refs, options.seed.value_or(ctx.seed()),
                             options.tight, candidate_fn, ctx, &pairs_scored);
  }
  if (options.stats != nullptr) options.stats->pairs_considered = pairs_scored;
  static obs::Counter& pairs_counter = obs::MetricsRegistry::Global().counter(
      "blocking_canopy_pairs_considered");
  static obs::Counter& covers_counter =
      obs::MetricsRegistry::Global().counter("blocking_covers_built");
  pairs_counter.Add(pairs_scored);
  covers_counter.Add(1);

  // Patch: make the cover total over Similar — every candidate pair inside
  // some neighborhood.
  if (options.ensure_pair_coverage) PatchPairCoverage(dataset, cover, ctx);

  // Boundary expansion: make the cover total w.r.t. Coauthor.
  if (options.expand_boundary) ExpandCoauthorBoundary(dataset, cover, ctx);

  return cover;
}

}  // namespace cem::core
