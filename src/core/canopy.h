#ifndef CEM_CORE_CANOPY_H_
#define CEM_CORE_CANOPY_H_

#include <cstdint>
#include <optional>

#include "core/cover.h"
#include "data/dataset.h"

namespace cem::core {

/// Options of the cover-construction pipeline (Section 4): Canopies over
/// the Similar relation [McCallum et al. 13], patched to be total over
/// Similar, then boundary-expanded to be total over Coauthor.
struct CanopyOptions {
  /// Loose threshold: cheap-similarity score at which an entity joins a
  /// canopy. Smaller -> bigger canopies.
  double loose = 0.45;
  /// Tight threshold (>= loose): score at which an entity is removed from
  /// the seed pool. Larger -> more (overlapping) canopies.
  double tight = 0.75;
  /// Expand each neighborhood with the coauthors of its members, making the
  /// cover total w.r.t. Coauthor (Definition 7). The ablation bench turns
  /// this off to show the recall cost of a non-total cover.
  bool expand_boundary = true;
  /// Guarantee every candidate pair is inside some neighborhood (total
  /// w.r.t. Similar), patching any pair the canopy pass split.
  bool ensure_pair_coverage = true;
  /// Seed for the canopy seed-selection order; unset = the execution
  /// context's seed (ExecutionContext::kDefaultSeed by default, so
  /// defaults are stable across contexts).
  std::optional<uint64_t> seed;
  /// Optional out-param: filled with candidate-generation work counters.
  BlockingStats* stats = nullptr;
  /// Execution context of the parallel phases (postings scans, boundary
  /// expansion); null = ExecutionContext::Default(). The cover is
  /// bit-identical for any thread count.
  const ExecutionContext* context = nullptr;
};

/// Builds a cover of the dataset's author references with the Canopies
/// algorithm + totality patches. The cheap distance is trigram-token
/// overlap on last names, read from the dataset's blocking substrate (the
/// index the candidate-pair pass scans), so candidate pairs and canopies
/// agree.
Cover BuildCanopyCover(const data::Dataset& dataset,
                       const CanopyOptions& options = {});

}  // namespace cem::core

#endif  // CEM_CORE_CANOPY_H_
