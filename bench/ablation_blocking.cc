// Ablation: blocking strategies — token-overlap canopies vs MinHash/LSH.
// The framework only requires a *total* cover (Definition 7), so the cover
// builder is a pluggable strategy; this bench quantifies the trade the LSH
// subsystem makes: banded buckets consider far fewer pairs than full
// postings-list scans while keeping candidate-pair recall, and the
// downstream matching quality is unchanged because the totality patches
// make both covers total before inference runs.
//
// "raw recall" is the fraction of candidate pairs contained in a
// neighborhood *before* the totality patches — the honest recall of each
// candidate-generation pass. "pairs considered" is how many document pairs
// the pass scored or bucketed together — its dominant cost.
//
// Three extra studies ride on the same corpora:
//  * tuning  — (bands, rows) sweep per corpus *shape* (DBLP-like full
//    names vs HEPTH-like initials/collisions): where the S-curve knee
//    belongs for each, reported as the cheapest config that keeps recall.
//  * scaling — cover-build wall time across worker threads, with the
//    determinism guarantee checked (bit-identical covers at every thread
//    and shard count).
//  * quality — end-to-end P/R/F1 per strategy (unchanged by any of this).
//
// Top-level "counter_*" metrics in the JSON report are the CI-tracked
// work counters (see bench/bench_diff.cc).

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "blocking/blocking_tokens.h"
#include "blocking/lsh_cover.h"
#include "blocking/lsh_index.h"
#include "blocking/minhash_simd.h"
#include "core/canopy.h"
#include "core/message_passing.h"
#include "mln/mln_matcher.h"
#include "text/token_index.h"
#include "util/execution_context.h"
#include "util/timer.h"

namespace {

using namespace cem;

/// Raw candidate-generation pass (totality patches off) for one strategy.
core::Cover BuildRawCover(const data::Dataset& dataset,
                          core::BlockingStrategy strategy,
                          core::BlockingStats* stats) {
  if (strategy == core::BlockingStrategy::kCanopy) {
    core::CanopyOptions options;
    options.expand_boundary = false;
    options.ensure_pair_coverage = false;
    options.stats = stats;
    return core::BuildCanopyCover(dataset, options);
  }
  blocking::LshCoverOptions options;
  options.expand_boundary = false;
  options.ensure_pair_coverage = false;
  options.stats = stats;
  return blocking::BuildLshCover(dataset, options);
}

bool SameCover(const core::Cover& a, const core::Cover& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.neighborhood(i).entities != b.neighborhood(i).entities) return false;
  }
  return true;
}

}  // namespace

int main() {
  using namespace cem;
  const double scale = bench::Begin(
      "Ablation — blocking strategies (canopy vs MinHash/LSH)",
      "neighborhood formation is pluggable: banded LSH reaches canopy-level "
      "candidate-pair recall while considering far fewer pairs, the "
      "front-end parallelises with bit-identical covers, and the totality "
      "patches keep downstream accuracy identical");
  bench::JsonReport report("ablation_blocking");

  // ---- Strategy comparison across corpus sizes (DBLP-like). -------------
  TableWriter blocking_table({"dataset", "#refs", "#pairs", "strategy",
                              "pairs considered", "raw recall", "#nbhd",
                              "mean size", "max size", "build sec"});
  size_t canopy_pairs_considered = 0;
  size_t lsh_pairs_considered = 0;
  for (double fraction : {0.25, 0.5, 1.0}) {
    auto dataset =
        data::GenerateBibDataset(data::BibConfig::DblpLike(scale * fraction));
    const std::string label =
        "DBLP-like x" + TableWriter::Num(scale * fraction, 2);

    for (const core::BlockingStrategy strategy :
         {core::BlockingStrategy::kCanopy, core::BlockingStrategy::kLsh}) {
      core::BlockingStats stats;
      const core::Cover raw = BuildRawCover(*dataset, strategy, &stats);

      // Patched (production) pass, timed end to end.
      Timer build_timer;
      const core::Cover cover =
          blocking::MakeCoverBuilder(strategy)->Build(*dataset);
      const double build_seconds = build_timer.ElapsedSeconds();

      if (fraction == 1.0) {
        (strategy == core::BlockingStrategy::kCanopy
             ? canopy_pairs_considered
             : lsh_pairs_considered) = stats.pairs_considered;
      }
      blocking_table.AddRow(
          {label, std::to_string(dataset->author_refs().size()),
           std::to_string(dataset->num_candidate_pairs()),
           core::BlockingStrategyName(strategy),
           std::to_string(stats.pairs_considered),
           TableWriter::Num(raw.CandidatePairCoverage(*dataset)),
           std::to_string(cover.size()),
           TableWriter::Num(cover.MeanNeighborhoodSize(), 1),
           std::to_string(cover.MaxNeighborhoodSize()),
           bench::Secs(build_seconds)});
    }
  }
  report.Table("blocking", blocking_table);
  report.Metric("counter_canopy_pairs_considered",
                static_cast<double>(canopy_pairs_considered));
  report.Metric("counter_lsh_pairs_considered",
                static_cast<double>(lsh_pairs_considered));

  // ---- (bands, rows) knee per corpus shape. -----------------------------
  // HEPTH-like corpora (initials, heavy last-name collisions) have much
  // higher token-set overlap between *distinct* authors than DBLP-like
  // ones, so their S-curve knee wants more rows per band. The knee we
  // report is the cheapest (bands, rows) whose raw recall stays within 2%
  // of the best config for that corpus.
  std::printf("\n(bands, rows) sweep per corpus shape:\n");
  TableWriter tuning_table({"dataset", "bands x rows", "pairs considered",
                            "raw recall", "knee"});
  struct Shape {
    const char* name;
    data::BibConfig config;
  };
  const std::vector<Shape> shapes = {
      {"DBLP-like", data::BibConfig::DblpLike(scale)},
      {"HEPTH-like", data::BibConfig::HepthLike(scale)},
  };
  const std::vector<blocking::LshParams> grids = {
      {64, 1}, {32, 2}, {21, 3}, {16, 4}};
  for (const Shape& shape : shapes) {
    const auto dataset = data::GenerateBibDataset(shape.config);
    std::vector<double> recalls;
    std::vector<size_t> considered;
    for (const blocking::LshParams& params : grids) {
      blocking::LshCoverOptions options;
      options.lsh = params;
      options.expand_boundary = false;
      options.ensure_pair_coverage = false;
      core::BlockingStats stats;
      options.stats = &stats;
      const core::Cover raw = blocking::BuildLshCover(*dataset, options);
      recalls.push_back(raw.CandidatePairCoverage(*dataset));
      considered.push_back(stats.pairs_considered);
    }
    const double best_recall = *std::max_element(recalls.begin(),
                                                 recalls.end());
    // Knee = cheapest config whose recall stays within 2% of the best.
    size_t knee = 0;
    bool have_knee = false;
    for (size_t i = 0; i < grids.size(); ++i) {
      if (recalls[i] < best_recall - 0.02) continue;
      if (!have_knee || considered[i] < considered[knee]) {
        knee = i;
        have_knee = true;
      }
    }
    for (size_t i = 0; i < grids.size(); ++i) {
      tuning_table.AddRow({shape.name,
                           std::to_string(grids[i].bands) + " x " +
                               std::to_string(grids[i].rows),
                           std::to_string(considered[i]),
                           TableWriter::Num(recalls[i]),
                           i == knee ? "<== knee" : ""});
    }
  }
  report.Table("tuning", tuning_table);

  // ---- Parallel scaling of the cover build (the tentpole headline). -----
  // Same corpus, same strategy, 1..8 worker threads: wall time falls while
  // the cover stays bit-identical (the determinism contract). Shard counts
  // are swept at the largest thread count for the same guarantee.
  std::printf("\nParallel cover build (largest DBLP-like dataset):\n");
  const auto scaling_dataset =
      data::GenerateBibDataset(data::BibConfig::DblpLike(scale));
  TableWriter scaling_table(
      {"strategy", "threads", "shards", "build sec", "speedup", "identical"});
  double lsh_speedup_8t = 0.0;
  for (const core::BlockingStrategy strategy :
       {core::BlockingStrategy::kCanopy, core::BlockingStrategy::kLsh}) {
    const auto builder = blocking::MakeCoverBuilder(strategy);
    core::Cover reference;
    double base_seconds = 0.0;
    for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
      ExecutionContext ctx(threads);
      Timer timer;
      const core::Cover cover = builder->Build(*scaling_dataset, ctx);
      const double seconds = timer.ElapsedSeconds();
      bool identical = true;
      if (threads == 1) {
        reference = cover;
        base_seconds = seconds;
      } else {
        identical = SameCover(reference, cover);
      }
      CEM_CHECK(identical) << "cover changed at " << threads << " threads";
      if (strategy == core::BlockingStrategy::kLsh && threads == 8) {
        lsh_speedup_8t = base_seconds / seconds;
      }
      scaling_table.AddRow({builder->name(), std::to_string(threads),
                            std::to_string(ctx.num_shards()),
                            bench::Secs(seconds),
                            TableWriter::Num(base_seconds / seconds, 2),
                            identical ? "yes" : "NO"});
    }
    if (strategy == core::BlockingStrategy::kLsh) {
      for (const uint32_t shards : {1u, 32u}) {
        ExecutionContext ctx(8, shards);
        Timer timer;
        const core::Cover cover = builder->Build(*scaling_dataset, ctx);
        const double seconds = timer.ElapsedSeconds();
        const bool identical = SameCover(reference, cover);
        CEM_CHECK(identical) << "cover changed at " << shards << " shards";
        scaling_table.AddRow({builder->name(), "8", std::to_string(shards),
                              bench::Secs(seconds),
                              TableWriter::Num(base_seconds / seconds, 2),
                              identical ? "yes" : "NO"});
      }
    }
  }
  report.Table("scaling", scaling_table);
  report.Metric("lsh_build_speedup_8t", lsh_speedup_8t);

  // ---- Stage scaling: the token index build, the totality patch and the
  // LSH bucket index. The token index is one serial CSR pass over the
  // corpus, timed once; PatchPairCoverage and the sharded LSH bucket index
  // run on the context pool with bit-identical output (and counters) for
  // any thread count, and the LSH index footprint is tracked as a counter.
  std::printf("\nStage scaling (largest DBLP-like dataset):\n");
  TableWriter stage_table({"stage", "threads", "sec", "speedup", "identical"});
  size_t token_index_postings = 0;
  size_t patch_pairs_patched = 0;
  size_t lsh_index_memory_bytes = 0;
  {
    // The dataset's blocking substrate build (what Dataset::Finalize runs):
    // tokenize every author ref into a flat corpus, then index it.
    const std::vector<data::EntityId>& refs = scaling_dataset->author_refs();
    text::TokenCorpus corpus = text::TokenCorpus::Build(
        refs.size(),
        [&](size_t i, text::TokenCorpus::DocBuilder& builder) {
          blocking::AppendAuthorBlockingTokens(
              scaling_dataset->entity(refs[i]), builder);
        },
        ExecutionContext::Default());
    const text::TokenIndex& reference_index =
        scaling_dataset->blocking_index();
    Timer timer;
    const text::TokenIndex index(std::move(corpus));
    const double seconds = timer.ElapsedSeconds();
    const bool identical =
        index.num_tokens() == reference_index.num_tokens() &&
        index.num_postings() == reference_index.num_postings();
    CEM_CHECK(identical) << "token index differs from the dataset substrate";
    token_index_postings = index.num_postings();
    stage_table.AddRow({"token index build", "1", bench::Secs(seconds),
                        TableWriter::Num(1.0, 2), identical ? "yes" : "NO"});

    // Patch the raw LSH cover (raw covers leave the most split pairs).
    blocking::LshCoverOptions raw_options;
    raw_options.expand_boundary = false;
    raw_options.ensure_pair_coverage = false;
    const core::Cover raw = blocking::BuildLshCover(*scaling_dataset,
                                                    raw_options);
    core::Cover patch_reference;
    double patch_base_seconds = 0.0;
    for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
      ExecutionContext ctx(threads);
      core::Cover patched = raw;
      core::PatchStats stats;
      Timer timer;
      core::PatchPairCoverage(*scaling_dataset, patched, ctx, &stats);
      const double seconds = timer.ElapsedSeconds();
      bool identical = true;
      if (threads == 1) {
        patch_reference = patched;
        patch_base_seconds = seconds;
        patch_pairs_patched = stats.pairs_patched;
      } else {
        identical = SameCover(patch_reference, patched) &&
                    stats.pairs_patched == patch_pairs_patched;
      }
      CEM_CHECK(identical) << "patched cover changed at " << threads
                           << " threads";
      stage_table.AddRow({"patch pair coverage", std::to_string(threads),
                          bench::Secs(seconds),
                          TableWriter::Num(patch_base_seconds / seconds, 2),
                          identical ? "yes" : "NO"});
    }

    // The LSH cover's bucket index, built alone over the same corpus with
    // the cover builder's MinHash/banding parameters. The shard count is
    // pinned so the footprint counter is host-independent (each shard
    // sizes its own bucket table).
    const blocking::LshCoverOptions lsh_options;
    const blocking::MinHasher hasher(lsh_options.minhash);
    blocking::SignatureMatrix signatures(refs.size(), hasher.num_hashes());
    for (size_t i = 0; i < refs.size(); ++i) {
      blocking::simd::MinHashSignatureRefs(
          scaling_dataset->BlockingTokens(refs[i]), hasher.salts(),
          signatures.row(i), blocking::ActiveSimdLevel());
    }
    constexpr uint32_t kIndexShards = 32;
    size_t lsh_reference_buckets = 0;
    double lsh_base_seconds = 0.0;
    for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
      ExecutionContext ctx(threads, kIndexShards);
      Timer timer;
      blocking::LshIndex index(lsh_options.lsh, hasher.num_hashes(),
                               kIndexShards);
      index.AddDocuments(signatures, ctx);
      const double seconds = timer.ElapsedSeconds();
      bool identical = true;
      if (threads == 1) {
        lsh_base_seconds = seconds;
        lsh_reference_buckets = index.num_buckets();
        lsh_index_memory_bytes = index.memory_bytes();
      } else {
        identical = index.num_buckets() == lsh_reference_buckets &&
                    index.memory_bytes() == lsh_index_memory_bytes;
      }
      CEM_CHECK(identical) << "LSH index changed at " << threads
                           << " threads";
      stage_table.AddRow({"LSH bucket index build", std::to_string(threads),
                          bench::Secs(seconds),
                          TableWriter::Num(lsh_base_seconds / seconds, 2),
                          identical ? "yes" : "NO"});
    }
  }
  report.Table("stage_scaling", stage_table);
  report.Metric("counter_token_index_postings",
                static_cast<double>(token_index_postings));
  report.Metric("counter_lsh_index_memory_bytes",
                static_cast<double>(lsh_index_memory_bytes));
  report.Metric("counter_patch_pairs_patched",
                static_cast<double>(patch_pairs_patched));

  // ---- End-to-end quality on the largest dataset. -----------------------
  // The cover feeds the same SMP/MMP machinery under either strategy, and
  // because both covers are total the schemes' soundness carries over — F1
  // must agree to noise (and is thread-count-independent because the
  // covers are).
  std::printf("\nEnd-to-end (largest dataset, MLN matcher):\n");
  TableWriter quality_table({"strategy", "scheme", "P", "R", "F1"});
  for (const core::BlockingStrategy strategy :
       {core::BlockingStrategy::kCanopy, core::BlockingStrategy::kLsh}) {
    eval::Workload w = eval::MakeDblpWorkload(scale, strategy);
    mln::MlnMatcher matcher(*w.dataset);
    const core::MpResult smp = core::RunSmp(matcher, w.cover);
    const core::MpResult mmp = core::RunMmp(matcher, w.cover);
    auto add = [&](const char* scheme, const core::MatchSet& matches) {
      const eval::PrMetrics m = eval::ComputePr(*w.dataset, matches);
      quality_table.AddRow({core::BlockingStrategyName(strategy), scheme,
                            TableWriter::Num(m.precision),
                            TableWriter::Num(m.recall),
                            TableWriter::Num(m.f1)});
    };
    add("SMP", smp.matches);
    add("MMP", mmp.matches);
  }
  report.Table("quality", quality_table);
  report.Write();
  return 0;
}
