// Google-benchmark micro-benchmarks for the performance-critical
// substrates: string similarity, max-flow MAP inference, grounding,
// canopy construction and MatchSet operations.

#include <benchmark/benchmark.h>

#include "blocking/blocking_tokens.h"
#include "blocking/lsh_cover.h"
#include "blocking/minhash.h"
#include "core/canopy.h"
#include "core/match_set.h"
#include "data/bib_generator.h"
#include "graph/max_flow.h"
#include "mln/grounding.h"
#include "mln/mln_matcher.h"
#include "text/jaro_winkler.h"
#include "text/token_index.h"
#include "util/logging.h"
#include "util/random.h"

namespace {

using namespace cem;

void BM_JaroWinkler(benchmark::State& state) {
  const std::string a = "garofalakis", b = "garofalakos";
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::JaroWinklerSimilarity(a, b));
  }
}
BENCHMARK(BM_JaroWinkler);

void BM_MaxFlowChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    graph::MaxFlow flow(n + 2);
    Rng rng(7);
    for (int i = 0; i < n; ++i) {
      flow.AddEdge(n, i, 1.0 + rng.NextDouble());      // source -> i
      flow.AddEdge(i, n + 1, 1.0 + rng.NextDouble());  // i -> sink
      if (i > 0) flow.AddEdge(i - 1, i, rng.NextDouble(), rng.NextDouble());
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(flow.Solve(n, n + 1));
  }
}
BENCHMARK(BM_MaxFlowChain)->Arg(64)->Arg(512);

void BM_PairGraphBuild(benchmark::State& state) {
  SetMinLogSeverity(LogSeverity::kWarning);
  auto dataset = data::GenerateBibDataset(data::BibConfig::DblpLike(0.3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mln::PairGraph::Build(*dataset));
  }
}
BENCHMARK(BM_PairGraphBuild);

void BM_CanopyCover(benchmark::State& state) {
  auto dataset = data::GenerateBibDataset(data::BibConfig::DblpLike(0.3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BuildCanopyCover(*dataset));
  }
}
BENCHMARK(BM_CanopyCover);

void BM_TokenIndexCandidates(benchmark::State& state) {
  SetMinLogSeverity(LogSeverity::kWarning);
  auto dataset = data::GenerateBibDataset(data::BibConfig::DblpLike(0.3));
  const auto& refs = dataset->author_refs();
  text::TokenIndex index;
  for (size_t i = 0; i < refs.size(); ++i) {
    index.AddDocument(static_cast<uint32_t>(i),
                      blocking::AuthorBlockingTokens(dataset->entity(refs[i])));
  }
  uint32_t doc = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Candidates(doc, 0.45));
    doc = (doc + 1) % static_cast<uint32_t>(index.num_documents());
  }
}
BENCHMARK(BM_TokenIndexCandidates);

void BM_MinHashSignature(benchmark::State& state) {
  const blocking::MinHasher hasher;
  const std::vector<std::string> tokens = {"gar", "aro", "rof", "ofa",
                                           "fal", "ala", "lak", "aki",
                                           "kis", "m|ga"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(hasher.Signature(tokens));
  }
}
BENCHMARK(BM_MinHashSignature);

void BM_LshCover(benchmark::State& state) {
  SetMinLogSeverity(LogSeverity::kWarning);
  auto dataset = data::GenerateBibDataset(data::BibConfig::DblpLike(0.3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(blocking::BuildLshCover(*dataset));
  }
}
BENCHMARK(BM_LshCover);

void BM_NeighborhoodInference(benchmark::State& state) {
  auto dataset = data::GenerateBibDataset(data::BibConfig::HepthLike(0.3));
  const core::Cover cover = core::BuildCanopyCover(*dataset);
  mln::MlnMatcher matcher(*dataset);
  // Pick the largest neighborhood (the paper's k).
  size_t biggest = 0;
  for (size_t i = 0; i < cover.size(); ++i) {
    if (cover.neighborhood(i).entities.size() >
        cover.neighborhood(biggest).entities.size()) {
      biggest = i;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        matcher.Match(cover.neighborhood(biggest).entities));
  }
}
BENCHMARK(BM_NeighborhoodInference);

void BM_MatchSetInsertContains(benchmark::State& state) {
  Rng rng(3);
  std::vector<data::EntityPair> pairs;
  for (int i = 0; i < 4096; ++i) {
    pairs.emplace_back(static_cast<data::EntityId>(rng.NextBounded(10000)),
                       static_cast<data::EntityId>(rng.NextBounded(10000)));
  }
  for (auto _ : state) {
    core::MatchSet set;
    for (const auto& p : pairs) set.Insert(p);
    size_t hits = 0;
    for (const auto& p : pairs) hits += set.Contains(p);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_MatchSetInsertContains);

void BM_TransitiveClosure(benchmark::State& state) {
  Rng rng(5);
  core::MatchSet set;
  for (int i = 0; i < 2000; ++i) {
    set.Insert(data::EntityPair(
        static_cast<data::EntityId>(rng.NextBounded(3000)),
        static_cast<data::EntityId>(rng.NextBounded(3000))));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::TransitiveClosure(set));
  }
}
BENCHMARK(BM_TransitiveClosure);

}  // namespace

BENCHMARK_MAIN();
