#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "blocking/lsh_cover.h"
#include "core/cover_builder.h"
#include "core/match_set.h"
#include "core/message_passing.h"
#include "data/bib_generator.h"
#include "data/tsv_io.h"
#include "eval/metrics.h"
#include "instrument.h"
#include "mln/mln_matcher.h"
#include "serve/match_service.h"
#include "stream/streaming_matcher.h"
#include "util/execution_context.h"
#include "util/random.h"

namespace cem::perfbench {

namespace {

// --- workload shapes ---------------------------------------------------------

constexpr int kSetupSamples = 3;
constexpr double kSmpScale = 8.0;     // DBLP-like, ~14k refs.
constexpr double kStreamScale = 4.0;  // DBLP-like, ~7k refs.
constexpr size_t kChunk = 64;
// Open-loop lookup rate: 2,000/s.
constexpr int64_t kIntervalNs = 500'000;
// Lookups in the read-only phase after each ingest (0.5 s).
constexpr size_t kReads = 1'000;
// The generator sleeps until this long before a due time, then spins.
constexpr int64_t kSpinNs = 200'000;

const char* const kWorkloads[] = {"batch_smp", "stream_serve"};

// --- small statistics ----------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// --- what every workload reports -----------------------------------------------

/// End-to-end figures, named the same on every workload (README, "Metrics").
struct EndToEnd {
  double setup_s = 0;
  double refs_per_s = 0;
  double answer_p50_ms = 0;
  double answer_p99_ms = 0;
  double f1 = 0;
};

void AddEndToEnd(const EndToEnd& e, Report& report) {
  report.Add("setup_s", e.setup_s, "s");
  report.Add("refs_per_s", e.refs_per_s, "1/s");
  report.Add("answer_p50_ms", e.answer_p50_ms, "ms");
  report.Add("answer_p99_ms", e.answer_p99_ms, "ms");
  report.Add("f1", e.f1, "ratio");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
}

/// Per-layer figures of a traced run; layers a workload does not exercise
/// stay 0.
struct Layers {
  double data_load_ms = 0, data_candidates_ms = 0, data_candidate_pairs = 0;
  double blocking_cover_ms = 0, blocking_pairs_considered = 0,
         blocking_neighborhoods = 0, blocking_nbhd_mean_size = 0,
         blocking_nbhd_max_size = 0;
  double mln_build_ms = 0;
  double core_mp_ms = 0, core_driver_self_ms = 0, core_evaluations = 0,
         core_matcher_calls_reported = 0,
         core_closure_ms = 0;
  double mln_match_calls = 0, mln_match_ms = 0, mln_match_p99_us = 0,
         mln_calls_exact = 0, mln_useful_call_ratio = 0;
  double eval_pr_ms = 0;
  double stream_chunk_ms_p50 = 0, stream_chunk_ms_p99 = 0,
         stream_canopies_touched_per_insert = 0,
         stream_pairs_rescored_per_insert = 0, stream_evals_per_insert = 0,
         stream_lsh_candidates_scanned = 0;
  double serve_lookup_call_us_p50 = 0, serve_lookup_call_us_p99 = 0,
         serve_lookup_queue_us_p99 = 0, serve_quiet_p50_us = 0,
         serve_lookups_per_chunk = 0,
         serve_cold_share = 0, serve_candidates_per_lookup = 0,
         serve_signature_us = 0, serve_probe_us = 0, serve_rank_us = 0,
         serve_cover_us = 0;
  double bench_gen_lag_p99_us = 0, bench_trace_overhead = 0,
         bench_span_coverage = 0;
};

void AddLayers(const Layers& l, Report& r) {
  r.Add("data.load_ms", l.data_load_ms, "ms");
  r.Add("data.candidates_ms", l.data_candidates_ms, "ms");
  r.Add("data.candidate_pairs", l.data_candidate_pairs, "count");
  r.Add("blocking.cover_ms", l.blocking_cover_ms, "ms");
  r.Add("blocking.pairs_considered", l.blocking_pairs_considered, "count");
  r.Add("blocking.neighborhoods", l.blocking_neighborhoods, "count");
  r.Add("blocking.nbhd_mean_size", l.blocking_nbhd_mean_size, "count");
  r.Add("blocking.nbhd_max_size", l.blocking_nbhd_max_size, "count");
  r.Add("mln.build_ms", l.mln_build_ms, "ms");
  r.Add("core.mp_ms", l.core_mp_ms, "ms");
  r.Add("core.driver_self_ms", l.core_driver_self_ms, "ms");
  r.Add("core.evaluations", l.core_evaluations, "count");
  r.Add("core.matcher_calls_reported", l.core_matcher_calls_reported, "count");
  r.Add("core.closure_ms", l.core_closure_ms, "ms");
  r.Add("mln.match_calls", l.mln_match_calls, "count");
  r.Add("mln.match_ms", l.mln_match_ms, "ms");
  r.Add("mln.match_p99_us", l.mln_match_p99_us, "us");
  r.Add("mln.calls_exact", l.mln_calls_exact, "count");
  r.Add("mln.useful_call_ratio", l.mln_useful_call_ratio, "ratio");
  r.Add("eval.pr_ms", l.eval_pr_ms, "ms");
  r.Add("stream.chunk_ms_p50", l.stream_chunk_ms_p50, "ms");
  r.Add("stream.chunk_ms_p99", l.stream_chunk_ms_p99, "ms");
  r.Add("stream.canopies_touched_per_insert",
        l.stream_canopies_touched_per_insert, "count");
  r.Add("stream.pairs_rescored_per_insert",
        l.stream_pairs_rescored_per_insert, "count");
  r.Add("stream.evals_per_insert", l.stream_evals_per_insert, "count");
  r.Add("stream.lsh_candidates_scanned", l.stream_lsh_candidates_scanned,
        "count");
  r.Add("serve.lookup_call_us_p50", l.serve_lookup_call_us_p50, "us");
  r.Add("serve.lookup_call_us_p99", l.serve_lookup_call_us_p99, "us");
  r.Add("serve.lookup_queue_us_p99", l.serve_lookup_queue_us_p99, "us");
  r.Add("serve.quiet_p50_us", l.serve_quiet_p50_us, "us");
  r.Add("serve.lookups_per_chunk", l.serve_lookups_per_chunk, "count");
  r.Add("serve.cold_share", l.serve_cold_share, "ratio");
  r.Add("serve.candidates_per_lookup", l.serve_candidates_per_lookup,
        "count");
  r.Add("serve.signature_us", l.serve_signature_us, "us");
  r.Add("serve.probe_us", l.serve_probe_us, "us");
  r.Add("serve.rank_us", l.serve_rank_us, "us");
  r.Add("serve.cover_us", l.serve_cover_us, "us");
  r.Add("bench.gen_lag_p99_us", l.bench_gen_lag_p99_us, "us");
  r.Add("bench.trace_overhead", l.bench_trace_overhead, "ratio");
  r.Add("bench.span_coverage", l.bench_span_coverage, "ratio");
}

/// Fills the mln.* figures from the decorator's counters.
void AddMatcherFigures(const InstrumentedMatcher& m, Layers& l) {
  using M = InstrumentedMatcher;
  l.mln_match_calls = static_cast<double>(m.stats(M::kMatch).calls);
  l.mln_match_ms = Ms(static_cast<int64_t>(m.stats(M::kMatch).nanos));
  l.mln_match_p99_us = Quantile(m.MatchDurationsUs(), 0.99);
  l.mln_calls_exact = l.mln_match_calls +
                      static_cast<double>(m.stats(M::kConditioned).calls);
  l.mln_useful_call_ratio =
      Ratio(static_cast<double>(m.useful_calls()), l.mln_calls_exact);
}

void AddCoverFigures(const core::Cover& cover, Layers& l) {
  l.blocking_neighborhoods = static_cast<double>(cover.size());
  l.blocking_nbhd_mean_size = cover.MeanNeighborhoodSize();
  l.blocking_nbhd_max_size = static_cast<double>(cover.MaxNeighborhoodSize());
}

// --- open-loop request generation -------------------------------------------------

/// Sleeps until shortly before `due_ns`, then spins: a sleep's wake-up
/// alone is tens of microseconds late, which would read as latency.
void WaitUntil(int64_t due_ns) {
  const int64_t now = NowNs();
  if (due_ns - now > kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  while (NowNs() < due_ns) {
  }
}

struct Sample {
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t done_ns = 0;
};

/// Issues request i at start + i * interval until `keep(i, due)` is false.
/// Every request is timed from its due time, so a stall also charges the
/// requests queued behind it.
void OpenLoop(int64_t start_ns, int64_t interval_ns,
              const std::function<bool(size_t, int64_t)>& keep,
              const std::function<void(size_t)>& send,
              std::vector<Sample>& samples) {
  for (size_t i = 0;; ++i) {
    const int64_t due = start_ns + static_cast<int64_t>(i) * interval_ns;
    WaitUntil(due);
    if (!keep(i, due)) return;
    Sample s;
    s.due_ns = due;
    s.send_ns = NowNs();
    send(i);
    s.done_ns = NowNs();
    samples.push_back(s);
  }
}

/// How late the generator sent requests it was free to send on time (the
/// previous request had returned by the due time), microseconds.
std::vector<double> GeneratorLagUs(const std::vector<Sample>& samples) {
  std::vector<double> lag;
  for (size_t i = 1; i < samples.size(); ++i) {
    if (samples[i - 1].done_ns <= samples[i].due_ns) {
      lag.push_back(Us(samples[i].send_ns - samples[i].due_ns));
    }
  }
  return lag;
}

std::vector<double> LatencyUs(const std::vector<Sample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(Us(s.done_ns - s.due_ns));
  return out;
}

std::vector<data::EntityId> QueryRefs(const data::Dataset& dataset,
                                      uint64_t seed) {
  const std::vector<data::EntityId>& refs = dataset.author_refs();
  Rng rng(seed);
  std::vector<data::EntityId> queries(1u << 16);
  for (data::EntityId& q : queries) q = refs[rng.NextBounded(refs.size())];
  return queries;
}

// --- set-up --------------------------------------------------------------------

data::BibConfig CorpusConfig(const std::string& workload) {
  return data::BibConfig::DblpLike(workload == "batch_smp" ? kSmpScale
                                                           : kStreamScale);
}

/// The same corpus under new entity ids: entities are re-added in a seeded
/// order, which moves every id-order tie-break, cover seed and hash layout
/// while the corpus itself stays the same.
std::unique_ptr<data::Dataset> Relabel(const data::Dataset& source,
                                       uint64_t seed) {
  const size_t n = source.num_entities();
  std::vector<data::EntityId> order(n);
  for (data::EntityId e = 0; e < n; ++e) order[e] = e;
  Rng rng(seed);
  rng.Shuffle(order);
  auto out = std::make_unique<data::Dataset>();
  std::vector<data::EntityId> id_of(n);
  for (data::EntityId old : order) {
    const data::Entity& e = source.entity(old);
    id_of[old] = e.type == data::EntityType::kAuthorRef
                     ? out->AddAuthorRef(e.first_name, e.last_name, e.truth)
                     : out->AddPaper(e.title, e.year, e.truth);
  }
  for (data::EntityId old : order) {
    for (data::EntityId paper : source.authored().Neighbors(old)) {
      out->AddAuthored(id_of[old], id_of[paper]);
    }
    for (data::EntityId cited : source.cites().Neighbors(old)) {
      out->AddCites(id_of[old], id_of[cited]);
    }
  }
  out->Finalize();
  return out;
}

/// Generates the workload's corpus, relabels it by the seed and writes it
/// as TSV; returns seconds, or a negative value on failure.
double GenerateCorpus(const Options& options, const std::string& tsv,
                      const ExecutionContext& ctx) {
  const int64_t start = NowNs();
  const std::unique_ptr<data::Dataset> generated =
      data::GenerateBibDataset(CorpusConfig(options.workload), {}, ctx);
  const std::unique_ptr<data::Dataset> dataset =
      Relabel(*generated, Mix(options.seed));
  const Status saved = data::SaveDatasetTsv(*dataset, tsv);
  if (!saved.ok()) {
    std::fprintf(stderr, "perfbench: writing %s failed: %s\n", tsv.c_str(),
                 saved.ToString().c_str());
    return -1.0;
  }
  return static_cast<double>(NowNs() - start) / 1e9;
}

std::unique_ptr<data::Dataset> Load(const std::string& tsv) {
  Result<std::unique_ptr<data::Dataset>> loaded = data::LoadDatasetTsv(tsv);
  if (!loaded.ok()) {
    std::fprintf(stderr, "perfbench: loading %s failed: %s\n", tsv.c_str(),
                 loaded.status().ToString().c_str());
    return nullptr;
  }
  return std::move(loaded).value();
}

/// Times a scope into `*ns` and, when the log is enabled, records it as a
/// span.
class Stage {
 public:
  Stage(SpanLog& log, const char* name, int32_t parent, int64_t* ns)
      : span_(log, name, parent), ns_(ns), start_(NowNs()) {}
  ~Stage() { *ns_ = NowNs() - start_; }
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

 private:
  ScopedSpan span_;
  int64_t* ns_;
  int64_t start_;
};

// --- batch workloads ---------------------------------------------------------------

/// What a batch job leaves behind; replaced by each job, so only the last
/// job's corpus and matcher stay in memory.
struct JobState {
  std::unique_ptr<data::Dataset> dataset;
  core::Cover cover;
  core::BlockingStats blocking;
  std::unique_ptr<mln::MlnMatcher> matcher;
  std::unique_ptr<InstrumentedMatcher> instrumented;
  core::MpResult mp;
  eval::PrMetrics pr;
};

/// Stage times of one job, nanoseconds.
struct JobTimes {
  bool traced = false;
  int64_t load = 0, candidates = 0, cover = 0, build = 0, mp = 0,
          matcher_in_mp = 0, closure = 0, pr = 0, total = 0;
  double span_coverage = 0;
};

/// One timed batch job: load -> candidate pairs -> LSH cover -> SMP ->
/// closure + evaluation.
bool RunJob(const std::string& tsv, const ExecutionContext& ctx,
            SpanLog& log, JobTimes& t, JobState& st) {
  SpanLog untraced(false, 0);
  SpanLog& spans = t.traced ? log : untraced;
  const std::unique_ptr<core::CoverBuilder> builder = blocking::MakeCoverBuilder(
      core::BlockingStrategy::kLsh);
  // The previous job's state is freed before the clock starts: a user's
  // job does not pay for tearing down the one before it.
  st = JobState();
  const int64_t start = NowNs();
  const int32_t root = spans.Begin("bench.batch_smp", -1);
  {
    Stage s(spans, "data.LoadDatasetTsv", root, &t.load);
    st.dataset = Load(tsv);
  }
  if (st.dataset == nullptr) return false;
  {
    Stage s(spans, "data.BuildCandidatePairs", root, &t.candidates);
    st.dataset->BuildCandidatePairs({}, ctx);
  }
  {
    Stage s(spans, "blocking.CoverBuilder::Build", root, &t.cover);
    st.cover = builder->Build(*st.dataset, ctx, &st.blocking);
  }
  {
    Stage s(spans, "mln.MlnMatcher", root, &t.build);
    st.matcher = std::make_unique<mln::MlnMatcher>(*st.dataset);
    st.instrumented = t.traced
                          ? std::make_unique<InstrumentedMatcher>(*st.matcher)
                          : nullptr;
  }
  const core::ProbabilisticMatcher& matcher =
      t.traced ? static_cast<const core::ProbabilisticMatcher&>(*st.instrumented)
               : *st.matcher;
  {
    Stage s(spans, "core.RunSmp", root, &t.mp);
    st.mp = core::RunSmp(matcher, st.cover);
  }
  if (t.traced) {
    t.matcher_in_mp = static_cast<int64_t>(st.instrumented->total_nanos());
  }
  core::MatchSet closure;
  {
    Stage s(spans, "core.TransitiveClosure", root, &t.closure);
    closure = core::TransitiveClosure(st.mp.matches);
  }
  {
    Stage s(spans, "eval.ComputePr", root, &t.pr);
    st.pr = eval::ComputePr(*st.dataset, closure);
  }
  spans.End(root);
  t.total = NowNs() - start;
  t.span_coverage = spans.ChildCoverage(root);
  return true;
}

/// Per-layer figures of one traced job.
Layers JobLayers(const JobTimes& t, const JobState& st) {
  Layers l;
  l.data_load_ms = Ms(t.load);
  l.data_candidates_ms = Ms(t.candidates);
  l.data_candidate_pairs = static_cast<double>(st.dataset->num_candidate_pairs());
  l.blocking_cover_ms = Ms(t.cover);
  l.blocking_pairs_considered = static_cast<double>(st.blocking.pairs_considered);
  AddCoverFigures(st.cover, l);
  l.mln_build_ms = Ms(t.build);
  l.core_mp_ms = Ms(t.mp);
  l.core_driver_self_ms = Ms(t.mp - t.matcher_in_mp);
  l.core_evaluations = static_cast<double>(st.mp.neighborhood_evaluations);
  l.core_matcher_calls_reported = static_cast<double>(st.mp.matcher_calls);
  l.core_closure_ms = Ms(t.closure);
  AddMatcherFigures(*st.instrumented, l);
  l.eval_pr_ms = Ms(t.pr);
  l.bench_span_coverage = t.span_coverage;
  return l;
}

bool RunBatch(const Options& options, const ExecutionContext& ctx,
              const std::string& tsv, double setup_s, SpanLog& log,
              Report& report) {
  JobState st;
  core::MatchSet first_matches;
  std::vector<double> bare_s, traced_s;
  std::vector<Layers> traced_layers;
  const int64_t budget_ns = static_cast<int64_t>(options.seconds * 1e9);
  const int64_t start = NowNs();
  // Untraced runs time every job bare; a traced run alternates bare and
  // traced jobs, so the ratio of their medians is the tracing overhead.
  for (size_t jobs = 0;; ++jobs) {
    JobTimes t;
    t.traced = options.trace && jobs % 2 == 1;
    if (!RunJob(tsv, ctx, log, t, st)) return false;
    report.Attempt();
    if (jobs == 0) {
      first_matches = st.mp.matches;
    } else {
      report.Check(st.mp.matches == first_matches,
                   "job " + std::to_string(jobs) +
                       " match set differs from job 0");
    }
    const double job_s = static_cast<double>(t.total) / 1e9;
    std::fprintf(stderr, "perfbench: job %zu%s %.3f s\n", jobs,
                 t.traced ? " (traced)" : "", job_s);
    (t.traced ? traced_s : bare_s).push_back(job_s);
    if (t.traced) traced_layers.push_back(JobLayers(t, st));
    const int64_t elapsed = NowNs() - start;
    const int64_t per_job = elapsed / static_cast<int64_t>(jobs + 1);
    const size_t min_jobs = options.trace ? 2 : 1;
    if (jobs + 1 >= min_jobs && elapsed + per_job > budget_ns) break;
  }
  const data::Dataset& dataset = *st.dataset;

  // Correctness, outside the timed phase, against independent references.
  report.Check(st.cover.CoversAllAuthorRefs(dataset),
               "cover misses author references");
  const core::Cover canopy = core::CanopyCoverBuilder().Build(dataset, ctx);
  const core::MpResult reference = core::RunSmp(*st.matcher, canopy);
  report.Check(reference.matches == st.mp.matches,
               "SMP over the LSH cover differs from SMP over a canopy cover");

  if (!options.trace) {
    EndToEnd e;
    e.setup_s = setup_s;
    e.refs_per_s = static_cast<double>(dataset.author_refs().size()) /
                   Median(bare_s);
    // Every reference's answer is due when a job starts and given when it
    // ends, so within a job p50 and p99 coincide; both report the median
    // job, like refs_per_s.
    e.answer_p50_ms = Median(bare_s) * 1e3;
    e.answer_p99_ms = e.answer_p50_ms;
    e.f1 = st.pr.f1;
    AddEndToEnd(e, report);
    return true;
  }
  // Each figure is the median over the traced jobs.
  std::vector<Report> per_job(traced_layers.size());
  for (size_t i = 0; i < traced_layers.size(); ++i) {
    traced_layers[i].bench_trace_overhead = Median(traced_s) / Median(bare_s);
    AddLayers(traced_layers[i], per_job[i]);
  }
  report.AddMedians(per_job);
  return true;
}

// --- stream + serve ----------------------------------------------------------------

struct LookupRecord {
  bool ok = false;
  bool live = false;
  double candidates = 0;
  double signature_us = 0, probe_us = 0, rank_us = 0, cover_us = 0;
};

/// One ingest of the whole corpus with open-loop lookups alongside, then a
/// read-only phase at the same rate.
struct StreamRep {
  bool traced = false;
  int64_t ingest_ns = 0;
  std::vector<double> chunk_ms;
  std::vector<Sample> mixed;  // Lookups due before ingest ended.
  std::vector<LookupRecord> mixed_lookups;
  size_t lookups_during_ingest = 0;
  std::vector<Sample> quiet;
  double span_coverage = 0;
};

struct StreamState {
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<mln::MlnMatcher> matcher;
  std::unique_ptr<InstrumentedMatcher> instrumented;
  std::unique_ptr<stream::StreamingMatcher> streaming;
  std::unique_ptr<serve::MatchService> service;
  int64_t load_ns = 0, candidates_ns = 0, build_ns = 0;
};

void NewService(const ExecutionContext& ctx, bool traced, StreamState& st) {
  stream::StreamingOptions streaming_options;
  streaming_options.context = &ctx;
  const core::Matcher& matcher =
      traced ? static_cast<const core::Matcher&>(*st.instrumented)
             : *st.matcher;
  st.service.reset();
  st.streaming =
      std::make_unique<stream::StreamingMatcher>(matcher, streaming_options);
  st.service = std::make_unique<serve::MatchService>(*st.streaming);
}

bool SetUpStream(const std::string& tsv, const ExecutionContext& ctx,
                 SpanLog& log, StreamState& st) {
  ScopedSpan root(log, "bench.setup");
  {
    Stage s(log, "data.LoadDatasetTsv", root.id(), &st.load_ns);
    st.dataset = Load(tsv);
  }
  if (st.dataset == nullptr) return false;
  {
    Stage s(log, "data.BuildCandidatePairs", root.id(), &st.candidates_ns);
    st.dataset->BuildCandidatePairs({}, ctx);
  }
  {
    Stage s(log, "mln.MlnMatcher", root.id(), &st.build_ns);
    st.matcher = std::make_unique<mln::MlnMatcher>(*st.dataset);
    st.instrumented = std::make_unique<InstrumentedMatcher>(*st.matcher);
  }
  NewService(ctx, false, st);
  return true;
}

void RunStreamRep(const StreamState& st, const std::vector<data::EntityId>& order,
                  const std::vector<data::EntityId>& queries, SpanLog& log,
                  StreamRep& rep, Report& report) {
  SpanLog untraced(false, 0);
  SpanLog& spans = rep.traced ? log : untraced;
  serve::MatchService& service = *st.service;
  std::atomic<int64_t> ingest_end{0};
  std::vector<LookupRecord> lookups;
  lookups.reserve(1u << 15);
  const int64_t start = NowNs();
  const int32_t ingest_root = spans.Begin("bench.ingest", -1);
  {
    // Marks ingest as ended on every path out of this scope, so the
    // generator stops and the jthread's join returns.
    struct EndIngest {
      std::atomic<int64_t>& end;
      ~EndIngest() {
        if (end.load() == 0) end.store(NowNs(), std::memory_order_release);
      }
    };
    std::jthread generator([&] {
      ScopedSpan root(spans, "bench.lookups");
      OpenLoop(
          start, kIntervalNs,
          [&](size_t, int64_t due) {
            const int64_t end = ingest_end.load(std::memory_order_acquire);
            return end == 0 || due < end;
          },
          [&](size_t i) {
            ScopedSpan span(spans, "serve.MatchService::Lookup", root.id());
            const Result<serve::QueryResult> r =
                service.Lookup({queries[i % queries.size()]});
            LookupRecord l;
            l.ok = r.ok();
            if (r.ok()) {
              l.live = r->live;
              l.candidates = static_cast<double>(r->candidates.size());
              l.signature_us = r->trace.signature_us;
              l.probe_us = r->trace.probe_us;
              l.rank_us = r->trace.rank_us;
              l.cover_us = r->trace.cover_us;
            }
            lookups.push_back(l);
          },
          rep.mixed);
    });
    EndIngest end_ingest{ingest_end};
    for (size_t begin = 0; begin < order.size(); begin += kChunk) {
      const size_t end = std::min(order.size(), begin + kChunk);
      int64_t chunk_ns = 0;
      Status added;
      {
        Stage s(spans, "serve.MatchService::IngestBatch", ingest_root,
                &chunk_ns);
        added = service.IngestBatch({order.begin() + begin, order.begin() + end});
      }
      rep.chunk_ms.push_back(Ms(chunk_ns));
      report.Attempt();
      if (!added.ok()) {
        report.Fail("IngestBatch failed: " + added.ToString());
        break;
      }
    }
    ingest_end.store(NowNs(), std::memory_order_release);
    spans.End(ingest_root);
  }
  rep.ingest_ns = ingest_end.load() - start;
  rep.span_coverage = spans.ChildCoverage(ingest_root);

  // A lookup due just as ingest ended may have slipped through; it was
  // answered but is not part of the mixed phase.
  const int64_t end = ingest_end.load();
  for (size_t i = 0; i < rep.mixed.size(); ++i) {
    report.Attempt();
    if (!lookups[i].ok) report.Fail("Lookup failed during ingest");
    if (rep.mixed[i].due_ns >= end) {
      rep.mixed.resize(i);
      lookups.resize(i);
      break;
    }
    if (rep.mixed[i].done_ns < end) ++rep.lookups_during_ingest;
  }
  rep.mixed_lookups = std::move(lookups);
}

/// Read-only phase at the mixed phase's rate; answers are checked against
/// ClusterOf over the batch reference.
void QuietPhase(const StreamState& st, const core::MatchSet& reference,
                const std::vector<data::EntityId>& queries, StreamRep& rep,
                Report& report) {
  std::vector<Result<serve::QueryResult>> answers;
  answers.reserve(kReads);
  const size_t offset = queries.size() / 2;
  OpenLoop(
      NowNs(), kIntervalNs, [](size_t i, int64_t) { return i < kReads; },
      [&](size_t i) {
        answers.push_back(st.service->Lookup({queries[(offset + i) % queries.size()]}));
      },
      rep.quiet);
  report.Attempt(kReads);
  size_t failed = 0, wrong = 0;
  for (size_t i = 0; i < answers.size(); ++i) {
    if (!answers[i].ok()) {
      ++failed;
      continue;
    }
    const data::EntityId ref = queries[(offset + i) % queries.size()];
    if (answers[i]->cluster != core::ClusterOf(*st.dataset, reference, ref)) {
      ++wrong;
    }
  }
  for (size_t i = 0; i < failed; ++i) report.Fail("Lookup failed after ingest");
  report.Check(wrong == 0, std::to_string(wrong) +
                               " read-phase clusters differ from ClusterOf "
                               "over batch SMP");
}

bool RunStreamServe(const Options& options, const ExecutionContext& ctx,
                    const std::string& tsv, double generate_s, SpanLog& log,
                    Report& report) {
  // Set-up after the corpus: load, candidate pairs, matcher, service.
  std::vector<double> setup_s;
  StreamState st;
  for (int k = 0; k < kSetupSamples; ++k) {
    SpanLog untraced(false, 0);
    const int64_t start = NowNs();
    if (!SetUpStream(tsv, ctx, k + 1 == kSetupSamples ? log : untraced, st)) {
      return false;
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  std::vector<data::EntityId> order = st.dataset->author_refs();
  Rng arrival(Mix(options.seed + 1));
  arrival.Shuffle(order);
  const std::vector<data::EntityId> queries =
      QueryRefs(*st.dataset, Mix(options.seed + 2));

  // Batch reference (not timed): SMP over a freshly built canopy cover.
  const core::Cover canopy = core::CanopyCoverBuilder().Build(*st.dataset, ctx);
  const core::MatchSet reference = core::RunSmp(*st.matcher, canopy).matches;

  std::vector<StreamRep> reps;
  const int64_t budget_ns = static_cast<int64_t>(options.seconds * 1e9);
  const int64_t start = NowNs();
  stream::StreamingStats stats;
  while (true) {
    StreamRep rep;
    rep.traced = options.trace && reps.size() % 2 == 1;
    if (!reps.empty()) NewService(ctx, rep.traced, st);
    if (rep.traced) st.instrumented->Reset();
    RunStreamRep(st, order, queries, log, rep, report);
    report.Check(st.streaming->matches() == reference,
                 "streamed matches differ from batch SMP");
    QuietPhase(st, reference, queries, rep, report);
    if (rep.traced) stats = st.streaming->stats();
    reps.push_back(std::move(rep));
    const int64_t elapsed = NowNs() - start;
    const int64_t per_rep = elapsed / static_cast<int64_t>(reps.size());
    const size_t min_reps = options.trace ? 2 : 1;
    if (reps.size() >= min_reps && elapsed + per_rep > budget_ns) break;
  }

  const double refs = static_cast<double>(order.size());
  std::vector<double> bare_ingest_s, traced_ingest_s, mixed_p50_us,
      mixed_p99_us, quiet_us, lag_us, call_us, queue_us, chunk_ms, cov, sig,
      probe, rank, cover_us, candidates;
  double during = 0, chunks = 0, cold = 0, answered = 0;
  for (const StreamRep& rep : reps) {
    (rep.traced ? traced_ingest_s : bare_ingest_s)
        .push_back(static_cast<double>(rep.ingest_ns) / 1e9);
    if (rep.traced != options.trace) continue;
    // Per ingest, then the median over ingests: one ingest slowed by the
    // host moves a pooled quantile, but not the median of the ingests'.
    const std::vector<double> mixed = LatencyUs(rep.mixed);
    mixed_p50_us.push_back(Quantile(mixed, 0.5));
    mixed_p99_us.push_back(Quantile(mixed, 0.99));
    const std::vector<double> quiet = LatencyUs(rep.quiet);
    quiet_us.insert(quiet_us.end(), quiet.begin(), quiet.end());
    for (const auto* phase : {&rep.mixed, &rep.quiet}) {
      const std::vector<double> lag = GeneratorLagUs(*phase);
      lag_us.insert(lag_us.end(), lag.begin(), lag.end());
    }
    for (size_t i = 0; i < rep.mixed.size(); ++i) {
      const Sample& s = rep.mixed[i];
      const LookupRecord& l = rep.mixed_lookups[i];
      call_us.push_back(Us(s.done_ns - s.send_ns));
      queue_us.push_back(Us(s.send_ns - s.due_ns));
      if (!l.ok) continue;
      ++answered;
      if (!l.live) ++cold;
      candidates.push_back(l.candidates);
      sig.push_back(l.signature_us);
      probe.push_back(l.probe_us);
      rank.push_back(l.rank_us);
      cover_us.push_back(l.cover_us);
    }
    chunk_ms.insert(chunk_ms.end(), rep.chunk_ms.begin(), rep.chunk_ms.end());
    during += static_cast<double>(rep.lookups_during_ingest);
    chunks += static_cast<double>(rep.chunk_ms.size());
    cov.push_back(rep.span_coverage);
  }

  int64_t pr_ns = 0;
  eval::PrMetrics pr;
  {
    Stage s(log, "eval.ComputePr", -1, &pr_ns);
    pr = eval::ComputePr(*st.dataset,
                         core::TransitiveClosure(st.streaming->matches()));
  }
  if (!options.trace) {
    EndToEnd e;
    e.setup_s = generate_s + Median(setup_s);
    e.refs_per_s = refs / Median(bare_ingest_s);
    e.answer_p50_ms = Median(mixed_p50_us) / 1e3;
    e.answer_p99_ms = Median(mixed_p99_us) / 1e3;
    e.f1 = pr.f1;
    AddEndToEnd(e, report);
    return true;
  }

  Layers l;
  l.data_load_ms = Ms(st.load_ns);
  l.data_candidates_ms = Ms(st.candidates_ns);
  l.data_candidate_pairs = static_cast<double>(st.dataset->num_candidate_pairs());
  AddCoverFigures(st.streaming->cover(), l);
  l.mln_build_ms = Ms(st.build_ns);
  l.core_evaluations = static_cast<double>(stats.matching.neighborhood_evaluations);
  l.core_matcher_calls_reported = static_cast<double>(stats.matching.matcher_calls);
  AddMatcherFigures(*st.instrumented, l);
  l.eval_pr_ms = Ms(pr_ns);
  const double inserts = static_cast<double>(stats.ingest.inserts);
  l.stream_chunk_ms_p50 = Quantile(chunk_ms, 0.5);
  l.stream_chunk_ms_p99 = Quantile(chunk_ms, 0.99);
  l.stream_canopies_touched_per_insert =
      Ratio(static_cast<double>(stats.ingest.canopies_touched), inserts);
  l.stream_pairs_rescored_per_insert =
      Ratio(static_cast<double>(stats.matching.pairs_rescored), inserts);
  l.stream_evals_per_insert =
      Ratio(static_cast<double>(stats.matching.neighborhood_evaluations), inserts);
  l.stream_lsh_candidates_scanned =
      static_cast<double>(stats.ingest.lsh_candidates_scanned);
  l.serve_lookup_call_us_p50 = Quantile(call_us, 0.5);
  l.serve_lookup_call_us_p99 = Quantile(call_us, 0.99);
  l.serve_lookup_queue_us_p99 = Quantile(queue_us, 0.99);
  l.serve_quiet_p50_us = Median(quiet_us);
  l.serve_lookups_per_chunk = Ratio(during, chunks);
  l.serve_cold_share = Ratio(cold, answered);
  l.serve_candidates_per_lookup = Median(candidates);
  l.serve_signature_us = Median(sig);
  l.serve_probe_us = Median(probe);
  l.serve_rank_us = Median(rank);
  l.serve_cover_us = Median(cover_us);
  l.bench_gen_lag_p99_us = Quantile(lag_us, 0.99);
  l.bench_trace_overhead = Median(traced_ingest_s) / Median(bare_ingest_s);
  l.bench_span_coverage = Median(cov);
  AddLayers(l, report);
  return true;
}

}  // namespace

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::AddMedians(const std::vector<Report>& runs) {
  if (runs.empty()) return;
  for (size_t i = 0; i < runs.front().metrics_.size(); ++i) {
    std::vector<double> values;
    for (const Report& run : runs) values.push_back(run.metrics_[i].value);
    Add(runs.front().metrics_[i].name, Median(values),
        runs.front().metrics_[i].unit);
  }
}

void Report::Fail(const std::string& what) {
  ++failed_;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
}

void Report::Check(bool ok, const std::string& what) {
  Attempt();
  if (!ok) Fail(what);
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names(std::begin(kWorkloads),
                                              std::end(kWorkloads));
  return names;
}

bool RunWorkload(const Options& options, Report& report) {
  const ExecutionContext ctx(kThreads);
  const std::string tsv = options.work_dir + "/" + options.workload + "-" +
                          std::to_string(options.seed) + ".tsv";
  std::vector<double> generate_s;
  for (int k = 0; k < kSetupSamples; ++k) {
    const double s = GenerateCorpus(options, tsv, ctx);
    if (s < 0) return false;
    generate_s.push_back(s);
  }
  SpanLog log(options.trace, Mix(options.seed) & 0xffffffffu);
  bool ok = false;
  if (options.workload == "stream_serve") {
    ok = RunStreamServe(options, ctx, tsv, Median(generate_s), log, report);
  } else {
    ok = RunBatch(options, ctx, tsv, Median(generate_s), log, report);
  }
  std::remove(tsv.c_str());
  if (ok && options.trace) {
    const std::string path = options.work_dir + "/trace-" + options.workload +
                             "-" + std::to_string(options.seed) + ".json";
    if (!log.WriteChromeJson(path, options.host_json)) {
      std::fprintf(stderr, "perfbench: writing %s failed\n", path.c_str());
      return false;
    }
    std::fprintf(stderr, "perfbench: spans written to %s\n", path.c_str());
  }
  return ok;
}

}  // namespace cem::perfbench
