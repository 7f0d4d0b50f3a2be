// Request-level observability suite (tier1-concurrency; ci/check.sh
// re-runs it under ThreadSanitizer). Covers the live serving telemetry of
// obs/: the RollingWindow sliding SLO aggregation (exact totals under
// concurrent recorders, deterministic expiry via the injectable clock),
// the per-query trace context threaded through MatchService::Lookup
// (unique ids, monotone cumulative stage offsets), the bounded worst-N
// SlowQueryLog, and the IngestWatchdog stall decision driven
// deterministically through Observe().

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/bib_generator.h"
#include "mln/mln_matcher.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"
#include "obs/watchdog.h"
#include "obs/window.h"
#include "serve/match_service.h"
#include "stream/streaming_matcher.h"
#include "util/execution_context.h"
#include "util/random.h"

namespace cem {
namespace {

using obs::IngestWatchdog;
using obs::QueryTrace;
using obs::RollingWindow;
using obs::SlowQueryLog;
using obs::WindowStats;
using serve::MatchService;
using serve::QueryResult;
using serve::ServeOptions;
using stream::StreamingMatcher;

uint32_t HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

// ---------------------------------------------------------- RollingWindow --

TEST(RollingWindowTest, MergesOnlySecondsInsideTheWindow) {
  RollingWindow window;
  const uint64_t base = 1000;
  // One sample per second across 20 seconds, latencies 1..20 us.
  for (uint64_t s = 0; s < 20; ++s) {
    window.RecordAt(base + s, static_cast<double>(s + 1), /*error=*/false);
  }
  const uint64_t now = base + 19;  // The second of the last sample.
  // A 10s window ending at `now` covers seconds base+10 .. base+19.
  const WindowStats ten = window.OverAt(10, now);
  EXPECT_EQ(ten.count, 10u);
  EXPECT_EQ(ten.window_s, 10u);
  EXPECT_DOUBLE_EQ(ten.qps, 1.0);
  // The full 60s window sees everything.
  const WindowStats sixty = window.OverAt(60, now);
  EXPECT_EQ(sixty.count, 20u);
  // A 1s window sees only the newest sample.
  EXPECT_EQ(window.OverAt(1, now).count, 1u);
}

TEST(RollingWindowTest, ErrorRateAndQpsAreRatiosOverTheWindow) {
  RollingWindow window;
  const uint64_t now = 500;
  for (int i = 0; i < 30; ++i) {
    window.RecordAt(now, 100.0, /*error=*/i % 3 == 0);
  }
  const WindowStats stats = window.OverAt(10, now);
  EXPECT_EQ(stats.count, 30u);
  EXPECT_EQ(stats.errors, 10u);
  EXPECT_DOUBLE_EQ(stats.error_rate, 10.0 / 30.0);
  EXPECT_DOUBLE_EQ(stats.qps, 3.0);
}

TEST(RollingWindowTest, EmptyWindowIsAllZeros) {
  RollingWindow window;
  const WindowStats stats = window.OverAt(10, 42);
  EXPECT_EQ(stats.count, 0u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_DOUBLE_EQ(stats.qps, 0.0);
  EXPECT_DOUBLE_EQ(stats.error_rate, 0.0);
  EXPECT_DOUBLE_EQ(stats.p50, 0.0);
}

TEST(RollingWindowTest, WindowLengthClampsToMaxAndMinimumOne) {
  RollingWindow window;
  window.RecordAt(100, 5.0, false);
  EXPECT_EQ(window.OverAt(0, 100).window_s, 1u);
  EXPECT_EQ(window.OverAt(10'000, 100).window_s,
            RollingWindow::kMaxWindowSeconds);
}

TEST(RollingWindowTest, StaleSamplesAreDroppedNotMisfiled) {
  RollingWindow window;
  const uint64_t base = 2000;
  window.RecordAt(base, 1.0, false);
  // A full ring lap later the slot of `base` has been recycled; a
  // late-arriving sample for the recycled second must be dropped, not
  // counted against the new second occupying its slot.
  const uint64_t lapped = base + RollingWindow::kCapacitySeconds;
  window.RecordAt(lapped, 2.0, false);
  window.RecordAt(base, 3.0, false);  // Stale: its second is gone.
  EXPECT_EQ(window.OverAt(1, lapped).count, 1u);
  EXPECT_EQ(window.OverAt(60, lapped).count, 1u);
}

TEST(RollingWindowTest, PercentilesTrackTheLadderAndClampOnOverflow) {
  RollingWindow window;
  const uint64_t now = 300;
  // 100 samples at 100us: every percentile lands in the bucket containing
  // 100 on the 1-2-5 ladder.
  for (int i = 0; i < 100; ++i) window.RecordAt(now, 100.0, false);
  const WindowStats stats = window.OverAt(10, now);
  EXPECT_GT(stats.p50, 50.0);
  EXPECT_LE(stats.p50, 100.0);
  EXPECT_LE(stats.p50, stats.p95);
  EXPECT_LE(stats.p95, stats.p99);

  // All-overflow mass pins every percentile to the last finite bound
  // (same clamp Histogram::Stats carries).
  RollingWindow overflow;
  for (int i = 0; i < 100; ++i) overflow.RecordAt(now, 1e12, false);
  const WindowStats clamped = overflow.OverAt(10, now);
  EXPECT_DOUBLE_EQ(clamped.p50, clamped.p99);
  EXPECT_LT(clamped.p99, 1e12);
}

TEST(RollingWindowTest, ConcurrentRecordersCountExactly) {
  // The TSAN target: ExecutionContext threads hammer one window across a
  // spread of seconds; the merged read must account for every sample
  // exactly once.
  RollingWindow window;
  const ExecutionContext ctx(HardwareThreads());
  constexpr size_t kTasks = 50'000;
  const uint64_t base = 9000;
  std::atomic<uint64_t> errors_recorded{0};
  ParallelFor(ctx.pool(), kTasks, [&](size_t i) {
    const bool error = i % 7 == 0;
    if (error) errors_recorded.fetch_add(1, std::memory_order_relaxed);
    // Spread the writes over 10 distinct seconds to exercise rollover
    // races as well as same-bucket contention.
    window.RecordAt(base + i % 10, static_cast<double>(i % 100), error);
  });
  const WindowStats stats = window.OverAt(10, base + 9);
  EXPECT_EQ(stats.count, kTasks);
  EXPECT_EQ(stats.errors, errors_recorded.load());
}

// ----------------------------------------------------------- SlowQueryLog --

QueryTrace TraceWithTotal(uint64_t id, double total_us) {
  QueryTrace trace;
  trace.query_id = id;
  trace.ref = id * 10;
  trace.total_us = total_us;
  return trace;
}

TEST(SlowQueryLogTest, UnderThresholdTracesAreNeitherCountedNorKept) {
  SlowQueryLog log(/*capacity=*/4, /*threshold_us=*/100.0);
  log.Offer(TraceWithTotal(1, 99.9));
  EXPECT_EQ(log.slow_count(), 0u);
  EXPECT_TRUE(log.WorstFirst().empty());
  log.Offer(TraceWithTotal(2, 100.0));  // At-threshold counts.
  EXPECT_EQ(log.slow_count(), 1u);
  EXPECT_EQ(log.WorstFirst().size(), 1u);
}

TEST(SlowQueryLogTest, KeepsTheWorstNWorstFirst) {
  SlowQueryLog log(/*capacity=*/3, /*threshold_us=*/10.0);
  const double totals[] = {50, 20, 90, 30, 70, 15};
  uint64_t id = 0;
  for (double t : totals) log.Offer(TraceWithTotal(++id, t));
  EXPECT_EQ(log.slow_count(), 6u);  // Every offer counted...
  const std::vector<QueryTrace> worst = log.WorstFirst();
  ASSERT_EQ(worst.size(), 3u);  // ...but only the worst 3 retained.
  EXPECT_DOUBLE_EQ(worst[0].total_us, 90.0);
  EXPECT_DOUBLE_EQ(worst[1].total_us, 70.0);
  EXPECT_DOUBLE_EQ(worst[2].total_us, 50.0);
}

TEST(SlowQueryLogTest, TiesBreakTowardTheOlderQuery) {
  SlowQueryLog log(/*capacity=*/4, /*threshold_us=*/1.0);
  log.Offer(TraceWithTotal(7, 5.0));
  log.Offer(TraceWithTotal(3, 5.0));
  const std::vector<QueryTrace> worst = log.WorstFirst();
  ASSERT_EQ(worst.size(), 2u);
  EXPECT_EQ(worst[0].query_id, 3u);
  EXPECT_EQ(worst[1].query_id, 7u);
}

TEST(SlowQueryLogTest, ToJsonIsAnArrayOfTraceObjects) {
  SlowQueryLog log(/*capacity=*/2, /*threshold_us=*/1.0);
  log.Offer(TraceWithTotal(1, 10.0));
  const std::string json = log.ToJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.find_last_not_of(" \n")], ']');
  EXPECT_NE(json.find("\"query_id\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"wait_us\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"total_us\""), std::string::npos) << json;
  log.Clear();
  EXPECT_EQ(log.slow_count(), 0u);
  EXPECT_TRUE(log.WorstFirst().empty());
}

TEST(SlowQueryLogTest, ConcurrentOffersCountEverySlowTrace) {
  SlowQueryLog log(/*capacity=*/8, /*threshold_us=*/50.0);
  const ExecutionContext ctx(HardwareThreads());
  constexpr size_t kTasks = 20'000;
  ParallelFor(ctx.pool(), kTasks, [&](size_t i) {
    // Half under threshold (fast path), half over.
    log.Offer(TraceWithTotal(i + 1, i % 2 == 0 ? 10.0 : 50.0 + i));
  });
  EXPECT_EQ(log.slow_count(), kTasks / 2);
  const std::vector<QueryTrace> worst = log.WorstFirst();
  ASSERT_EQ(worst.size(), 8u);
  // The retained set is exactly the 8 largest offered totals.
  EXPECT_DOUBLE_EQ(worst.front().total_us, 50.0 + (kTasks - 1));
  for (size_t i = 1; i < worst.size(); ++i) {
    EXPECT_DOUBLE_EQ(worst[i].total_us, worst[i - 1].total_us - 2.0);
  }
}

// --------------------------------------------------------- IngestWatchdog --

TEST(IngestWatchdogTest, IdleServerNeverStalls) {
  IngestWatchdog::Options options;
  options.deadline = std::chrono::milliseconds(100);
  IngestWatchdog dog(options);
  auto t0 = std::chrono::steady_clock::now();
  // Epoch frozen but the queue is empty: idle, not stalled — no matter
  // how long it sits.
  EXPECT_FALSE(dog.Observe(5, 0, t0));
  EXPECT_FALSE(dog.Observe(5, 0, t0 + std::chrono::seconds(10)));
  EXPECT_FALSE(dog.stalled());
  EXPECT_EQ(dog.stall_events(), 0u);
}

TEST(IngestWatchdogTest, FrozenEpochWithPendingWorkStallsAfterDeadline) {
  IngestWatchdog::Options options;
  options.deadline = std::chrono::milliseconds(100);
  IngestWatchdog dog(options);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(dog.Observe(5, 3, t0));  // Baseline.
  EXPECT_FALSE(dog.Observe(5, 3, t0 + std::chrono::milliseconds(99)));
  EXPECT_TRUE(dog.Observe(5, 3, t0 + std::chrono::milliseconds(100)));
  EXPECT_TRUE(dog.stalled());
  // One episode, one event — staying stalled does not re-count.
  EXPECT_TRUE(dog.Observe(5, 3, t0 + std::chrono::seconds(5)));
  EXPECT_EQ(dog.stall_events(), 1u);
}

TEST(IngestWatchdogTest, ProgressOrDrainClearsTheStall) {
  IngestWatchdog::Options options;
  options.deadline = std::chrono::milliseconds(100);
  IngestWatchdog dog(options);
  auto now = std::chrono::steady_clock::now();
  dog.Observe(1, 2, now);
  now += std::chrono::milliseconds(150);
  EXPECT_TRUE(dog.Observe(1, 2, now));
  // The epoch advances: recovered, gauge back to healthy.
  EXPECT_FALSE(dog.Observe(2, 2, now));
  EXPECT_FALSE(dog.stalled());
  // A second distinct stall episode counts a second event.
  now += std::chrono::milliseconds(150);
  EXPECT_TRUE(dog.Observe(2, 2, now));
  EXPECT_EQ(dog.stall_events(), 2u);
  // This time recovery comes from the queue draining at a frozen epoch.
  EXPECT_FALSE(dog.Observe(2, 0, now));
  EXPECT_FALSE(dog.stalled());
}

TEST(IngestWatchdogTest, MonitorThreadFlagsARealStallAndStops) {
  IngestWatchdog::Options options;
  options.deadline = std::chrono::milliseconds(20);
  options.poll = std::chrono::milliseconds(5);
  IngestWatchdog dog(options);
  std::atomic<uint64_t> epoch{7};
  std::atomic<uint64_t> depth{4};  // Pending work, epoch never moves.
  dog.Start([&] { return epoch.load(); }, [&] { return depth.load(); });
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (!dog.stalled() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(dog.stalled());
  depth.store(0);  // Drain: the monitor should clear the flag.
  const auto recover = std::chrono::steady_clock::now() +
                       std::chrono::seconds(5);
  while (dog.stalled() && std::chrono::steady_clock::now() < recover) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(dog.stalled());
  dog.Stop();
  dog.Stop();  // Idempotent.
  EXPECT_EQ(dog.stall_events(), 1u);
}

// ----------------------------------------- QueryTrace through the service --

std::unique_ptr<data::Dataset> MakeSmallBib(uint64_t seed) {
  data::BibConfig config = data::BibConfig::DblpLike(0.05);
  config.seed = seed;
  return data::GenerateBibDataset(config);
}

void ExpectMonotoneStages(const QueryTrace& t, const std::string& label) {
  EXPECT_GT(t.query_id, 0u) << label;
  EXPECT_GE(t.wait_us, 0.0) << label;
  EXPECT_LE(t.wait_us, t.signature_us) << label;
  EXPECT_LE(t.signature_us, t.probe_us) << label;
  EXPECT_LE(t.probe_us, t.rank_us) << label;
  EXPECT_LE(t.rank_us, t.cover_us) << label;
  EXPECT_LE(t.cover_us, t.total_us) << label;
}

TEST(QueryTraceTest, LookupAttachesACoherentTrace) {
  const auto dataset = MakeSmallBib(19);
  const mln::MlnMatcher matcher(*dataset);
  const std::vector<data::EntityId>& refs = dataset->author_refs();
  StreamingMatcher streaming(matcher);
  MatchService service(streaming);
  ASSERT_TRUE(service.IngestBatch(refs).ok());

  const Result<QueryResult> answer = service.Lookup({refs[0]});
  ASSERT_TRUE(answer.ok());
  const QueryTrace& trace = answer->trace;
  ExpectMonotoneStages(trace, "live lookup");
  EXPECT_EQ(trace.ref, refs[0]);
  EXPECT_EQ(trace.epoch, refs.size());
  EXPECT_TRUE(trace.live);
  EXPECT_FALSE(trace.error);
  EXPECT_GE(trace.candidates_probed, trace.candidates_returned);
  EXPECT_EQ(trace.candidates_returned, answer->candidates.size());
  EXPECT_EQ(trace.cluster_size, answer->cluster.size());
  EXPECT_GT(trace.shards_probed, 0u);
  // The result's latency is the trace's total, truncated to integer us.
  EXPECT_EQ(answer->latency_us, static_cast<uint64_t>(trace.total_us));
  // The trace fed the service's rolling window.
  EXPECT_GE(service.rolling_window().Over(60).count, 1u);
}

TEST(QueryTraceTest, IdsUniqueAndStagesMonotoneAcrossConcurrentLookups) {
  const auto dataset = MakeSmallBib(37);
  const mln::MlnMatcher matcher(*dataset);
  std::vector<data::EntityId> refs = dataset->author_refs();
  Rng rng(3);
  rng.Shuffle(refs);
  StreamingMatcher streaming(matcher);
  MatchService service(streaming);
  ASSERT_TRUE(service.IngestBatch(refs).ok());

  constexpr size_t kThreads = 4;
  constexpr size_t kLookupsPerThread = 64;
  std::mutex mu;
  std::vector<QueryTrace> traces;
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<QueryTrace> mine;
      for (size_t i = 0; i < kLookupsPerThread; ++i) {
        const data::EntityId q = refs[(t * 31 + i) % refs.size()];
        const Result<QueryResult> answer = service.Lookup({q});
        ASSERT_TRUE(answer.ok());
        mine.push_back(answer->trace);
      }
      std::lock_guard<std::mutex> lock(mu);
      traces.insert(traces.end(), mine.begin(), mine.end());
    });
  }
  for (std::thread& w : workers) w.join();

  ASSERT_EQ(traces.size(), kThreads * kLookupsPerThread);
  std::set<uint64_t> ids;
  for (const QueryTrace& trace : traces) {
    ExpectMonotoneStages(trace, "query " + std::to_string(trace.ref));
    ids.insert(trace.query_id);
  }
  EXPECT_EQ(ids.size(), traces.size());  // No id issued twice.
  // Every lookup landed in the window exactly once.
  EXPECT_GE(service.rolling_window().Over(60).count, traces.size());
}

TEST(QueryTraceTest, SlowThresholdZeroLogsEveryQueryWorstFirst) {
  const auto dataset = MakeSmallBib(41);
  const mln::MlnMatcher matcher(*dataset);
  const std::vector<data::EntityId>& refs = dataset->author_refs();
  StreamingMatcher streaming(matcher);
  ServeOptions options;
  options.slow_query_us = 0.0;  // Every query is "slow".
  options.slow_query_log_size = 4;
  MatchService service(streaming, options);
  ASSERT_TRUE(service.IngestBatch(refs).ok());
  for (size_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(service.Lookup({refs[i % refs.size()]}).ok());
  }
  EXPECT_EQ(service.slow_query_log().slow_count(), 12u);
  const std::vector<QueryTrace> worst = service.slow_query_log().WorstFirst();
  ASSERT_EQ(worst.size(), 4u);
  for (size_t i = 1; i < worst.size(); ++i) {
    EXPECT_GE(worst[i - 1].total_us, worst[i].total_us);
  }
}

TEST(QueryTraceTest, PublishWindowGaugesExportsTheRollingStats) {
  const auto dataset = MakeSmallBib(43);
  const mln::MlnMatcher matcher(*dataset);
  const std::vector<data::EntityId>& refs = dataset->author_refs();
  StreamingMatcher streaming(matcher);
  MatchService service(streaming);
  ASSERT_TRUE(service.IngestBatch(refs).ok());
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(service.Lookup({refs[i % refs.size()]}).ok());
  }
  service.PublishWindowGauges();
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  for (const char* name :
       {"serve_window1s_qps", "serve_window10s_p99_us",
        "serve_window60s_error_rate", "serve_slow_queries"}) {
    EXPECT_TRUE(snapshot.gauges.count(name)) << name;
  }
  EXPECT_GT(snapshot.gauges.at("serve_window60s_qps"), 0.0);
}

}  // namespace
}  // namespace cem
