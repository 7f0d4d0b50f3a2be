#ifndef CEM_SERVE_STATS_SERVER_H_
#define CEM_SERVE_STATS_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "util/status.h"

namespace cem::serve {

/// Pull-based sources of the endpoints that read live serving state (the
/// registry endpoints need none). Every callable must be thread-safe —
/// the accept thread invokes them concurrently with the serving pipeline.
/// Unset members fall back to static defaults (healthy, empty slow log).
struct StatsSources {
  /// Runs before every metrics snapshot (both renderings) — the hook the
  /// service uses to republish its rolling-window gauges so a scrape sees
  /// current 1s/10s/60s values, not the last quiescent publication.
  std::function<void()> refresh;
  /// Body of /slowlog.json (a JSON array; SlowQueryLog::ToJson).
  std::function<std::string()> slowlog_json;
  /// /healthz verdict; false renders 503 (the ingest-stall watchdog).
  std::function<bool()> healthy;
};

/// The live stats endpoint: a minimal blocking HTTP listener — one
/// listening socket on 127.0.0.1, one accept thread, connections served
/// one at a time, HTTP/1.0 close-per-response, zero dependencies. This is
/// an operational introspection port (curl, a Prometheus scraper, a
/// readiness probe), deliberately not a web server: no keep-alive, no
/// TLS, no request bodies, loopback only.
///
/// Endpoints:
///   /metrics       Prometheus text exposition (obs/expo.h) of the global
///                  registry — counters, gauges, latency summaries.
///   /metrics.json  The same MetricsSnapshot as flat JSON — byte-equal to
///                  what `dedup_tool --metrics-json` writes at the same
///                  instant (one snapshot feeds both renderings).
///   /slowlog.json  The slow-query log, worst first (obs/query_trace.h).
///   /healthz       200 "ok" / 503 "stalled" per StatsSources::healthy.
class StatsServer {
 public:
  /// One rendered response (Handle() is the socket-free routing surface
  /// the unit tests drive directly).
  struct Response {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };

  /// Binds 127.0.0.1:`port` (0 = ephemeral; see port() for the actual
  /// one) and starts the accept thread. Internal error when the socket
  /// cannot be created or bound.
  static Result<std::unique_ptr<StatsServer>> Start(uint16_t port,
                                                    StatsSources sources = {});

  /// Shuts the listener down and joins the accept thread.
  ~StatsServer();

  StatsServer(const StatsServer&) = delete;
  StatsServer& operator=(const StatsServer&) = delete;

  /// The bound port (the ephemeral assignment when Start got port 0).
  uint16_t port() const { return port_; }

  /// Routes one request path to its rendered response (404 for unknown
  /// paths). Thread-safe; the accept loop calls this per connection.
  Response Handle(std::string_view path) const;

 private:
  StatsServer(int listen_fd, uint16_t port, StatsSources sources);

  void AcceptLoop();
  /// Reads the request through its blank line (bounded), routes the
  /// request line, writes the response.
  void ServeConnection(int fd) const;

  const int listen_fd_;
  const uint16_t port_;
  const StatsSources sources_;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace cem::serve

#endif  // CEM_SERVE_STATS_SERVER_H_
