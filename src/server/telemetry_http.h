// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// TelemetryHttpServer — a minimal embedded HTTP endpoint for live metric
// scraping. Plain blocking POSIX sockets, one background accept thread, no
// third-party dependencies: just enough HTTP/1.1 to serve a Prometheus
// scraper or a curl in a CI step.
//
// Routes (GET only):
//   /metrics       Prometheus text exposition of the global registry
//                  (text/plain; version=0.0.4), including labeled children.
//   /metrics.json  The same snapshot as JSON (application/json).
//   /healthz       Liveness probe; responds "ok\n" (text/plain).
// Anything else is 404; non-GET methods are 405.
//
// Every response is rendered fresh per request from
// MetricRegistry::Global().Snapshot() — the server holds no metric state of
// its own, so it can start before, during, or after the instrumented work.
// Connections are handled serially on the accept thread (Connection: close,
// Content-Length always set); a telemetry scrape every few seconds does not
// need concurrency, and serial handling keeps the server trivially correct.
// Every connection has one total deadline (kConnectionDeadlineMs from the
// accept) covering both the request head and the response: every read and
// write polls against it. A client that sends nothing, trickles its head,
// never reads, or drains the response a few bytes at a time is hung up on
// once it passes, so it holds the accept thread for at most that long
// instead of stalling every later scrape (and Stop()).
//
// Lifecycle: Start(port) binds the loopback interface (port 0 picks an
// ephemeral port — use port() to learn it, handy for tests and for CI
// scrapes); Start(port, address) binds another IPv4 address, "0.0.0.0" for
// every interface. Stop() shuts the listener down and joins the thread.
// Stop is idempotent and is also called from the destructor.

#ifndef CFEST_SERVER_TELEMETRY_HTTP_H_
#define CFEST_SERVER_TELEMETRY_HTTP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "common/status.h"

namespace cfest {

class TelemetryHttpServer {
 public:
  TelemetryHttpServer() = default;
  ~TelemetryHttpServer();

  TelemetryHttpServer(const TelemetryHttpServer&) = delete;
  TelemetryHttpServer& operator=(const TelemetryHttpServer&) = delete;

  /// The whole request head must arrive, and the whole response be sent,
  /// within this of the accept, however either is split across reads and
  /// writes: the longest any client can hold the serial accept thread. A
  /// head that misses it goes unanswered; a response that misses it is cut
  /// off.
  static constexpr int kConnectionDeadlineMs = 2000;

  /// The address Start binds unless told otherwise: loopback only, so the
  /// endpoint is not reachable from other hosts by accident.
  static constexpr const char* kDefaultBindAddress = "127.0.0.1";

  /// Binds `port` on the IPv4 `bind_address` and starts the accept thread.
  /// Port 0 binds an ephemeral port (read it back with port()). Fails if
  /// the address does not parse, the server is already running, or the
  /// bind/listen fails.
  Status Start(uint16_t port,
               const std::string& bind_address = kDefaultBindAddress);

  /// Shuts the listener down and joins the accept thread. Safe to call
  /// when not running, and safe to call more than once.
  void Stop();

  /// Whether the accept thread is running.
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound TCP port (the ephemeral port when Start was given 0);
  /// 0 when the server is not running.
  uint16_t port() const { return port_; }

 private:
  void AcceptLoop();
  void HandleConnection(int client_fd,
                        std::chrono::steady_clock::time_point deadline);

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace cfest

#endif  // CFEST_SERVER_TELEMETRY_HTTP_H_
