// Tests for the embedded telemetry endpoint (server/telemetry_http.h):
// lifecycle (ephemeral-port start, idempotent stop, restart), the loopback
// default bind, routing (/healthz, /metrics Prometheus text, /metrics.json,
// 404, 405), slow, silent and trickling clients, a client that drains a
// large response slowly, and that
// scraped payloads reflect live registry counters — including labeled
// children — without the server caching anything between requests.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "server/telemetry_http.h"

namespace cfest {
namespace {

/// Client-side receive timeout: a server that stalls fails the test
/// instead of hanging it.
constexpr int kClientTimeoutSec = 10;

/// Opens a blocking TCP socket to `host`:`port`, with a `rcvbuf`-byte
/// receive buffer unless 0; returns the fd, or -1 with errno set if the
/// connection is refused.
int TryConnect(uint16_t port, const char* host, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0) << std::strerror(errno);
  if (rcvbuf > 0) {
    // Before connect(), so the window the client advertises starts small.
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  timeval timeout{};
  timeout.tv_sec = kClientTimeoutSec;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, host, &addr.sin_addr), 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int error = errno;
    ::close(fd);
    errno = error;
    return -1;
  }
  return fd;
}

/// Connects a blocking TCP client to 127.0.0.1:`port`.
int Connect(uint16_t port, int rcvbuf = 0) {
  const int fd = TryConnect(port, "127.0.0.1", rcvbuf);
  EXPECT_GE(fd, 0) << std::strerror(errno);
  return fd;
}

/// Reads everything the server writes until it closes the connection.
std::string ReadToClose(int fd) {
  std::string response;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  return response;
}

/// Blocking one-shot HTTP client: connects to 127.0.0.1:`port`, sends the
/// request verbatim, and returns everything the server wrote until it
/// closed the connection.
std::string HttpRoundTrip(uint16_t port, const std::string& request) {
  const int fd = Connect(port);
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response = ReadToClose(fd);
  ::close(fd);
  return response;
}

std::string Get(uint16_t port, const std::string& path) {
  return HttpRoundTrip(port, "GET " + path +
                                 " HTTP/1.1\r\nHost: localhost\r\n"
                                 "Connection: close\r\n\r\n");
}

std::string Body(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

TEST(TelemetryHttpTest, StartsOnEphemeralPortAndStops) {
  TelemetryHttpServer server;
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_TRUE(server.running());
  EXPECT_NE(server.port(), 0);
  // A second Start while running must refuse, not rebind.
  EXPECT_FALSE(server.Start(0).ok());
  server.Stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0);
  server.Stop();  // idempotent
  // And the server restarts cleanly after a stop.
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_TRUE(server.running());
  server.Stop();
}

TEST(TelemetryHttpTest, HealthzRespondsOk) {
  TelemetryHttpServer server;
  ASSERT_TRUE(server.Start(0).ok());
  const std::string response = Get(server.port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_EQ(Body(response), "ok\n");
  server.Stop();
}

TEST(TelemetryHttpTest, UnknownRouteIs404AndNonGetIs405) {
  TelemetryHttpServer server;
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_NE(Get(server.port(), "/nope").find("404 Not Found"),
            std::string::npos);
  const std::string post = HttpRoundTrip(
      server.port(),
      "POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n");
  EXPECT_NE(post.find("405 Method Not Allowed"), std::string::npos) << post;
  server.Stop();
}

TEST(TelemetryHttpTest, SilentClientDoesNotStallLaterScrapes) {
  TelemetryHttpServer server;
  ASSERT_TRUE(server.Start(0).ok());
  // Connects and never sends a byte. The serial accept thread takes it
  // first (the accept queue is FIFO) and blocks reading its request head.
  const int silent = Connect(server.port());
  const auto start = std::chrono::steady_clock::now();
  const std::string response = Get(server.port(), "/healthz");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_LT(elapsed, std::chrono::milliseconds(
                         TelemetryHttpServer::kConnectionDeadlineMs) +
                         std::chrono::seconds(3));
  // The server gave up on the silent client and closed it: reading drains
  // to end-of-stream instead of timing out.
  char buf[512];
  ssize_t n = 0;
  while ((n = ::recv(silent, buf, sizeof(buf), 0)) > 0) {
  }
  EXPECT_EQ(n, 0) << std::strerror(errno);
  ::close(silent);
  server.Stop();
}

TEST(TelemetryHttpTest, ByteAtATimeClientGetsCompleteResponse) {
  TelemetryHttpServer server;
  ASSERT_TRUE(server.Start(0).ok());
  const int fd = Connect(server.port());
  // No Nagle batching: every byte leaves in its own segment, so the server
  // sees the request head arrive in one-byte reads.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const std::string request =
      "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n";
  for (const char c : request) {
    ASSERT_EQ(::send(fd, &c, 1, MSG_NOSIGNAL), 1) << std::strerror(errno);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::string response = ReadToClose(fd);
  ::close(fd);
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("Content-Length: 3\r\n"), std::string::npos)
      << response;
  EXPECT_EQ(Body(response), "ok\n");
  server.Stop();
}

TEST(TelemetryHttpTest, TricklingClientIsCutOffAtTheHeadDeadline) {
  TelemetryHttpServer server;
  ASSERT_TRUE(server.Start(0).ok());
  const int trickler = Connect(server.port());
  const int one = 1;
  ::setsockopt(trickler, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const std::string start_of_head = "GET /healthz HTTP/1.1\r\nX-Pad: ";
  ASSERT_EQ(::send(trickler, start_of_head.data(), start_of_head.size(),
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(start_of_head.size()));
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      std::chrono::milliseconds(TelemetryHttpServer::kConnectionDeadlineMs);

  // A scrape queued behind the trickler.
  std::string response;
  std::chrono::steady_clock::duration scrape_time{};
  std::thread scraper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const auto issued = std::chrono::steady_clock::now();
    response = Get(server.port(), "/healthz");
    scrape_time = std::chrono::steady_clock::now() - issued;
  });

  // One header byte every 100 ms, each read answered quickly, never ending
  // the head: only the total deadline can stop this client. Trickle
  // until the server hangs up, or give up well past the deadline.
  bool cut_off = false;
  while (std::chrono::steady_clock::now() - start < 5 * deadline) {
    char probe;
    const ssize_t r = ::recv(trickler, &probe, 1, MSG_DONTWAIT);
    if (r >= 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      cut_off = true;  // end of stream, reset, or an (unexpected) answer
      break;
    }
    if (::send(trickler, "a", 1, MSG_NOSIGNAL) != 1) {
      cut_off = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  const auto held = std::chrono::steady_clock::now() - start;
  scraper.join();
  ::close(trickler);

  EXPECT_TRUE(cut_off);
  EXPECT_LT(held, deadline + std::chrono::seconds(2));
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_LT(scrape_time, deadline + std::chrono::seconds(3));
  server.Stop();
}

TEST(TelemetryHttpTest, BindsLoopbackByDefault) {
  // Linux routes all of 127.0.0.0/8 to the loopback interface, so a second
  // loopback address tells a 127.0.0.1-only listener from a wildcard one.
  TelemetryHttpServer server;
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_EQ(TryConnect(server.port(), "127.0.0.2"), -1);
  EXPECT_EQ(errno, ECONNREFUSED) << std::strerror(errno);
  server.Stop();

  ASSERT_TRUE(server.Start(0, "0.0.0.0").ok());
  const int fd = TryConnect(server.port(), "127.0.0.2");
  ASSERT_GE(fd, 0) << std::strerror(errno);
  ::close(fd);
  server.Stop();

  EXPECT_TRUE(server.Start(0, "localhost").IsInvalidArgument());
  EXPECT_FALSE(server.running());
}

#ifndef CFEST_METRICS_DISABLED

TEST(TelemetryHttpTest, MetricsRouteServesLivePrometheusText) {
  metrics::Counter plain;
  metrics::Counter labeled;
  auto plain_reg = metrics::MetricRegistry::Global().RegisterCounters(
      {{"cfest.test.http_scrape", &plain}});
  auto labeled_reg = metrics::MetricRegistry::Global().RegisterCounters(
      {{"table", "scrape_t"}}, {{"cfest.test.http_scrape", &labeled}});
  plain.Add(5);
  labeled.Add(7);

  TelemetryHttpServer server;
  ASSERT_TRUE(server.Start(0).ok());
  const std::string response = Get(server.port(), "/metrics");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  const std::string body = Body(response);
  // Aggregate = 5 + 7, labeled child listed with its label set.
  EXPECT_NE(body.find("cfest_test_http_scrape 12"), std::string::npos)
      << body;
  EXPECT_NE(body.find("cfest_test_http_scrape{table=\"scrape_t\"} 7"),
            std::string::npos)
      << body;

  // The server renders fresh per request: a later increment shows up in
  // the next scrape without a restart.
  plain.Add(100);
  EXPECT_NE(Body(Get(server.port(), "/metrics"))
                .find("cfest_test_http_scrape 112"),
            std::string::npos);
  server.Stop();
}

TEST(TelemetryHttpTest, MetricsJsonRouteServesSnapshotJson) {
  metrics::Counter counter;
  auto reg = metrics::MetricRegistry::Global().RegisterCounters(
      {{"table", "json_t"}}, {{"cfest.test.http_json", &counter}});
  counter.Add(3);

  TelemetryHttpServer server;
  ASSERT_TRUE(server.Start(0).ok());
  const std::string response = Get(server.port(), "/metrics.json");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  const std::string body = Body(response);
  EXPECT_NE(body.find("\"labeled_counters\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"cfest.test.http_json\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"json_t\""), std::string::npos) << body;
  server.Stop();
}

/// The largest send buffer TCP autotuning may grow a socket to: the third
/// field of net.ipv4.tcp_wmem, or Linux's 4 MB default if unreadable.
size_t MaxTcpSendBuffer() {
  std::ifstream in("/proc/sys/net/ipv4/tcp_wmem");
  size_t low = 0, initial = 0, max = 0;
  if (in >> low >> initial >> max) return max;
  return size_t{4} << 20;
}

TEST(TelemetryHttpTest, SlowlyDrainingClientIsCutOffAtTheDeadline) {
  // Labeled children with 1 KB label values make ~1 KB /metrics lines, and
  // enough of them outgrow the largest send buffer the kernel would give
  // the server's socket: the response cannot be parked in the kernel, so
  // sending it takes as long as the client takes to read it.
  const std::string pad(1000, 'p');
  const size_t children = MaxTcpSendBuffer() / pad.size() + 2048;
  for (size_t i = 0; i < children; ++i) {
    metrics::MetricRegistry::Global()
        .GetCounter("cfest.test.http_bulk", {{"pad", pad + std::to_string(i)}})
        ->Add(1);
  }
  TelemetryHttpServer server;
  ASSERT_TRUE(server.Start(0).ok());
  // A small receive buffer keeps the advertised window narrow.
  const int slow = Connect(server.port(), /*rcvbuf=*/4096);
  const std::string request = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::send(slow, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      std::chrono::milliseconds(TelemetryHttpServer::kConnectionDeadlineMs);

  // A scrape queued behind the slow client.
  std::atomic<bool> scraped{false};
  std::string response;
  std::chrono::steady_clock::duration served_after{};
  std::thread scraper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    response = Get(server.port(), "/healthz");
    served_after = std::chrono::steady_clock::now() - start;
    scraped = true;
  });

  // 4 KB every 100 ms: the server's pending write makes progress on every
  // read, so no per-write timeout ever fires, yet a full drain would take
  // minutes. Only a deadline on the whole response frees the accept thread
  // for the queued scrape. Read slowly until it is served, or give up well
  // past the deadline.
  std::string received;
  char buf[4096];
  while (!scraped && std::chrono::steady_clock::now() - start < 5 * deadline) {
    const ssize_t n = ::recv(slow, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) received.append(buf, static_cast<size_t>(n));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  // What the kernel had already taken from the server, then end of stream.
  received += ReadToClose(slow);
  ::close(slow);
  scraper.join();

  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_LT(served_after, deadline + std::chrono::seconds(1));
  // The server hung up mid-body.
  const size_t head_end = received.find("\r\n\r\n");
  ASSERT_NE(head_end, std::string::npos);
  const size_t length_at = received.find("Content-Length: ");
  ASSERT_LT(length_at, head_end);
  const size_t content_length = std::stoull(received.substr(length_at + 16));
  EXPECT_GT(content_length, MaxTcpSendBuffer());
  EXPECT_LT(received.size() - (head_end + 4), content_length);
  server.Stop();
}

#endif  // CFEST_METRICS_DISABLED

}  // namespace
}  // namespace cfest
