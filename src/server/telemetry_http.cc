#include "server/telemetry_http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/metrics.h"

namespace cfest {
namespace {

/// Hard cap on a request head; a scraper's GET line plus headers fits in a
/// fraction of this, and anything larger is dropped rather than buffered.
constexpr size_t kMaxRequestBytes = 16 * 1024;

std::string StatusLine(int code) {
  switch (code) {
    case 200: return "HTTP/1.1 200 OK\r\n";
    case 404: return "HTTP/1.1 404 Not Found\r\n";
    case 405: return "HTTP/1.1 405 Method Not Allowed\r\n";
    default:  return "HTTP/1.1 500 Internal Server Error\r\n";
  }
}

std::string RenderResponse(int code, const std::string& content_type,
                           const std::string& body) {
  std::string out = StatusLine(code);
  out += "Content-Type: " + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

using Clock = std::chrono::steady_clock;

/// Waits until `fd` is ready for `events`. Returns false once `deadline`
/// passes first, or if the wait fails.
bool WaitReady(int fd, short events, Clock::time_point deadline) {
  for (;;) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return false;
    pollfd ready{fd, events, 0};
    const int polled = ::poll(&ready, 1, static_cast<int>(left.count()));
    if (polled > 0) return true;
    if (polled == 0 || errno != EINTR) return false;
  }
}

/// Writes `data` until it is all sent, the peer goes away, or `deadline`
/// passes: every write waits for POLLOUT on the remaining time and never
/// blocks, so a client that drains the response slowly is cut off at the
/// deadline however it paces its reads.
void SendAll(int fd, const std::string& data, Clock::time_point deadline) {
  size_t sent = 0;
  while (sent < data.size()) {
    if (!WaitReady(fd, POLLOUT, deadline)) return;
    // MSG_NOSIGNAL: a scraper hanging up mid-response must surface as an
    // error return, not a process-wide SIGPIPE.
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;
    }
    if (n <= 0) return;  // peer gone; nothing to recover
    sent += static_cast<size_t>(n);
  }
}

/// Reads into `head` until the end of the request head (blank line), the
/// size cap, or the peer stops sending. Any request body is ignored — all
/// supported routes are GET. Returns false if `deadline` passes first: the
/// whole head must arrive by then, however slowly it is trickled.
bool ReadRequestHead(int fd, Clock::time_point deadline, std::string* head) {
  char buf[2048];
  size_t scanned = 0;  // head[0, scanned) holds no complete terminator
  while (head->size() < kMaxRequestBytes &&
         head->find("\r\n\r\n", scanned) == std::string::npos) {
    scanned = head->size() < 3 ? 0 : head->size() - 3;
    if (!WaitReady(fd, POLLIN, deadline)) return false;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    head->append(buf, static_cast<size_t>(n));
  }
  return true;
}

}  // namespace

TelemetryHttpServer::~TelemetryHttpServer() { Stop(); }

Status TelemetryHttpServer::Start(uint16_t port,
                                  const std::string& bind_address) {
  if (running_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("telemetry server already running on port " +
                                 std::to_string(port_));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("telemetry bind address is not an IPv4 "
                                   "address: '" + bind_address + "'");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string message = std::strerror(errno);
    ::close(fd);
    return Status::Internal("bind " + bind_address + ":" +
                            std::to_string(port) + ": " + message);
  }
  if (::listen(fd, /*backlog=*/16) != 0) {
    const std::string message = std::strerror(errno);
    ::close(fd);
    return Status::Internal("listen: " + message);
  }
  // Read the bound port back — with port 0 the kernel picked one.
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const std::string message = std::strerror(errno);
    ::close(fd);
    return Status::Internal("getsockname: " + message);
  }
  listen_fd_ = fd;
  port_ = ntohs(bound.sin_port);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void TelemetryHttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // shutdown() (not just close) wakes the accept thread out of its
  // blocking accept; the loop then sees running_ == false and exits.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
}

void TelemetryHttpServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      // Stop() shut the listener down (or the socket broke for good);
      // either way the loop is done.
      if (!running_.load(std::memory_order_acquire)) break;
      break;
    }
    HandleConnection(client, Clock::now() + std::chrono::milliseconds(
                                                kConnectionDeadlineMs));
    ::close(client);
  }
}

void TelemetryHttpServer::HandleConnection(int client_fd,
                                           Clock::time_point deadline) {
  std::string head;
  if (!ReadRequestHead(client_fd, deadline, &head)) {
    return;  // too slow: hang up without an answer
  }
  const size_t line_end = head.find("\r\n");
  const std::string request_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  // "GET /path HTTP/1.1" — split on the two spaces.
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  const std::string method =
      sp1 == std::string::npos ? "" : request_line.substr(0, sp1);
  std::string path = sp2 == std::string::npos
                         ? ""
                         : request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  // Scrapers may append query parameters; the routes ignore them.
  const size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  std::string response;
  if (method != "GET") {
    response = RenderResponse(405, "text/plain; charset=utf-8",
                              "method not allowed\n");
  } else if (path == "/healthz") {
    response = RenderResponse(200, "text/plain; charset=utf-8", "ok\n");
  } else if (path == "/metrics") {
    response = RenderResponse(200, "text/plain; version=0.0.4; charset=utf-8",
                              metrics::MetricRegistry::Global()
                                  .Snapshot()
                                  .ToPrometheusText());
  } else if (path == "/metrics.json") {
    response = RenderResponse(
        200, "application/json",
        metrics::MetricRegistry::Global().Snapshot().ToJson());
  } else {
    response = RenderResponse(404, "text/plain; charset=utf-8", "not found\n");
  }
  SendAll(client_fd, response, deadline);
}

}  // namespace cfest
