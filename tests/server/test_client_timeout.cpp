// Client resilience under a misbehaving or overloaded server.
//
// Three hazards are pinned here:
//   * A server that stalls mid-response (bytes sent, newline never comes)
//     must not wedge the client past its receive deadline — the timeout
//     has to fire even though data already arrived.
//   * A response line that never ends must not be buffered without bound:
//     past kMaxFrameBytes the client gives up on the connection.
//   * Sustained "busy" backpressure must not turn the retry loop into an
//     unbounded wait: retry_budget_ms caps the total wall time of one
//     request() including every backoff sleep.
#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "server/client.hpp"
#include "server_test_util.hpp"

namespace memstress::server {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// A deliberately hostile loopback server for client tests. Reads one
/// request line per connection, then misbehaves per `Mode`.
class MisbehavingServer {
 public:
  enum class Mode {
    StallMidResponse,  ///< send half a frame, then go silent
    AlwaysBusy,        ///< answer "busy" and close, forever
    DieMidResponse,    ///< send half a frame, then close — a server crash
    EndlessLine,       ///< send 2 MiB without a newline, then go silent
  };

  explicit MisbehavingServer(Mode mode) : mode_(mode) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    ::listen(listen_fd_, 16);
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    ::fcntl(listen_fd_, F_SETFL, O_NONBLOCK);
    thread_ = std::thread([this] { serve(); });
  }

  ~MisbehavingServer() {
    running_.store(false);
    thread_.join();
    ::close(listen_fd_);
  }

  int port() const { return port_; }

 private:
  void serve() {
    while (running_.load()) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      handle(fd);
      ::close(fd);
    }
  }

  void handle(int fd) {
    // Drain one request line (best effort — the exact bytes don't matter).
    char buffer[4096];
    std::string seen;
    while (seen.find('\n') == std::string::npos) {
      const ssize_t n = ::read(fd, buffer, sizeof buffer);
      if (n <= 0) return;
      seen.append(buffer, static_cast<std::size_t>(n));
    }
    if (mode_ == Mode::DieMidResponse) {
      // Half a frame, then the close() in the caller — the wire view of a
      // server killed mid-write. The client must classify this as
      // ConnectionLost, not wait out its receive timeout.
      const std::string partial = "{\"v\":1,\"id\":1,\"ok\":tr";
      (void)::write(fd, partial.data(), partial.size());
      return;
    }
    if (mode_ == Mode::StallMidResponse || mode_ == Mode::EndlessLine) {
      // Half a frame (or twice the frame bound): the client has bytes but
      // no newline. Then hold the connection open until the client gives
      // up. write_all stops at the client's hang-up (EPIPE, no SIGPIPE).
      if (mode_ == Mode::EndlessLine)
        (void)write_all(fd, std::string(2 * kMaxFrameBytes, 'x'));
      else
        (void)write_all(fd, "{\"v\":1,\"id\":1,\"ok\":tr");
      while (running_.load()) {
        const ssize_t n = ::read(fd, buffer, sizeof buffer);
        if (n <= 0) return;  // client hung up — done stalling
      }
    } else {
      const std::string line =
          make_error(0, "busy", "synthetic overload, try later") + "\n";
      (void)::write(fd, line.data(), line.size());
      // Like the real acceptor: busy answers are followed by a close.
    }
  }

  Mode mode_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{true};
  std::thread thread_;
};

TEST(ClientTimeout, StalledMidResponseServerCannotWedgeTheClient) {
  MisbehavingServer server(MisbehavingServer::Mode::StallMidResponse);
  ClientConfig config;
  config.port = server.port();
  config.timeout_ms = 300;
  Client client(config);

  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(client.roundtrip("{\"v\":1,\"id\":1,\"type\":\"health\"}"),
               Error);
  const double elapsed = seconds_since(start);
  EXPECT_GE(elapsed, 0.2);  // the timeout, not an instant failure
  EXPECT_LT(elapsed, 5.0);  // bounded — never the far side of the stall
}

TEST(ClientTimeout, SlowHandlerIsBoundedByTheReceiveDeadline) {
  // The end-to-end variant against the real server: a hidden "sleep"
  // request holds the worker far past the client's deadline. The client
  // must give up at its own timeout, not wait out the handler.
  ServerConfig server_config;
  server_config.workers = 2;
  TestServer fixture(server_config);
  ClientConfig config = fixture.client_config();
  config.timeout_ms = 200;
  Client client(config);

  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(client.roundtrip("{\"v\":1,\"id\":1,\"type\":\"sleep\","
                                "\"params\":{\"ms\":1000}}"),
               Error);
  EXPECT_LT(seconds_since(start), 0.9);  // well before the 1 s handler
  fixture.server.stop();
}

TEST(ClientTimeout, RetryBudgetCapsTotalWallTimeUnderSustainedBusy) {
  MisbehavingServer server(MisbehavingServer::Mode::AlwaysBusy);
  ClientConfig config;
  config.port = server.port();
  config.timeout_ms = 1000;
  config.max_retries = 1000;  // attempts alone must not be the bound
  config.backoff_initial_ms = 20;
  config.backoff_max_ms = 50;
  config.retry_budget_ms = 300;
  Client client(config);

  const auto start = std::chrono::steady_clock::now();
  try {
    client.request("health");
    FAIL() << "sustained busy must surface as ServerError";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), "busy");
  }
  const double elapsed = seconds_since(start);
  EXPECT_LT(elapsed, 2.0);  // budget + one in-flight exchange, not minutes
}

TEST(ClientConnectionLost, ServerDyingMidResponseIsTypedConnectionLost) {
  // The coordinator's died-vs-slow distinction: a connection that closes
  // mid-frame is ConnectionLost (requeue the shard now), never a generic
  // timeout-shaped Error (just retry later).
  MisbehavingServer server(MisbehavingServer::Mode::DieMidResponse);
  ClientConfig config;
  config.port = server.port();
  config.timeout_ms = 5000;
  Client client(config);

  const auto start = std::chrono::steady_clock::now();
  try {
    client.request("health");
    FAIL() << "a mid-frame close must throw";
  } catch (const ConnectionLost&) {
    // typed as intended
  } catch (const Error& e) {
    FAIL() << "expected ConnectionLost, got plain Error: " << e.what();
  }
  // Classified by the close, not by waiting out the receive deadline.
  EXPECT_LT(seconds_since(start), 2.0);
}

TEST(ClientConnectionLost, EndlessResponseLineIsBounded) {
  // A peer that streams a line with no end is not speaking the protocol:
  // the client stops at the frame bound with ConnectionLost instead of
  // buffering until its timeout (or forever, if the peer keeps sending).
  MisbehavingServer server(MisbehavingServer::Mode::EndlessLine);
  ClientConfig config;
  config.port = server.port();
  config.timeout_ms = 5000;
  Client client(config);

  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(client.pipeline({"{\"v\":1,\"id\":1,\"type\":\"health\"}"}),
               ConnectionLost);
  EXPECT_LT(seconds_since(start), 2.0);  // the bound, not the timeout
}

TEST(ClientConnectionLost, ConnectRefusedIsTypedConnectionLost) {
  // Grab a port that refuses connections: bind + listen, note the port,
  // close — nothing is listening there for the duration of the test.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const int dead_port = ntohs(addr.sin_port);
  ::close(fd);

  ClientConfig config;
  config.port = dead_port;
  config.timeout_ms = 1000;
  Client client(config);
  EXPECT_THROW(client.request("health"), ConnectionLost);
}

TEST(ClientConnectionLost, ReceiveTimeoutStaysAPlainError) {
  // The inverse pin: a slow (stalled) server is NOT ConnectionLost — the
  // transport is alive, so a coordinator must not requeue onto survivors.
  MisbehavingServer server(MisbehavingServer::Mode::StallMidResponse);
  ClientConfig config;
  config.port = server.port();
  config.timeout_ms = 200;
  Client client(config);
  try {
    client.request("health");
    FAIL() << "a stalled response must time out";
  } catch (const ConnectionLost& e) {
    FAIL() << "timeout misclassified as ConnectionLost: " << e.what();
  } catch (const Error&) {
    // the intended classification
  }
}

TEST(ClientTimeout, IdleConnectionIsReopenedForTheNextRequest) {
  // Past idle_timeout_ms the server sends its "idle_timeout" farewell and
  // closes without reading further. The farewell waits on the socket, so
  // the next request reads it as its answer; request() must reconnect and
  // resend, as it does after "busy", not throw for a request the server
  // never read.
  ServerConfig server_config;
  server_config.idle_timeout_ms = 100;
  TestServer fixture(server_config);
  Client client(fixture.client_config());
  EXPECT_EQ(client.request("health").at("status").as_string(), "ok");
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_EQ(client.request("health").at("status").as_string(), "ok");
}

TEST(ClientTimeout, BackoffSleepsAreCappedAtBackoffMax) {
  MisbehavingServer server(MisbehavingServer::Mode::AlwaysBusy);
  ClientConfig config;
  config.port = server.port();
  config.max_retries = 6;
  config.backoff_initial_ms = 10;
  config.backoff_max_ms = 20;   // without the cap: 10+20+40+80+160+320
  config.retry_budget_ms = 0;   // budget off — the cap is what bounds us
  Client client(config);

  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(client.request("health"), ServerError);
  const double elapsed = seconds_since(start);
  // Capped sleeps: 10 + 20*5 = 110 ms plus exchange overhead. The uncapped
  // series would need at least 630 ms of sleep alone.
  EXPECT_LT(elapsed, 0.6);
}

}  // namespace
}  // namespace memstress::server
