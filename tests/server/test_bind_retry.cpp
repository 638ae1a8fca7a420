// Server::start()'s bounded bind retry: a restart on a pinned port must
// survive the EADDRINUSE window left by a predecessor (or by the kernel still
// tearing the old listener down) instead of failing the deploy, and a port
// held past the window must still fail with the bind error.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "server/client.hpp"
#include "server_test_util.hpp"

namespace memstress::server {
namespace {

/// A plain listener (no SO_REUSEADDR sharing semantics matter here — two
/// *listeners* on one port always collide) occupying a loopback port.
struct PortHog {
  int fd = -1;
  int port = 0;

  PortHog() {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    ::listen(fd, 1);
    socklen_t len = sizeof addr;
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    port = ntohs(addr.sin_port);
  }
  ~PortHog() { release(); }
  void release() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

TEST(ServerBindRetry, RapidStopStartLoopOnAPinnedPortSucceeds) {
  // Learn a free port, then rapid-cycle servers on it. Each restart races
  // the previous listener's teardown; the bounded retry absorbs it.
  int pinned = 0;
  {
    TestServer probe;
    pinned = probe.server.port();
    probe.server.stop();
  }
  for (int cycle = 0; cycle < 4; ++cycle) {
    ServerConfig config;
    config.port = pinned;
    config.workers = 1;
    TestServer fixture(config);
    Client client(fixture.client_config());
    EXPECT_NO_THROW(client.request("health")) << "cycle " << cycle;
    fixture.server.stop();
  }
}

TEST(ServerBindRetry, WaitsOutAnOccupiedPortThenBinds) {
  PortHog hog;
  ServerConfig config;
  config.port = hog.port;
  config.workers = 1;
  auto service = make_test_service(config.service_info());
  Server server(config, service);

  // Release the port from another thread mid-retry; start() must pick it
  // up on a later attempt instead of having failed on the first.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    hog.release();
  });
  server.start();
  releaser.join();
  EXPECT_EQ(server.port(), config.port);
  ClientConfig client_config;
  client_config.port = server.port();
  Client client(client_config);
  EXPECT_NO_THROW(client.request("health"));
  server.stop();
}

TEST(ServerBindRetry, PortHeldPastTheWindowFailsWithTheBindError) {
  PortHog hog;
  ServerConfig config;
  config.port = hog.port;
  config.workers = 1;
  auto service = make_test_service(config.service_info());
  Server server(config, service);
  const auto start = std::chrono::steady_clock::now();
  try {
    server.start();
    FAIL() << "bound a port another listener holds";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot bind"), std::string::npos)
        << e.what();
  }
  // 20 retries 50 ms apart: the window is about 1 s, not forever.
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  EXPECT_GE(waited, 0.9);
  EXPECT_LT(waited, 5.0);
}

}  // namespace
}  // namespace memstress::server
