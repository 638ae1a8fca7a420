// Shared fixture pieces for the memstressd tests: a synthetic
// detectability database (no analog simulation — the server tests exercise
// sockets and threading, not solver physics) and a service/server factory
// over it. The synthetic rule is the same split as the estimator tests:
// VLV catches bridges up to 1 kOhm, Vmax catches opens.
#pragma once

#include <cerrno>
#include <memory>
#include <string>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "defects/sampler.hpp"
#include "server/client.hpp"
#include "estimator/coverage.hpp"
#include "estimator/detectability.hpp"
#include "layout/sram_layout.hpp"
#include "server/server.hpp"
#include "server/service.hpp"

namespace memstress::server {

/// Every bridge/open category at the five standard-leg stress conditions,
/// so any handler (including the schedule optimizer's Monte-Carlo sampler)
/// finds an entry for whatever defect it draws.
inline estimator::DetectabilityDb synthetic_server_db() {
  std::vector<estimator::DbEntry> entries;
  const auto add = [&entries](defects::DefectKind kind, int category, double r,
                              double vdd, double period, bool detected) {
    estimator::DbEntry e;
    e.kind = kind;
    e.category = category;
    e.resistance = r;
    e.vdd = vdd;
    e.period = period;
    e.detected = detected;
    entries.push_back(e);
  };
  for (int cat = 0; cat <= static_cast<int>(layout::BridgeCategory::Other);
       ++cat)
    for (const double r : {20.0, 1e3, 10e3, 90e3})
      for (const double vdd : {1.0, 1.65, 1.8, 1.95})
        for (const double period : {100e-9, 25e-9, 15e-9})
          add(defects::DefectKind::Bridge, cat, r, vdd, period,
              vdd < 1.2 || r <= 1e3);
  for (int cat = 0; cat <= static_cast<int>(layout::OpenCategory::Other);
       ++cat)
    for (const double r : {1e4, 1e6, 1e8})
      for (const double vdd : {1.0, 1.65, 1.8, 1.95})
        for (const double period : {100e-9, 25e-9, 15e-9})
          add(defects::DefectKind::Open, cat, r, vdd, period, vdd > 1.9);
  return estimator::DetectabilityDb(std::move(entries));
}

inline std::shared_ptr<const MemstressService> make_test_service(
    ServiceInfo info = {}) {
  auto db = std::make_shared<const estimator::DetectabilityDb>(
      synthetic_server_db());
  const auto model = layout::generate_sram_layout(8, 8);
  sram::BlockSpec block;
  block.rows = 2;
  block.cols = 1;
  defects::FabModel fab;
  defects::DefectSampler sampler(
      defects::aggregate_sites(layout::extract_bridges(model),
                               layout::extract_opens(model)),
      fab, block);
  return std::make_shared<const MemstressService>(
      std::move(db), estimator::PopulationModel::calibrate(), fab,
      std::move(sampler), info);
}

/// A started server on an ephemeral loopback port plus the service behind
/// it, so tests can compute expected payloads with direct library calls.
struct TestServer {
  std::shared_ptr<const MemstressService> service;
  Server server;

  explicit TestServer(ServerConfig config = {})
      : service(make_test_service(config.service_info())),
        server(std::move(config), service) {
    server.start();
  }

  ClientConfig client_config() const {
    ClientConfig config;
    config.port = server.port();
    return config;
  }

  /// The exact response line the server must produce for `line` — same
  /// handlers, same serializer, no socket.
  std::string expected_response(const std::string& line) const {
    const Request request = parse_request(line);
    return make_response(request.id, service->handle(request, {}));
  }
};

/// Write the whole buffer (handles short writes; suppresses SIGPIPE).
/// Returns false on any write error.
inline bool write_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Minimal raw TCP connection for tests that need to break the protocol in
/// ways Client refuses to (half-closed writes, unterminated frames).
struct RawConnection {
  int fd = -1;

  explicit RawConnection(int port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      fd = -1;
    }
  }
  ~RawConnection() {
    if (fd >= 0) ::close(fd);
  }
  bool connected() const { return fd >= 0; }
  void finish_writing() const { ::shutdown(fd, SHUT_WR); }
};

/// In-process replica of the reactor's handle_line -> Server::execute path
/// for the fuzzer and the regression-corpus replay: same parse ->
/// handle_serialized -> envelope path, same structured error mapping, same
/// decide-the-verdict-once timeout accounting, no sockets and no chaos
/// site. Any exception escaping THIS function is a protocol-stack bug by
/// definition — that is exactly the oracle the fuzz harness enforces.
inline std::string handle_line_inprocess(const MemstressService& service,
                                         const std::string& line,
                                         int timeout_ms = 2000) {
  Request request;
  try {
    request = parse_request(line);
  } catch (const ProtocolError& e) {
    return make_error(0, "parse_error", std::string("request:1: ") + e.what());
  }
  RequestContext context;
  context.deadline = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(timeout_ms);
  try {
    const std::string payload = service.handle_serialized(request, context);
    if (context.past_deadline())
      return make_error(request.id, "timeout", "request:1: deadline of " +
                                                   std::to_string(timeout_ms) +
                                                   " ms exceeded");
    return make_response_from_payload(request.id, payload);
  } catch (const ProtocolError& e) {
    return make_error(request.id, "bad_request",
                      std::string("request:1: ") + e.what());
  } catch (const CancelledError& e) {
    return make_error(request.id, "shutting_down",
                      std::string("request:1: ") + e.what());
  } catch (const Error& e) {
    return make_error(request.id, "internal",
                      std::string("request:1: ") + e.what());
  }
}

}  // namespace memstress::server
