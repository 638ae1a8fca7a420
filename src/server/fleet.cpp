#include "server/fleet.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <exception>
#include <string>
#include <utility>

#include "server/protocol.hpp"
#include "util/error.hpp"

namespace memstress::server {

namespace {

/// Child side of one worker: build the service, serve it, report the bound
/// port to the parent, then park until SIGKILL. Never returns; every exit
/// path is _exit() so the parent's atexit handlers and stream buffers are
/// not run (or flushed) twice.
[[noreturn]] void worker_child(const ServiceFactory& factory,
                               ServerConfig config, int report_fd) {
  try {
    std::shared_ptr<const MemstressService> service = factory();
    Server server(std::move(config), std::move(service));
    server.start();
    // Plain write() loop: report_fd is a pipe, not a socket.
    const std::string report = std::to_string(server.port()) + "\n";
    std::size_t written = 0;
    while (written < report.size()) {
      const ssize_t n = ::write(report_fd, report.data() + written,
                                report.size() - written);
      if (n > 0) {
        written += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      _exit(1);
    }
    ::close(report_fd);
    for (;;) ::pause();  // parked; only SIGKILL ends a fleet worker
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet worker: %s\n", e.what());
    _exit(1);
  } catch (...) {
    _exit(1);
  }
}

}  // namespace

LocalWorkerFleet::LocalWorkerFleet(int count, ServiceFactory factory,
                                   ServerConfig config) {
  require(count >= 1, "LocalWorkerFleet: count must be >= 1");
  require(static_cast<bool>(factory), "LocalWorkerFleet: null factory");
  config.port = 0;  // each worker binds its own ephemeral port
  workers_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    int fds[2];
    require(::pipe(fds) == 0, "LocalWorkerFleet: pipe() failed");
    const pid_t child = ::fork();
    require(child >= 0, "LocalWorkerFleet: fork() failed");
    if (child == 0) {
      ::close(fds[0]);
      worker_child(factory, config, fds[1]);  // never returns
    }
    ::close(fds[1]);
    // Plain read() loop: LineReader is recv()-based and sockets-only, and
    // the report is one short line anyway.
    std::string report;
    char byte = 0;
    ssize_t n = 0;
    while (report.find('\n') == std::string::npos &&
           (n = ::read(fds[0], &byte, 1)) == 1 && report.size() < 64)
      report.push_back(byte);
    ::close(fds[0]);
    if (report.empty() || report.back() != '\n') {
      ::kill(child, SIGKILL);
      ::waitpid(child, nullptr, 0);
      throw Error("LocalWorkerFleet: worker " + std::to_string(i) +
                  " failed to start (no port report)");
    }
    Worker worker;
    worker.pid = child;
    worker.port = std::stoi(report);
    worker.alive = true;
    require(worker.port > 0 && worker.port <= 65535,
            "LocalWorkerFleet: worker reported a bad port");
    workers_.push_back(worker);
  }
}

LocalWorkerFleet::~LocalWorkerFleet() {
  for (int i = 0; i < count(); ++i) kill(i);
}

const LocalWorkerFleet::Worker& LocalWorkerFleet::checked(int i) const {
  require(i >= 0 && i < count(), "LocalWorkerFleet: worker index out of range");
  return workers_[static_cast<std::size_t>(i)];
}

int LocalWorkerFleet::port(int i) const { return checked(i).port; }

pid_t LocalWorkerFleet::pid(int i) const { return checked(i).pid; }

bool LocalWorkerFleet::alive(int i) const { return checked(i).alive; }

std::vector<WorkerEndpoint> LocalWorkerFleet::endpoints() const {
  std::vector<WorkerEndpoint> all;
  all.reserve(workers_.size());
  for (const Worker& worker : workers_) {
    if (!worker.alive) continue;
    WorkerEndpoint endpoint;
    endpoint.port = worker.port;
    all.push_back(std::move(endpoint));
  }
  return all;
}

void LocalWorkerFleet::kill(int i) {
  checked(i);  // bounds
  Worker& worker = workers_[static_cast<std::size_t>(i)];
  if (!worker.alive) return;
  ::kill(worker.pid, SIGKILL);
  ::waitpid(worker.pid, nullptr, 0);
  worker.alive = false;
}

}  // namespace memstress::server
