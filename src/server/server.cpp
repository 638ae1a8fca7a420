#include "server/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/chaos.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace memstress::server {

std::size_t ensure_fd_budget(std::size_t want) {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return 0;
  if (limit.rlim_cur != RLIM_INFINITY && limit.rlim_cur < want) {
    rlimit raised = limit;
    raised.rlim_cur =
        limit.rlim_max == RLIM_INFINITY
            ? static_cast<rlim_t>(want)
            : std::min(static_cast<rlim_t>(want), limit.rlim_max);
    if (raised.rlim_cur > limit.rlim_cur &&
        ::setrlimit(RLIMIT_NOFILE, &raised) == 0)
      limit = raised;
  }
  return limit.rlim_cur == RLIM_INFINITY
             ? static_cast<std::size_t>(-1)
             : static_cast<std::size_t>(limit.rlim_cur);
}

ServiceInfo ServerConfig::service_info() const {
  return ServiceInfo{resolve_thread_count(workers), queue_depth, cache_entries,
                     batch_max};
}

// ---------------------------------------------------------------------------
// TaskQueue.

bool Server::TaskQueue::try_push(Task task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(task));
  }
  ready_.notify_one();
  return true;
}

std::optional<Server::Task> Server::TaskQueue::pop() {
  std::unique_lock<std::mutex> lock(mutex_);
  ready_.wait(lock, [&] { return closed_ || !items_.empty(); });
  if (items_.empty()) return std::nullopt;  // closed and drained
  Task task = std::move(items_.front());
  items_.pop_front();
  return task;
}

void Server::TaskQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  ready_.notify_all();
}

// ---------------------------------------------------------------------------
// Server.

namespace {

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

constexpr int kTickMs = 25;  ///< epoll_wait bound; timer sweep granularity
/// How long start() waits out a pinned port that a predecessor still holds:
/// 20 more binds, 50 ms apart, about 1 s.
constexpr int kBindRetries = 20;
constexpr int kBindRetryMs = 50;

}  // namespace

Server::Server(ServerConfig config,
               std::shared_ptr<const MemstressService> service)
    : config_(std::move(config)),
      service_(std::move(service)),
      queue_(static_cast<std::size_t>(config_.queue_depth)) {
  require(service_ != nullptr, "Server: null service");
  config_.workers = resolve_thread_count(config_.workers);
}

Server::~Server() { stop(); }

bool Server::stopping() const {
  return stopping_.load(std::memory_order_relaxed) ||
         cancel::process_token().cancelled();
}

void Server::wake_reactor() {
  if (wake_fd_ < 0) return;
  const std::uint64_t one = 1;
  ssize_t n;
  do {
    n = ::write(wake_fd_, &one, sizeof one);
  } while (n < 0 && errno == EINTR);
}

void Server::start() {
  require(listen_fd_ < 0 && !reactor_.joinable(),
          "Server::start: already started");
  // The fd budget gates how many keep-alive connections this process can
  // hold. Raise the soft RLIMIT_NOFILE toward the configured cap (or a
  // 64k default when the cap is "derive"), then either derive the cap from
  // what we got or warn clearly that the explicit cap will not fit.
  const std::size_t headroom = 64;
  const std::size_t want =
      config_.max_connections > 0
          ? static_cast<std::size_t>(config_.max_connections) + headroom
          : (1u << 16);
  const std::size_t budget = ensure_fd_budget(want);
  if (config_.max_connections > 0) {
    effective_max_connections_ =
        static_cast<std::size_t>(config_.max_connections);
    if (budget < want)
      log_warn("memstressd: fd budget short: MEMSTRESS_MAX_CONNECTIONS=",
               config_.max_connections, " needs ~", want,
               " fds but RLIMIT_NOFILE caps at ", budget,
               "; lower the cap or raise `ulimit -n` (connections past the "
               "budget will fail to accept)");
  } else {
    effective_max_connections_ = budget > 2 * headroom ? budget - headroom : 64;
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  require(listen_fd_ >= 0, "Server: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.address.c_str(), &addr.sin_addr) != 1) {
    close_fd(listen_fd_);
    listen_fd_ = -1;
    throw Error("Server: invalid listen address \"" + config_.address + "\"");
  }
  // Rapid stop/start on a pinned port can race the kernel's release of the
  // previous listener even with SO_REUSEADDR (kill/resume tests and daemon
  // restarts hit this). Retry EADDRINUSE on a bounded schedule, warning
  // once; any other bind failure — and an ephemeral-port request — is
  // immediately fatal as before.
  const int attempts = config_.port > 0 ? kBindRetries + 1 : 1;
  bool warned = false;
  for (int attempt = 1;; ++attempt) {
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
        0)
      break;
    const int bind_errno = errno;
    if (bind_errno == EADDRINUSE && attempt < attempts) {
      if (!warned) {
        static metrics::Counter& retried =
            metrics::counter("server.bind_retries");
        retried.add(1);
        warned = true;
        log_warn("memstressd: ", config_.address, ":", config_.port,
                 " still in use; retrying bind up to ", attempts - attempt,
                 " more times every ", kBindRetryMs, " ms");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(kBindRetryMs));
      continue;
    }
    const std::string reason = std::strerror(bind_errno);
    close_fd(listen_fd_);
    listen_fd_ = -1;
    throw Error("Server: cannot bind " + config_.address + ":" +
                std::to_string(config_.port) + ": " + reason);
  }
  require(::listen(listen_fd_, 1024) == 0, "Server: listen() failed");
  set_nonblocking(listen_fd_);

  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(0);
  require(epoll_fd_ >= 0, "Server: epoll_create1() failed");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  require(wake_fd_ >= 0, "Server: eventfd() failed");
  epoll_event listen_event{};
  listen_event.events = EPOLLIN | EPOLLET;
  listen_event.data.fd = listen_fd_;
  require(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &listen_event) ==
              0,
          "Server: epoll_ctl(listen) failed");
  epoll_event wake_event{};
  wake_event.events = EPOLLIN;
  wake_event.data.fd = wake_fd_;
  require(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &wake_event) == 0,
          "Server: epoll_ctl(wake) failed");

  stopping_.store(false, std::memory_order_relaxed);
  workers_done_.store(false, std::memory_order_relaxed);
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int w = 0; w < config_.workers; ++w)
    workers_.emplace_back([this] { worker_loop(); });
  reactor_ = std::thread([this] { reactor_loop(); });

  log_info("memstressd: listening on ", config_.address, ":", port_, " (",
           config_.workers, " workers, queue depth ", config_.queue_depth,
           ", up to ", effective_max_connections_, " connections)");
}

// ---------------------------------------------------------------------------
// Reactor thread: owns every socket and every Connection.

void Server::reactor_loop() {
  epoll_event events[256];
  for (;;) {
    const int ready =
        ::epoll_wait(epoll_fd_, events, 256, kTickMs);
    const bool draining = stopping();
    if (draining && listen_fd_ >= 0) {
      // Stop accepting the moment shutdown begins; existing connections
      // drain below.
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      close_fd(listen_fd_);
      listen_fd_ = -1;
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        accept_ready();
        continue;
      }
      if (fd == wake_fd_) {
        std::uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof drained) > 0) {
        }
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      Connection& conn = *it->second;
      if (events[i].events & EPOLLOUT) {
        flush_writes(conn);
        resume_if_drained(conn);
      }
      if (events[i].events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR))
        connection_readable(conn);
    }
    apply_completions();
    sweep_timers(Clock::now());
    reap_closed();
    if (draining && workers_done_.load(std::memory_order_acquire)) {
      apply_completions();  // every worker has joined: these are the last
      if (std::none_of(connections_.begin(), connections_.end(),
                       [](const auto& entry) {
                         return !entry.second->closed &&
                                entry.second->unsent() > 0;
                       }))
        break;  // every response delivered (or write-deadlined)
    }
  }
  // Teardown: close every connection and the listener. The wake and epoll
  // fds stay open — stop() closes them after joining this thread, so its
  // own late wake_reactor() never races a close here.
  for (const auto& entry : connections_) close_connection(*entry.second);
  reap_closed();
  close_fd(listen_fd_);
  listen_fd_ = -1;
}

void Server::accept_ready() {
  static metrics::Counter& accepted = metrics::counter("server.connections");
  static metrics::Counter& busy = metrics::counter("server.busy_rejections");
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED)
        return;
      if (errno == EMFILE || errno == ENFILE) {
        static bool warned_fds = false;
        if (!warned_fds) {
          warned_fds = true;
          log_warn("memstressd: accept() failed: out of file descriptors "
                   "(raise `ulimit -n` or lower MEMSTRESS_MAX_CONNECTIONS)");
        }
        return;
      }
      return;  // listener closed under us
    }
    if (connections_.size() >= effective_max_connections_) {
      // Load-shed at the door: a structured answer (best effort on a fresh,
      // empty socket buffer — it always fits), then close.
      busy.add(1);
      const std::string frame =
          make_error(0, "busy",
                     "server at capacity (max_connections " +
                         std::to_string(effective_max_connections_) +
                         "); retry with backoff") +
          "\n";
      (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      close_fd(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (config_.send_buffer_bytes > 0)
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config_.send_buffer_bytes,
                   sizeof config_.send_buffer_bytes);
    epoll_event event{};
    // Both directions, edge-triggered, once: the interest never changes. An
    // EPOLLOUT edge with nothing unsent is a flush of nothing.
    event.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
    event.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
      close_fd(fd);
      continue;
    }
    accepted.add(1);
    auto conn =
        std::make_unique<Connection>(fd, next_conn_id_++, config_.max_frame_bytes);
    conn->last_activity = Clock::now();
    connections_.emplace(fd, std::move(conn));
  }
}

void Server::connection_readable(Connection& conn) {
  static metrics::Counter& errors = metrics::counter("server.errors");
  conn.last_activity = Clock::now();
  // Lines buffered before a read pause come out first; the reader touches
  // the socket only when no whole line is left.
  while (!conn.closed && !conn.paused_read && !conn.eof_seen) {
    const Frame frame = conn.reader.read_line();
    const char* code = "parse_error";
    std::string what;
    switch (frame.status) {
      case Frame::Status::Line:
        ++conn.line_number;
        handle_line(conn, frame.text);
        continue;
      case Frame::Status::Timeout:
        return;  // EAGAIN: the edge is consumed
      case Frame::Status::Error:
        close_connection(conn);  // ECONNRESET and friends
        return;
      case Frame::Status::Eof:
        // Orderly close (or half-close: the peer may still be reading its
        // pipelined responses, so this is "no more requests", not "hang
        // up"); flushing closes the stream once it drains.
        conn.eof_seen = true;
        if (frame.text.empty()) {
          maybe_close_drained(conn);
          return;
        }
        // Data without a terminating newline is a truncated frame, not a
        // request; answer structurally so the writer can tell what broke.
        what = "truncated frame (missing newline before connection close)";
        break;
      case Frame::Status::Overflow:
        code = "frame_too_large";
        what = "frame exceeds " + std::to_string(config_.max_frame_bytes) +
               " bytes; closing (cannot resynchronize)";
        break;
    }
    // Framing damage leaves no boundary to resynchronize at: answer, then
    // treat the stream as finished (close once the answer flushes).
    ++conn.line_number;
    errors.add(1);
    conn.eof_seen = true;
    enqueue_frame(conn, make_error(0, code,
                                   "request:" +
                                       std::to_string(conn.line_number) +
                                       ": " + what));
  }
}

void Server::handle_line(Connection& conn, const std::string& line) {
  static metrics::Counter& errors = metrics::counter("server.errors");
  static metrics::Counter& busy = metrics::counter("server.busy_rejections");
  const std::string row_prefix =
      "request:" + std::to_string(conn.line_number) + ": ";

  Request request;
  try {
    request = parse_request(line);
  } catch (const ProtocolError& e) {
    errors.add(1);
    return enqueue_frame(conn,
                         make_error(0, "parse_error", row_prefix + e.what()));
  }
  const long long id = request.id;

  if (stopping()) {
    return enqueue_frame(conn,
                         make_error(id, "shutting_down",
                                    "server is draining; reconnect later"));
  }
  // Admission control. Both sheds are structured and echo the request id —
  // a pipelining client can correlate exactly which frame bounced.
  if (conn.in_flight >= config_.max_inflight) {
    busy.add(1);
    return enqueue_frame(
        conn, make_error(id, "busy",
                         "connection in-flight cap reached (max_inflight " +
                             std::to_string(config_.max_inflight) +
                             "); drain responses before sending more"));
  }
  Task task;
  task.fd = conn.fd;
  task.conn_id = conn.id;
  task.request = std::move(request);
  task.line_number = conn.line_number;
  task.deadline =
      Clock::now() + std::chrono::milliseconds(config_.request_timeout_ms);
  if (!queue_.try_push(std::move(task))) {
    busy.add(1);
    return enqueue_frame(conn,
                         make_error(id, "busy",
                                    "server at capacity (queue depth " +
                                        std::to_string(config_.queue_depth) +
                                        "); retry with backoff"));
  }
  ++conn.in_flight;
}

void Server::enqueue_frame(Connection& conn, const std::string& frame) {
  conn.out += frame;
  conn.out += '\n';
  flush_writes(conn);  // opportunistic: most frames go out in this send
  // Output cap: stop consuming requests from a connection that is not
  // draining its responses; reading resumes below the low watermark. Only
  // bytes a flush could not send count, so a pause always waits on a flush
  // that stopped on EAGAIN, and the EPOLLOUT edge that follows resumes it.
  if (!conn.closed && conn.unsent() > config_.max_output_bytes)
    conn.paused_read = true;
}

void Server::flush_writes(Connection& conn) {
  if (conn.closed || conn.unsent() == 0) return;
  bool progressed = false;
  while (conn.unsent() > 0) {
    // MSG_NOSIGNAL: a peer that resets mid-flush must surface as EPIPE
    // here, never as a process-killing SIGPIPE.
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_sent,
                             conn.unsent(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return close_connection(conn);  // EPIPE/ECONNRESET: the peer is gone
    }
    progressed = true;
    conn.out_sent += static_cast<std::size_t>(n);
  }
  if (conn.unsent() == 0) {
    conn.out.clear();
    conn.out_sent = 0;
    conn.write_deadline = Clock::time_point::max();
    return maybe_close_drained(conn);
  }
  // The socket is full. Drop the sent prefix once it outgrows the unsent
  // rest: a reader that never quite catches up then costs amortized O(1)
  // copying per byte, where an erase after every send is quadratic.
  if (conn.out_sent > conn.unsent()) {
    conn.out.erase(0, conn.out_sent);
    conn.out_sent = 0;
  }
  // Still unsent: (re)arm the send deadline. Progress resets it — the
  // deadline bounds a reader that stopped, not one that is merely slow.
  if (progressed || conn.write_deadline == Clock::time_point::max())
    conn.write_deadline =
        Clock::now() + std::chrono::milliseconds(config_.write_timeout_ms);
}

void Server::resume_if_drained(Connection& conn) {
  // Draining below the low watermark resumes a paused reader.
  if (!conn.paused_read || conn.unsent() > config_.max_output_bytes / 2)
    return;
  conn.paused_read = false;
  connection_readable(conn);
}

void Server::apply_completions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    auto it = connections_.find(completion.fd);
    if (it == connections_.end() || it->second->id != completion.conn_id ||
        it->second->closed)
      continue;  // the connection died while its request was computing
    Connection& conn = *it->second;
    --conn.in_flight;
    conn.last_activity = Clock::now();
    enqueue_frame(conn, completion.frame);
    resume_if_drained(conn);
  }
}

void Server::sweep_timers(Clock::time_point now) {
  static metrics::Counter& write_timeouts =
      metrics::counter("server.write_timeouts");
  static metrics::Counter& idle_timeouts =
      metrics::counter("server.idle_timeouts");
  const bool draining = stopping();
  for (const auto& entry : connections_) {
    Connection& conn = *entry.second;
    if (conn.closed) continue;
    if (conn.write_deadline <= now && conn.unsent() > 0) {
      // The peer stopped reading: nothing structured can reach it, so the
      // only correct move is to stop spending anything on it.
      write_timeouts.add(1);
      close_connection(conn);
    } else if (!draining && !conn.eof_seen && conn.in_flight == 0 &&
               conn.unsent() == 0 &&
               conn.last_activity +
                       std::chrono::milliseconds(config_.idle_timeout_ms) <=
                   now) {
      idle_timeouts.add(1);
      conn.eof_seen = true;  // no further requests; close once the notice sends
      enqueue_frame(conn, make_error(0, "idle_timeout",
                                     "connection idle for " +
                                         std::to_string(
                                             config_.idle_timeout_ms) +
                                         " ms; closing (reconnect to resume)"));
    }
  }
}

void Server::maybe_close_drained(Connection& conn) {
  if (conn.eof_seen && conn.in_flight == 0 && conn.unsent() == 0)
    close_connection(conn);
}

void Server::close_connection(Connection& conn) {
  if (conn.closed) return;
  conn.closed = true;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  closed_fds_.push_back(conn.fd);
}

void Server::reap_closed() {
  for (const int fd : closed_fds_) {
    close_fd(fd);
    connections_.erase(fd);
  }
  closed_fds_.clear();
}

// ---------------------------------------------------------------------------
// Worker threads: compute only, no sockets.

void Server::worker_loop() {
  static metrics::Counter& started =
      metrics::counter("server.requests_started");
  while (auto task = queue_.pop()) {
    // Dequeue marks the start: the queue slot is free again and the request
    // is now occupying a worker. Tests gate on this instead of wall-clock
    // sleeps to sequence saturation deterministically.
    started.add(1);
    std::string frame;
    if (stopping()) {
      // Queued but never started: tell the client — with its own request
      // id — rather than vanishing.
      frame = make_error(task->request.id, "shutting_down",
                         "server is draining; reconnect later");
    } else {
      frame = execute(*task);
    }
    {
      std::lock_guard<std::mutex> lock(completions_mutex_);
      completions_.push_back(
          Completion{task->fd, task->conn_id, std::move(frame)});
    }
    wake_reactor();
  }
}

std::string Server::execute(const Task& task) const {
  static metrics::Counter& served = metrics::counter("server.requests");
  static metrics::Counter& errors = metrics::counter("server.errors");
  static metrics::Histogram& latency =
      metrics::histogram("server.request_seconds");
  const std::string row_prefix =
      "request:" + std::to_string(task.line_number) + ": ";
  const std::string timeout_message =
      row_prefix + "deadline of " + std::to_string(config_.request_timeout_ms) +
      " ms exceeded";
  const long long id = task.request.id;

  // Queue-wait overrun: the deadline passed before any compute started.
  // Decide the verdict once, before any accounting — a timed-out request is
  // an error, never also a served request with a recorded latency.
  if (Clock::now() >= task.deadline) {
    errors.add(1);
    return make_error(id, "timeout", timeout_message);
  }

  RequestContext context;
  context.cancel = &cancel::process_token();
  context.deadline = task.deadline;
  const auto start = Clock::now();
  const std::uint64_t request_index =
      request_counter_.fetch_add(1, std::memory_order_relaxed);
  try {
    // Chaos site: with MEMSTRESS_CHAOS active a seeded fraction of requests
    // fail here, proving the error path stays structured under fire.
    chaos::maybe_fail("server.handle", request_index);
    // The serialized path: cacheable types come back from the service's
    // result cache (or prime it), byte-identical to direct computation; the
    // payload is spliced into the envelope without reserializing.
    const std::string payload =
        service_->handle_serialized(task.request, context);
    if (Clock::now() >= context.deadline) {
      errors.add(1);
      return make_error(id, "timeout", timeout_message);
    }
    served.add(1);
    latency.record(
        std::chrono::duration<double>(Clock::now() - start).count());
    return make_response_from_payload(id, payload);
  } catch (const chaos::ChaosError& e) {
    errors.add(1);
    return make_error(id, "injected", row_prefix + e.what());
  } catch (const ProtocolError& e) {
    errors.add(1);
    return make_error(id, "bad_request", row_prefix + e.what());
  } catch (const CancelledError& e) {
    errors.add(1);
    return make_error(id, "shutting_down", row_prefix + e.what());
  } catch (const Error& e) {
    errors.add(1);
    return make_error(id, "internal", row_prefix + e.what());
  }
}

// ---------------------------------------------------------------------------
// Lifecycle.

void Server::stop() {
  std::lock_guard<std::mutex> lock(stop_mutex_);
  if (!reactor_.joinable() && workers_.empty()) return;
  stopping_.store(true, std::memory_order_relaxed);
  queue_.close();
  wake_reactor();
  // Workers drain the queue (answering "shutting_down") and exit; the
  // reactor keeps flushing their completions concurrently.
  for (std::thread& worker : workers_)
    if (worker.joinable()) worker.join();
  workers_.clear();
  workers_done_.store(true, std::memory_order_release);
  wake_reactor();
  if (reactor_.joinable()) reactor_.join();
  // The reactor is gone: now the fds it polled can close without racing
  // its teardown (or a concurrent wake_reactor()).
  close_fd(wake_fd_);
  wake_fd_ = -1;
  close_fd(epoll_fd_);
  epoll_fd_ = -1;
}

void Server::serve_until_cancelled() {
  while (!cancel::process_token().cancelled() &&
         !stopping_.load(std::memory_order_relaxed))
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop();
}

}  // namespace memstress::server
