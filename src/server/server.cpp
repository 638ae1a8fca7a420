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
#include <sys/uio.h>
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
  const int attempts =
      config_.port > 0 ? std::max(1, config_.bind_retries + 1) : 1;
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
                 " more times every ", config_.bind_retry_ms, " ms");
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds(config_.bind_retry_ms));
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
  bool listen_closed = false;
  for (;;) {
    const int ready =
        ::epoll_wait(epoll_fd_, events, 256, kTickMs);
    const bool draining = stopping();
    if (draining && !listen_closed) {
      // Stop accepting the moment shutdown begins; existing connections
      // drain below.
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      close_fd(listen_fd_);
      listen_fd_ = -1;
      listen_closed = true;
    }
    bool accept_pending = false;
    if (ready > 0) {
      // Connection events first, listener last: a close freed fd numbers
      // that accept() may immediately reuse, and the generation check on
      // completions only protects cross-thread handoffs, not this batch.
      for (int i = 0; i < ready; ++i) {
        const int fd = events[i].data.fd;
        if (fd == listen_fd_ && !listen_closed) {
          accept_pending = true;
          continue;
        }
        if (fd == wake_fd_) {
          std::uint64_t drained = 0;
          while (::read(wake_fd_, &drained, sizeof drained) > 0) {
          }
          continue;
        }
        auto it = connections_.find(fd);
        if (it == connections_.end()) continue;  // destroyed earlier in batch
        if (events[i].events & EPOLLOUT) {
          if (!flush_writes(*it->second)) continue;  // flush destroyed it
          // Draining below the low watermark resumes a paused reader.
          Connection& conn = *it->second;
          if (conn.paused_read &&
              conn.buffered_bytes <= config_.max_output_bytes / 2) {
            conn.paused_read = false;
            if (!connection_readable(conn)) continue;
          }
        }
        if (events[i].events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR))
          connection_readable(*it->second);
      }
    }
    apply_completions();
    if (accept_pending) accept_ready();
    sweep_timers(Clock::now());
    if (draining && workers_done_.load(std::memory_order_acquire)) {
      apply_completions();
      bool flushed = true;
      {
        std::lock_guard<std::mutex> lock(completions_mutex_);
        flushed = completions_.empty();
      }
      if (flushed)
        for (const auto& entry : connections_)
          if (!entry.second->write_queue.empty()) {
            flushed = false;
            break;
          }
      if (flushed) break;  // every response delivered (or write-deadlined)
    }
  }
  // Teardown: close every connection and the listener. The wake and epoll
  // fds stay open — stop() closes them after joining this thread, so its
  // own late wake_reactor() never races a close here.
  std::vector<int> fds;
  fds.reserve(connections_.size());
  for (const auto& entry : connections_) fds.push_back(entry.first);
  for (const int fd : fds) {
    auto it = connections_.find(fd);
    if (it != connections_.end()) destroy_connection(*it->second);
  }
  if (listen_fd_ >= 0) {
    close_fd(listen_fd_);
    listen_fd_ = -1;
  }
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
    event.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
    event.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
      close_fd(fd);
      continue;
    }
    accepted.add(1);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->last_activity = Clock::now();
    connections_.emplace(fd, std::move(conn));
  }
}

bool Server::connection_readable(Connection& conn) {
  if (conn.eof_seen) return true;
  conn.last_activity = Clock::now();
  if (!process_read_buffer(conn))  // leftovers from before a read pause
    return false;
  while (!conn.paused_read && !conn.eof_seen) {
    char chunk[16384];
    const ssize_t n = ::recv(conn.fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      conn.read_buffer.append(chunk, static_cast<std::size_t>(n));
      conn.last_activity = Clock::now();
      if (!process_read_buffer(conn)) return false;
      continue;
    }
    if (n == 0) {
      // Orderly close (or half-close: the peer may still be reading its
      // pipelined responses, so this is "no more requests", not "hang up").
      if (!conn.read_buffer.empty()) {
        // Data without a terminating newline is a truncated frame, not a
        // request; answer structurally so the writer can tell what broke.
        ++conn.line_number;
        static metrics::Counter& errors = metrics::counter("server.errors");
        errors.add(1);
        conn.read_buffer.clear();
        conn.scan_from = 0;
        conn.eof_seen = true;  // flush closes the stream once it drains
        return enqueue_frame(
            conn, make_error(0, "parse_error",
                             "request:" + std::to_string(conn.line_number) +
                                 ": truncated frame (missing newline "
                                 "before connection close)"));
      }
      conn.eof_seen = true;
      return maybe_close_drained(conn);
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    destroy_connection(conn);  // ECONNRESET and friends
    return false;
  }
  return true;
}

bool Server::process_read_buffer(Connection& conn) {
  while (!conn.paused_read && !conn.eof_seen) {
    const std::size_t newline = conn.read_buffer.find('\n', conn.scan_from);
    if (newline == std::string::npos) {
      conn.scan_from = conn.read_buffer.size();
      if (conn.read_buffer.size() <= config_.max_frame_bytes) return true;
    }
    if (newline == std::string::npos || newline > config_.max_frame_bytes) {
      // Oversized frame: no boundary to resynchronize at. Answer, then
      // treat the stream as finished (close once the answer flushes).
      ++conn.line_number;
      static metrics::Counter& errors = metrics::counter("server.errors");
      errors.add(1);
      conn.read_buffer.clear();
      conn.scan_from = 0;
      conn.eof_seen = true;  // flush closes the stream once it drains
      return enqueue_frame(
          conn, make_error(0, "frame_too_large",
                           "request:" + std::to_string(conn.line_number) +
                               ": frame exceeds " +
                               std::to_string(config_.max_frame_bytes) +
                               " bytes; closing (cannot resynchronize)"));
    }
    const std::string line = conn.read_buffer.substr(0, newline);
    conn.read_buffer.erase(0, newline + 1);
    conn.scan_from = 0;
    ++conn.line_number;
    if (!handle_line(conn, line)) return false;
  }
  return true;
}

bool Server::handle_line(Connection& conn, const std::string& line) {
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
  ++total_inflight_;
  return true;
}

bool Server::enqueue_frame(Connection& conn, std::string frame) {
  frame += '\n';
  conn.buffered_bytes += frame.size();
  conn.write_queue.push_back(std::move(frame));
  if (conn.buffered_bytes > config_.max_output_bytes && !conn.paused_read)
    // Output cap: stop consuming requests from a connection that is not
    // draining its responses; reading resumes below the low watermark.
    conn.paused_read = true;
  return flush_writes(conn);  // opportunistic: most frames go out in one
                              // sendmsg — and may destroy conn (EPIPE, or
                              // a drained close after eof_seen)
}

void Server::update_write_interest(Connection& conn, bool want) {
  if (conn.want_write == want) return;
  conn.want_write = want;
  epoll_event event{};
  event.events = EPOLLIN | EPOLLRDHUP | EPOLLET |
                 (want ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  event.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &event);
}

bool Server::flush_writes(Connection& conn) {
  bool progressed = false;
  while (!conn.write_queue.empty()) {
    iovec iov[16];
    int iov_count = 0;
    std::size_t offset = conn.write_offset;
    for (const std::string& frame : conn.write_queue) {
      if (iov_count == 16) break;
      iov[iov_count].iov_base =
          const_cast<char*>(frame.data()) + offset;
      iov[iov_count].iov_len = frame.size() - offset;
      ++iov_count;
      offset = 0;
    }
    // sendmsg, not writev: only the msg flavor takes MSG_NOSIGNAL, and a
    // peer that resets mid-flush must surface as EPIPE here — never as a
    // process-killing SIGPIPE.
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iov_count);
    const ssize_t n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      destroy_connection(conn);  // EPIPE/ECONNRESET: the peer is gone
      return false;
    }
    progressed = true;
    conn.buffered_bytes -= static_cast<std::size_t>(n);
    std::size_t remaining = static_cast<std::size_t>(n);
    while (remaining > 0) {
      std::string& front = conn.write_queue.front();
      const std::size_t left = front.size() - conn.write_offset;
      if (remaining >= left) {
        remaining -= left;
        conn.write_offset = 0;
        conn.write_queue.pop_front();
      } else {
        conn.write_offset += remaining;
        remaining = 0;
      }
    }
  }
  if (conn.write_queue.empty()) {
    conn.write_deadline = Clock::time_point::max();
    update_write_interest(conn, false);
    return maybe_close_drained(conn);
  }
  // Still buffered: (re)arm the send deadline. Progress resets it — the
  // deadline bounds a reader that stopped, not one that is merely slow.
  if (progressed || conn.write_deadline == Clock::time_point::max())
    conn.write_deadline =
        Clock::now() + std::chrono::milliseconds(config_.write_timeout_ms);
  update_write_interest(conn, true);
  return true;
}

void Server::apply_completions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    auto it = connections_.find(completion.fd);
    if (it == connections_.end() || it->second->id != completion.conn_id)
      continue;  // the connection died while its request was computing
    Connection& conn = *it->second;
    --conn.in_flight;
    --total_inflight_;
    conn.last_activity = Clock::now();
    const bool was_paused = conn.paused_read;
    if (!enqueue_frame(conn, std::move(completion.frame)))
      continue;  // the flush destroyed conn
    if (was_paused && conn.paused_read &&
        conn.buffered_bytes <= config_.max_output_bytes / 2) {
      conn.paused_read = false;
      connection_readable(conn);  // next completion re-finds its own conn
    }
  }
}

void Server::sweep_timers(Clock::time_point now) {
  static metrics::Counter& write_timeouts =
      metrics::counter("server.write_timeouts");
  static metrics::Counter& idle_timeouts =
      metrics::counter("server.idle_timeouts");
  std::vector<int> wedged;
  std::vector<int> idle;
  for (const auto& entry : connections_) {
    const Connection& conn = *entry.second;
    if (conn.write_deadline <= now && !conn.write_queue.empty()) {
      wedged.push_back(entry.first);
      continue;
    }
    if (!stopping() && !conn.eof_seen && conn.in_flight == 0 &&
        conn.write_queue.empty() &&
        conn.last_activity +
                std::chrono::milliseconds(config_.idle_timeout_ms) <=
            now)
      idle.push_back(entry.first);
  }
  for (const int fd : wedged) {
    auto it = connections_.find(fd);
    if (it == connections_.end()) continue;
    // The peer stopped reading: nothing structured can reach it, so the
    // only correct move is to stop spending anything on it.
    write_timeouts.add(1);
    destroy_connection(*it->second);
  }
  for (const int fd : idle) {
    auto it = connections_.find(fd);
    if (it == connections_.end()) continue;
    Connection& conn = *it->second;
    idle_timeouts.add(1);
    conn.eof_seen = true;  // no further requests; close once the notice sends
    (void)enqueue_frame(  // last touch: conn may not survive the flush
        conn, make_error(0, "idle_timeout",
                         "connection idle for " +
                             std::to_string(config_.idle_timeout_ms) +
                             " ms; closing (reconnect to resume)"));
  }
}

bool Server::maybe_close_drained(Connection& conn) {
  if (conn.eof_seen && conn.in_flight == 0 && conn.write_queue.empty()) {
    destroy_connection(conn);
    return false;
  }
  return true;
}

void Server::destroy_connection(Connection& conn) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  close_fd(conn.fd);
  total_inflight_ -= conn.in_flight;
  connections_.erase(conn.fd);  // frees conn; callers must not touch it after
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
