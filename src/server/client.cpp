#include "server/client.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace memstress::server {

Client::Client(ClientConfig config) : config_(std::move(config)) {}

Client::~Client() { disconnect(); }

void Client::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::ensure_connected() {
  if (fd_ >= 0) return;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  require(fd_ >= 0, "Client: socket() failed");

  // SO_SNDTIMEO is the deadline of the blocking connect() below.
  timeval tv{};
  tv.tv_sec = config_.timeout_ms / 1000;
  tv.tv_usec = (config_.timeout_ms % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.address.c_str(), &addr.sin_addr) != 1) {
    disconnect();
    throw Error("Client: invalid address \"" + config_.address + "\"");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string reason = std::strerror(errno);
    disconnect();
    throw ConnectionLost("Client: cannot connect to " + config_.address + ":" +
                         std::to_string(config_.port) + ": " + reason);
  }
  // Nonblocking from here on: pipelining interleaves sends and reads, so a
  // blocking send that fills the server's receive window while the server
  // waits for us to drain responses must not deadlock the exchange.
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);
  reader_ = LineReader(fd_, kMaxFrameBytes);
}

std::string Client::roundtrip(const std::string& line) {
  return pipeline({line}).front();
}

std::vector<std::string> Client::pipeline(const std::vector<std::string>& lines) {
  if (lines.empty()) return {};
  ensure_connected();

  std::string outgoing;
  for (const std::string& line : lines) {
    outgoing += line;
    outgoing += '\n';
  }
  std::size_t sent = 0;

  std::vector<std::string> responses;
  responses.reserve(lines.size());
  const auto lost = [&](const std::string& what) -> ConnectionLost {
    disconnect();
    return ConnectionLost("Client: " + what + " after " +
                          std::to_string(responses.size()) + " of " +
                          std::to_string(lines.size()) + " responses");
  };

  while (responses.size() < lines.size()) {
    if (sent < outgoing.size()) {
      const ssize_t n = ::send(fd_, outgoing.data() + sent,
                               outgoing.size() - sent, MSG_NOSIGNAL);
      if (n > 0) sent += static_cast<std::size_t>(n);
      else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
               errno != EINTR)
        throw lost("send failed");  // EPIPE/ECONNRESET: the peer is gone
    }
    Frame frame = reader_.read_line();
    switch (frame.status) {
      case Frame::Status::Line:
        responses.push_back(std::move(frame.text));
        continue;
      case Frame::Status::Timeout:
        break;  // nothing (more) to read yet: wait below
      case Frame::Status::Eof:
        // The peer closed (possibly mid-frame) before every response line
        // arrived: a died-while-serving signal.
        throw lost("connection closed");
      case Frame::Status::Overflow:
        throw lost("response line longer than " +
                   std::to_string(kMaxFrameBytes) + " bytes");
      case Frame::Status::Error:
        throw lost("receive failed");
    }
    // Wait for a response byte (or room to send). Any progress restarts the
    // clock, so timeout_ms bounds a stall, not the whole exchange.
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    if (sent < outgoing.size()) pfd.events |= POLLOUT;
    const int ready = ::poll(&pfd, 1, config_.timeout_ms);
    if (ready == 0) {
      disconnect();
      throw Error("Client: timed out after " +
                  std::to_string(config_.timeout_ms) + " ms with " +
                  std::to_string(responses.size()) + " of " +
                  std::to_string(lines.size()) + " responses");
    }
    if (ready < 0 && errno != EINTR) throw lost("poll failed");
  }
  return responses;
}

Json Client::request(const std::string& type, const Json& params) {
  Json envelope = Json::object();
  envelope.set("v", Json(kProtocolVersion));
  envelope.set("id", Json(next_id_++));
  envelope.set("type", Json(type));
  envelope.set("params", params);
  const std::string line = envelope.dump();

  const auto started = std::chrono::steady_clock::now();
  const auto budget_exhausted = [&](int upcoming_sleep_ms) {
    if (config_.retry_budget_ms <= 0) return false;
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - started);
    return elapsed.count() + upcoming_sleep_ms >= config_.retry_budget_ms;
  };
  int backoff_ms = config_.backoff_initial_ms;
  for (int attempt = 0;; ++attempt) {
    const Response response = parse_response(roundtrip(line));
    if (response.ok) return response.result;
    if ((response.error_code == "busy" ||
         response.error_code == "idle_timeout") &&
        attempt < config_.max_retries && !budget_exhausted(backoff_ms)) {
      // The server closes the connection after either reply, and neither
      // means it read this request: a busy shed refused it, and an idle
      // farewell was already waiting on the socket. Back off, then
      // reconnect and try again. The backoff doubles up to backoff_max_ms,
      // and the whole retry loop is bounded by retry_budget_ms — overload
      // throttles the caller, never wedges it.
      disconnect();
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2,
                            std::max(config_.backoff_max_ms,
                                     config_.backoff_initial_ms));
      continue;
    }
    throw ServerError(response.error_code, response.error_message);
  }
}

std::vector<BatchOutcome> Client::batch(
    const std::vector<BatchRequest>& requests) {
  Json items = Json::array();
  for (const BatchRequest& sub : requests) {
    Json item = Json::object();
    item.set("type", Json(sub.type));
    item.set("params", sub.params);
    items.push_back(std::move(item));
  }
  Json params = Json::object();
  params.set("requests", std::move(items));
  // request() supplies the envelope and the busy-retry policy; a batch is
  // just one more request type at the frame level.
  const Json result = request("batch", params);
  const std::vector<Json>& results = result.at("results").items();
  if (results.size() != requests.size())
    throw Error("Client: batch response has " +
                std::to_string(results.size()) + " results for " +
                std::to_string(requests.size()) + " requests");
  std::vector<BatchOutcome> outcomes;
  outcomes.reserve(results.size());
  for (const Json& item : results) {
    BatchOutcome outcome;
    outcome.ok = item.at("ok").as_bool();
    if (outcome.ok) {
      outcome.result = item.at("result");
    } else {
      const Json& error = item.at("error");
      outcome.error_code = error.at("code").as_string();
      outcome.error_message = error.string_or("message", "");
    }
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

}  // namespace memstress::server
