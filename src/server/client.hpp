// Client for memstressd: send NDJSON request lines, read one-line responses.
//
// One I/O loop serves request(), roundtrip() and pipeline(): a nonblocking
// socket, sends and reads interleaved under poll(), and one LineReader per
// connection, so no byte is dropped between calls. ClientConfig::timeout_ms
// bounds the connect and each wait for progress, not a whole call.
//
// The only policy is retrying: "busy" (backpressure) and "idle_timeout" (the
// farewell to an idle connection) both end the connection without the
// request having been read, so request() reconnects and retries them with
// exponential backoff up to ClientConfig::max_retries. Every other error
// response is thrown as ServerError immediately — the server already said
// something structured; retrying would not change it.
#pragma once

#include <string>
#include <vector>

#include "server/protocol.hpp"

namespace memstress::server {

/// An error *response* (ok:false) from the server, carrying the structured
/// code ("busy", "timeout", "bad_request", ...). Transport-level failures
/// (connect refused, read timeout, mid-frame close) throw plain Error.
class ServerError : public Error {
 public:
  ServerError(std::string code, const std::string& message)
      : Error(code + ": " + message), code_(std::move(code)) {}
  const std::string& code() const { return code_; }

 private:
  std::string code_;
};

/// The transport died underneath a call: connect refused, ECONNRESET/EPIPE
/// on send, the connection closing mid-frame before a full response line
/// arrived, or a response line past kMaxFrameBytes (a peer that is not
/// speaking the protocol). Distinct from a receive *timeout* (plain Error) on
/// purpose — a coordinator treats a lost connection as "worker died,
/// requeue its shards now" while a timeout only means "worker slow, maybe
/// hedge". The client always disconnects before throwing, so the next
/// call reconnects from scratch.
class ConnectionLost : public Error {
 public:
  using Error::Error;
};

/// One sub-request inside a Client::batch() call.
struct BatchRequest {
  std::string type;
  Json params = Json::object();
};

/// Outcome of one batch item, positional with the submitted requests. A
/// failed item carries its structured error here instead of throwing — by
/// design one bad sub-request never hides the other results.
struct BatchOutcome {
  bool ok = false;
  Json result;  ///< valid when ok
  std::string error_code;
  std::string error_message;
};

struct ClientConfig {
  std::string address = "127.0.0.1";
  int port = 0;
  int timeout_ms = 10000;      ///< connect + each wait for progress
  int max_retries = 6;         ///< busy / idle_timeout retry attempts
  int backoff_initial_ms = 5;  ///< doubles per retry: 5, 10, 20, ...
  int backoff_max_ms = 250;    ///< per-sleep ceiling for the doubling
  /// Hard wall-clock budget for one request() call including every
  /// retry and backoff sleep. When the budget would be exceeded the busy
  /// error surfaces instead of another retry — under sustained overload a
  /// caller is throttled, never wedged. 0 disables the cap.
  int retry_budget_ms = 30000;
};

class Client {
 public:
  explicit Client(ClientConfig config);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send `params` as a `type` request and return the result document.
  /// Retries (with reconnect + backoff) while the server answers "busy" or
  /// "idle_timeout"; throws ServerError for any other error response and
  /// Error for transport failures.
  Json request(const std::string& type, const Json& params = Json::object());

  /// Send every sub-request in one "batch" frame (one syscall round trip
  /// instead of N) and return the positional outcomes. Frame-level errors —
  /// busy (after the retries), an oversized batch, transport failures —
  /// still throw; per-item failures come back as BatchOutcome errors.
  std::vector<BatchOutcome> batch(const std::vector<BatchRequest>& requests);

  /// Raw exchange for tests: send exactly `line` (plus the newline) on a
  /// fresh-or-existing connection and return the next raw response line.
  /// No retries, no envelope handling. The same loop as pipeline().
  std::string roundtrip(const std::string& line);

  /// Pipelining: write every raw `line` back-to-back without waiting, then
  /// collect exactly lines.size() response lines, interleaving sends and
  /// reads so neither side's socket buffer can deadlock the exchange.
  /// Responses are returned **in arrival order**, which the reactor may
  /// permute relative to the requests — correlate by the echoed "id".
  /// The receive timeout applies per unit of progress (any byte moved
  /// resets it), not to the pipeline as a whole. No envelope handling and
  /// no busy retries: the raw response lines (including structured "busy"
  /// sheds) come back as-is.
  std::vector<std::string> pipeline(const std::vector<std::string>& lines);

  /// Drop the connection (the next request reconnects).
  void disconnect();

 private:
  void ensure_connected();

  ClientConfig config_;
  int fd_ = -1;
  LineReader reader_{-1};  ///< frames of fd_; replaced on every connect
  long long next_id_ = 1;
};

}  // namespace memstress::server
