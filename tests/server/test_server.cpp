// End-to-end daemon tests over a real loopback socket: request routing,
// byte-identity with direct library calls, structured errors for every
// failure class, backpressure, and the drain-on-shutdown contract.
#include "server/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "server/client.hpp"
#include "server/shard_codec.hpp"
#include "server_test_util.hpp"
#include "util/cancel.hpp"
#include "util/chaos.hpp"
#include "util/metrics.hpp"

namespace memstress::server {
namespace {

/// Saturating workers=1/queue_depth=1 needs sequencing, not sleeps: wait
/// until the worker has *dequeued* `target` requests (observable via the
/// server.requests_started counter), so the queue slot is provably free
/// and the worker provably occupied before the next frame is sent.
bool wait_for_started(const metrics::Counter& started, long long target) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (started.value() < target) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// RAII metrics toggle: counters only record while enabled; restore the
/// prior state so these tests do not perturb metrics-sensitive neighbors.
struct MetricsOn {
  bool previous = metrics::enabled();
  MetricsOn() { metrics::set_enabled(true); }
  ~MetricsOn() { metrics::set_enabled(previous); }
};

/// Bound raw-socket reads so a misbehaving server fails the test instead
/// of hanging it.
void set_receive_deadline(int fd, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

std::string health_line(long long id) {
  return "{\"v\":1,\"id\":" + std::to_string(id) + ",\"type\":\"health\"}";
}

TEST(ServerLoopback, HealthReportsTheDatabase) {
  TestServer fixture;
  EXPECT_GT(fixture.server.port(), 0);
  Client client(fixture.client_config());
  const Json health = client.request("health");
  EXPECT_EQ(health.at("status").as_string(), "ok");
  EXPECT_EQ(health.at("protocol_version").as_number(),
            static_cast<double>(kProtocolVersion));
  EXPECT_EQ(health.at("db_entries").as_number(),
            static_cast<double>(fixture.service->db().size()));
  EXPECT_EQ(health.at("conditions").as_number(),
            static_cast<double>(fixture.service->db().conditions().size()));
  // The default config asks for workers = 0; health reports the resolved
  // count the server actually runs.
  EXPECT_EQ(health.at("workers").as_number(),
            static_cast<double>(fixture.server.config().workers));
}

TEST(ServerLoopback, ResponsesAreByteIdenticalToDirectCalls) {
  TestServer fixture;
  Client client(fixture.client_config());
  const std::vector<std::string> lines = {
      "{\"v\":1,\"id\":1,\"type\":\"coverage\",\"params\":"
      "{\"geometry\":{\"x_rows\":128,\"y_columns\":32,\"bits_per_word\":4}}}",
      "{\"v\":1,\"id\":2,\"type\":\"dpm\",\"params\":"
      "{\"yield\":0.95,\"defect_coverage\":0.99}}",
      "{\"v\":1,\"id\":3,\"type\":\"detectability\",\"params\":"
      "{\"kind\":\"bridge\",\"category\":\"cell-true-false\","
      "\"resistance\":1000,\"vdd\":1.0,\"period\":1e-07}}",
      "{\"v\":1,\"id\":4,\"type\":\"schedule\",\"params\":"
      "{\"yield\":0.91,\"monte_carlo_defects\":200,\"seed\":7}}",
      "{\"v\":1,\"id\":5,\"type\":\"health\"}",
  };
  for (const std::string& line : lines)
    EXPECT_EQ(client.roundtrip(line), fixture.expected_response(line)) << line;
}

TEST(ServerLoopback, ScheduleIsDeterministicAcrossConnections) {
  TestServer fixture;
  const std::string line =
      "{\"v\":1,\"id\":9,\"type\":\"schedule\",\"params\":"
      "{\"yield\":0.9,\"monte_carlo_defects\":150,\"seed\":11}}";
  Client first(fixture.client_config());
  const std::string first_response = first.roundtrip(line);
  Client second(fixture.client_config());
  EXPECT_EQ(first_response, second.roundtrip(line));
}

TEST(ServerLoopback, ParseErrorsAreRowNumberedPerConnection) {
  TestServer fixture;
  Client client(fixture.client_config());
  Response first = parse_response(client.roundtrip("this is not json"));
  EXPECT_FALSE(first.ok);
  EXPECT_EQ(first.error_code, "parse_error");
  EXPECT_NE(first.error_message.find("request:1:"), std::string::npos)
      << first.error_message;
  // The connection survives a parse error; the next frame is request 2.
  Response second = parse_response(client.roundtrip("{\"v\":9}"));
  EXPECT_EQ(second.error_code, "parse_error");
  EXPECT_NE(second.error_message.find("request:2:"), std::string::npos)
      << second.error_message;
  // And a well-formed request on the same connection still works.
  const std::string good = "{\"v\":1,\"id\":3,\"type\":\"health\"}";
  EXPECT_EQ(client.roundtrip(good), fixture.expected_response(good));
}

TEST(ServerLoopback, BadParamsGetStructuredBadRequest) {
  TestServer fixture;
  Client client(fixture.client_config());
  try {
    client.request("coverage",
                   Json::parse("{\"geometry\":{\"x_rows\":2}}"));
    FAIL() << "expected ServerError";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), "bad_request");
    EXPECT_NE(std::string(e.what()).find("geometry"), std::string::npos);
  }
  EXPECT_THROW(client.request("no_such_type"), ServerError);
}

TEST(ServerLoopback, HugeGeometryIsABadRequestAndTheConnectionLives) {
  // 2^31 - 1 rows fit an int but the memory's cell count does not; 2^32 + 4
  // rows do not fit an int at all (they once wrapped to a 4-row memory).
  // Neither may reach the estimator, whose row-address loop once spun
  // forever past 2^30 rows and held a worker for good.
  TestServer fixture;
  Client client(fixture.client_config());
  for (const std::string rows : {"2147483647", "4294967300"}) {
    try {
      client.request("coverage",
                     Json::parse("{\"geometry\":{\"x_rows\":" + rows + "}}"));
      FAIL() << "x_rows " << rows << " was answered";
    } catch (const ServerError& e) {
      EXPECT_EQ(e.code(), "bad_request") << rows;
      EXPECT_NE(std::string(e.what()).find("x_rows"), std::string::npos)
          << e.what();
    }
    // The connection then serves the next request.
    EXPECT_EQ(client.request("health").at("status").as_string(), "ok");
  }
}

TEST(ServerLoopback, NumericCategoryMustBeAnInt) {
  TestServer fixture;
  Client client(fixture.client_config());
  for (const std::string category : {"1.5", "4294967296"}) {
    try {
      client.request("detectability",
                     Json::parse("{\"kind\":\"bridge\",\"category\":" +
                                 category +
                                 ",\"resistance\":1e3,\"vdd\":1.8,"
                                 "\"period\":2.5e-8}"));
      FAIL() << "category " << category << " was answered";
    } catch (const ServerError& e) {
      EXPECT_EQ(e.code(), "bad_request") << category;
      EXPECT_NE(std::string(e.what()).find("category"), std::string::npos)
          << e.what();
    }
  }
  // An integral category still answers.
  EXPECT_NO_THROW(client.request(
      "detectability",
      Json::parse("{\"kind\":\"bridge\",\"category\":1,"
                  "\"resistance\":1e3,\"vdd\":1.8,\"period\":2.5e-8}")));
}

TEST(ServerLoopback, MonteCarloDefectsDoNotWrap) {
  TestServer fixture;
  Client client(fixture.client_config());
  // 2^32 + 5 narrowed to int is 5; it must be rejected, not answered as 5.
  try {
    client.request("schedule",
                   Json::parse("{\"monte_carlo_defects\":4294967301}"));
    FAIL() << "2^32 + 5 Monte-Carlo defects were answered";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), "bad_request");
    EXPECT_NE(std::string(e.what()).find("monte_carlo_defects"),
              std::string::npos)
        << e.what();
  }
  EXPECT_NO_THROW(client.request(
      "schedule", Json::parse("{\"monte_carlo_defects\":5}")));
}

TEST(ServerLoopback, StudyShardBoundsExpectedDefects) {
  // At 1e300 um^2 per cell a device expects 8.4e298 defects: the Poisson
  // draw once went through an undefined cast and every device came back
  // defect-free, and 2^40 bits per instance expected 9e7 defects, enough
  // to exhaust memory. Both are refused before the study runs.
  TestServer fixture;
  Client client(fixture.client_config());
  study::StudyConfig config;
  config.device_count = 10;
  config.threads = 1;
  config.area_per_cell_um2 = 1e300;
  Json params = Json::object();
  params.set("config", study_config_to_json(config));
  params.set("begin", Json(0));
  params.set("end", Json(10));
  try {
    client.request("study_shard", params);
    FAIL() << "a study expecting 8.4e298 defects per device was answered";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), "bad_request");
    EXPECT_NE(std::string(e.what()).find("defects per device"),
              std::string::npos)
        << e.what();
  }
  // A physical chip is still answered, and on the same connection.
  config.area_per_cell_um2 = 1.1;
  params.set("config", study_config_to_json(config));
  EXPECT_EQ(client.request("study_shard", params).at("masks").items().size(),
            10u);
}

TEST(ServerLoopback, OversizedFrameAnswersThenCloses) {
  ServerConfig config;
  config.max_frame_bytes = 256;
  TestServer fixture(config);
  Client client(fixture.client_config());
  const std::string huge(1024, 'x');
  const Response response = parse_response(client.roundtrip(huge));
  EXPECT_EQ(response.error_code, "frame_too_large");
  EXPECT_NE(response.error_message.find("256"), std::string::npos);
}

TEST(ServerLoopback, TruncatedFrameAnswersStructurally) {
  TestServer fixture;
  RawConnection raw(fixture.server.port());
  ASSERT_TRUE(raw.connected());
  ASSERT_TRUE(write_all(raw.fd, "{\"v\":1,\"type\":\"heal"));  // no newline
  raw.finish_writing();
  LineReader reader(raw.fd);
  const Frame frame = reader.read_line();
  ASSERT_EQ(frame.status, Frame::Status::Line);
  const Response response = parse_response(frame.text);
  EXPECT_EQ(response.error_code, "parse_error");
  EXPECT_NE(response.error_message.find("truncated frame"), std::string::npos);
}

TEST(ServerLoopback, RequestTimeoutIsReported) {
  ServerConfig config;
  config.request_timeout_ms = 100;
  TestServer fixture(config);
  Client client(fixture.client_config());
  try {
    client.request("sleep", Json::parse("{\"ms\":5000}"));
    FAIL() << "expected ServerError";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), "timeout");
  }
}

TEST(ServerLoopback, ChaosInjectionStaysStructured) {
  TestServer fixture;
  chaos::configure(1.0, 99);
  try {
    Client client(fixture.client_config());
    client.request("health");
    FAIL() << "expected ServerError";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), "injected");
  }
  chaos::disable();
  // The connection and server survive the injected failure.
  Client client(fixture.client_config());
  EXPECT_EQ(client.request("health").at("status").as_string(), "ok");
}

TEST(ServerBackpressure, FullQueueAnswersBusy) {
  ServerConfig config;
  config.workers = 1;
  config.queue_depth = 1;
  TestServer fixture(config);
  MetricsOn metrics_on;
  const metrics::Counter& started =
      metrics::counter("server.requests_started");
  const long long baseline = started.value();

  // Busy takes real load now, not idle sockets: one sleep occupies the
  // single worker, a second parks in the depth-1 request queue, and only
  // then does a third request bounce.
  std::thread in_flight([&] {
    Client client(fixture.client_config());
    client.roundtrip(
        "{\"v\":1,\"id\":1,\"type\":\"sleep\",\"params\":{\"ms\":900}}");
  });
  // Gate on observable state, not wall clock: once the worker has dequeued
  // the sleep, the queue is empty and stays poppable only after ~900 ms.
  ASSERT_TRUE(wait_for_started(started, baseline + 1));

  // Pipelined on one connection, admission is strictly in order: the first
  // frame fills the depth-1 queue, so the second MUST shed "busy" — and the
  // shed is written immediately, long before either sleep answers.
  RawConnection raw(fixture.server.port());
  ASSERT_TRUE(raw.connected());
  set_receive_deadline(raw.fd, 10000);
  ASSERT_TRUE(write_all(
      raw.fd,
      "{\"v\":1,\"id\":2,\"type\":\"sleep\",\"params\":{\"ms\":100}}\n"
      "{\"v\":1,\"id\":3,\"type\":\"health\"}\n"));
  LineReader reader(raw.fd);
  const Frame frame = reader.read_line();
  ASSERT_EQ(frame.status, Frame::Status::Line);
  const Response busy = parse_response(frame.text);
  EXPECT_FALSE(busy.ok);
  EXPECT_EQ(busy.error_code, "busy");
  EXPECT_EQ(busy.id, 3);
  EXPECT_NE(busy.error_message.find("queue depth 1"), std::string::npos);
  in_flight.join();
}

TEST(ServerBackpressure, ClientRetriesBusyUntilCapacityFrees) {
  ServerConfig config;
  config.workers = 1;
  config.queue_depth = 1;
  TestServer fixture(config);
  MetricsOn metrics_on;
  const metrics::Counter& started =
      metrics::counter("server.requests_started");
  const long long baseline = started.value();

  // Saturate worker + queue with two sleeps — sequenced on observable
  // dequeues, not wall clock: the first is provably occupying the worker
  // before the second is sent, so the second provably fills the queue.
  std::thread in_flight([&] {
    Client client(fixture.client_config());
    client.roundtrip(
        "{\"v\":1,\"id\":1,\"type\":\"sleep\",\"params\":{\"ms\":400}}");
  });
  ASSERT_TRUE(wait_for_started(started, baseline + 1));
  RawConnection filler(fixture.server.port());
  ASSERT_TRUE(filler.connected());
  ASSERT_TRUE(write_all(
      filler.fd,
      "{\"v\":1,\"id\":2,\"type\":\"sleep\",\"params\":{\"ms\":100}}\n"));
  // The filler is dequeued only after the first sleep finishes; until then
  // the queue slot it holds sheds every newcomer. Capacity frees itself as
  // the sleeps finish, and a later busy retry lands.
  ClientConfig client_config = fixture.client_config();
  client_config.max_retries = 10;
  Client client(client_config);
  const Json health = client.request("health");
  EXPECT_EQ(health.at("status").as_string(), "ok");
  in_flight.join();
}

TEST(ServerBackpressure, IdleConnectionsDoNotStarveWorkers) {
  // The headline bug of the old acceptor -> queue -> worker transport: a
  // worker was pinned per connection, so workers=1 + queue_depth=1 meant
  // two *idle* keep-alive sockets made an otherwise-idle server answer
  // "busy". The reactor admits requests, not connections — a pile of idle
  // connections must cost nothing.
  ServerConfig config;
  config.workers = 1;
  config.queue_depth = 1;
  TestServer fixture(config);

  std::vector<std::unique_ptr<RawConnection>> idle;
  for (int i = 0; i < 32; ++i) {
    idle.push_back(std::make_unique<RawConnection>(fixture.server.port()));
    ASSERT_TRUE(idle.back()->connected());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  ClientConfig client_config = fixture.client_config();
  client_config.max_retries = 0;  // any busy must fail the test, not retry
  Client client(client_config);
  EXPECT_EQ(client.request("health").at("status").as_string(), "ok");
}

TEST(ServerBackpressure, FrameOverTheOutputCapKeepsTheConnectionReading) {
  // One health answer is longer than this cap, yet it goes out in one send.
  // The cap must count only bytes a flush left unsent: pausing on the
  // frame's size waits for an EPOLLOUT edge that never comes, and the
  // connection's next request is never read.
  ServerConfig config;
  config.workers = 1;
  config.max_output_bytes = 64;
  TestServer fixture(config);
  ClientConfig client_config = fixture.client_config();
  client_config.timeout_ms = 2000;
  client_config.max_retries = 0;
  Client client(client_config);
  for (int i = 0; i < 2; ++i)
    EXPECT_EQ(client.request("health").at("status").as_string(), "ok") << i;
}

TEST(ServerBackpressure, PausedReaderResumesAndGetsEveryResponse) {
  // A reader that falls behind, then catches up: its answers overflow the
  // tiny socket buffers and then the 8 KiB cap, so the reactor stops
  // reading its pipelined requests. Once the client reads, the reactor must
  // resume the connection and answer every request with the exact bytes of
  // a direct call.
  ServerConfig config;
  config.workers = 2;
  config.queue_depth = 512;
  config.max_inflight = 512;
  config.max_output_bytes = 8192;
  config.send_buffer_bytes = 4096;
  TestServer fixture(config);

  RawConnection raw(fixture.server.port());
  ASSERT_TRUE(raw.connected());
  const int tiny = 4096;
  ::setsockopt(raw.fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof tiny);
  const long long requests = 300;
  std::string burst;
  for (long long id = 1; id <= requests; ++id) burst += health_line(id) + "\n";
  ASSERT_TRUE(write_all(raw.fd, burst));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  set_receive_deadline(raw.fd, 5000);
  LineReader reader(raw.fd);
  std::vector<bool> answered(static_cast<std::size_t>(requests) + 1, false);
  for (long long n = 0; n < requests; ++n) {
    const Frame frame = reader.read_line();
    ASSERT_EQ(frame.status, Frame::Status::Line) << n << " answers read";
    const Response response = parse_response(frame.text);
    ASSERT_GE(response.id, 1);
    ASSERT_LE(response.id, requests);
    EXPECT_FALSE(answered[static_cast<std::size_t>(response.id)])
        << "id " << response.id << " answered twice";
    answered[static_cast<std::size_t>(response.id)] = true;
    EXPECT_EQ(frame.text, fixture.expected_response(health_line(response.id)));
  }
}

TEST(ServerShutdown, InFlightRequestFinishesAndRespondsDuringStop) {
  ServerConfig config;
  config.workers = 1;
  TestServer fixture(config);

  std::string response_line;
  std::thread in_flight([&] {
    Client client(fixture.client_config());
    response_line = client.roundtrip(
        "{\"v\":1,\"id\":1,\"type\":\"sleep\",\"params\":{\"ms\":400}}");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  fixture.server.stop();  // must drain, not abandon, the sleeper
  in_flight.join();

  const Response response = parse_response(response_line);
  EXPECT_TRUE(response.ok);
  EXPECT_GE(response.result.at("slept_ms").as_number(), 300.0);
}

TEST(ServerShutdown, QueuedConnectionIsToldShuttingDown) {
  ServerConfig config;
  config.workers = 1;
  config.queue_depth = 4;
  TestServer fixture(config);

  std::thread in_flight([&] {
    Client client(fixture.client_config());
    client.roundtrip(
        "{\"v\":1,\"id\":1,\"type\":\"sleep\",\"params\":{\"ms\":500}}");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  std::string queued_line;
  std::thread queued([&] {
    Client client(fixture.client_config());
    queued_line = client.roundtrip("{\"v\":1,\"id\":2,\"type\":\"health\"}");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  fixture.server.stop();
  in_flight.join();
  queued.join();

  const Response response = parse_response(queued_line);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, "shutting_down");
  // The rejection echoes the queued request's id, not 0 — a pipelining
  // client can tell exactly which frame the drain bounced.
  EXPECT_EQ(response.id, 2);
}

TEST(ServerShutdown, StopIsIdempotentAndWakesIdleConnections) {
  TestServer fixture;
  RawConnection idle(fixture.server.port());
  ASSERT_TRUE(idle.connected());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto start = std::chrono::steady_clock::now();
  fixture.server.stop();  // must not wait out the 10 s receive timeout
  fixture.server.stop();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
}

TEST(ServerShutdown, ServeUntilCancelledStopsOnProcessToken) {
  TestServer fixture;
  std::thread tripper([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    cancel::process_token().request_cancel();
  });
  fixture.server.serve_until_cancelled();  // returns only if the token works
  tripper.join();
  cancel::process_token().reset();
  // The port is released: a fresh server can bind and serve again.
  TestServer next;
  Client client(next.client_config());
  EXPECT_EQ(client.request("health").at("status").as_string(), "ok");
}

}  // namespace
}  // namespace memstress::server
