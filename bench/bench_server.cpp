// Throughput/latency bench for memstressd: an in-process server on an
// ephemeral loopback port, hammered by N client threads sending a fixed
// request mix. Reports requests/second and p50/p99 latency, and verifies
// every response byte-for-byte against a direct library call while doing
// so — a fast server that answers wrong is a regression, not a win.
//
// Usage: bench_server [--smoke] [--clients N] [--requests M]
//                     [--repeat | --batch | --connections N]
//   --smoke    reduced load for the ctest smoke (seconds, not minutes)
//   --repeat   result-cache mode: send distinct schedule requests once
//              (cold), then repeat them (hot) and compare cold-path vs
//              hit-path latency; every hot response is byte-checked against
//              its cold twin
//   --batch    framing mode: send the same request mix one-per-frame, as
//              batch frames and as pipelined single frames, and compare
//              items/second
//   --connections N
//              high-concurrency mode: N concurrent keep-alive connections
//              driven by one epoll client loop (one request in flight per
//              connection), proving the reactor holds 10k+ sockets with
//              bounded p99 and byte-identical responses. Transport errors
//              are counted by phase (connect, send, recv EOF, recv error)
//              with their errno, next to the run's delta of the kernel's
//              listen-queue overflow counter (TcpExt ListenOverflows).
//              Raises RLIMIT_NOFILE first and fails with a clear message
//              when the fd budget cannot cover N sockets.
//
// The last stdout line is machine-readable for trend tracking:
//   BENCH_JSON {"bench":"server", ...}
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/epoll.h>

#include "server/client.hpp"
#include "server/fleet.hpp"
#include "server/loadgen.hpp"
#include "server/protocol.hpp"
#include "tests/server/server_test_util.hpp"
#include "util/parallel.hpp"

using namespace memstress;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

double percentile_ms(std::vector<double>& sorted_seconds, double q) {
  if (sorted_seconds.empty()) return 0.0;
  const std::size_t index = std::min(
      sorted_seconds.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(sorted_seconds.size())));
  return sorted_seconds[index] * 1e3;
}

/// TcpExt ListenOverflows from /proc/net/netstat (this network namespace's
/// count of connections dropped because a listen queue was full), or -1
/// when the file cannot be read.
long listen_overflows() {
  std::ifstream in("/proc/net/netstat");
  std::string names, values;
  while (std::getline(in, names) && std::getline(in, values)) {
    if (names.rfind("TcpExt:", 0) != 0) continue;
    std::istringstream name_fields(names), value_fields(values);
    std::string name, value;
    while (name_fields >> name && value_fields >> value)
      if (name == "ListenOverflows") return std::stol(value);
  }
  return -1;
}

server::TestServer make_fixture() {
  server::ServerConfig config;
  config.workers = default_thread_count();
  config.queue_depth = 64;
  return server::TestServer(config);
}

// -----------------------------------------------------------------------
// Default mode: mixed request hammer from N concurrent clients.

int run_mixed(int clients, int requests_per_client) {
  server::TestServer fixture = make_fixture();
  std::printf("bench_server: %d workers on 127.0.0.1:%d, %d clients x %d "
              "requests\n",
              fixture.server.config().workers, fixture.server.port(), clients,
              requests_per_client);

  // A cheap-heavy mix: mostly lookups (the steady-state load a test floor
  // would generate), with the full Table-1 estimator sprinkled in. Each
  // entry carries its request type so latency is attributed per type — one
  // aggregate histogram hides a slow estimator behind a sea of fast
  // health checks.
  struct MixEntry {
    const char* type;
    std::string line;
  };
  const std::vector<MixEntry> mix = {
      {"health", "{\"v\":1,\"id\":1,\"type\":\"health\"}"},
      {"dpm",
       "{\"v\":1,\"id\":2,\"type\":\"dpm\",\"params\":"
       "{\"yield\":0.95,\"defect_coverage\":0.99}}"},
      {"detectability",
       "{\"v\":1,\"id\":3,\"type\":\"detectability\",\"params\":"
       "{\"kind\":\"bridge\",\"category\":\"cell-node-bitline\","
       "\"resistance\":1000,\"vdd\":1.0,\"period\":1e-07}}"},
      {"dpm",
       "{\"v\":1,\"id\":4,\"type\":\"dpm\",\"params\":"
       "{\"yield\":0.9,\"defect_coverage\":0.95}}"},
      {"coverage",
       "{\"v\":1,\"id\":5,\"type\":\"coverage\",\"params\":"
       "{\"geometry\":{\"x_rows\":128,\"y_columns\":32,"
       "\"bits_per_word\":4}}}"},
  };
  std::vector<std::string> expected;
  for (const auto& entry : mix)
    expected.push_back(fixture.expected_response(entry.line));

  std::atomic<long> mismatches{0};
  std::atomic<long> transport_errors{0};
  server::LatencyRecorder recorder;
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto& mine = latencies[static_cast<std::size_t>(c)];
      mine.reserve(static_cast<std::size_t>(requests_per_client));
      try {
        server::Client client(fixture.client_config());
        for (int r = 0; r < requests_per_client; ++r) {
          const std::size_t pick = static_cast<std::size_t>(c + r) %
                                   mix.size();
          const auto sent = std::chrono::steady_clock::now();
          const std::string response = client.roundtrip(mix[pick].line);
          const double took = seconds_since(sent);
          mine.push_back(took);
          recorder.record(mix[pick].type, took);
          if (response != expected[pick]) mismatches.fetch_add(1);
        }
      } catch (const Error& e) {
        transport_errors.fetch_add(1);
        std::fprintf(stderr, "client %d: %s\n", c, e.what());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const double elapsed_s = seconds_since(start);
  fixture.server.stop();

  std::vector<double> all;
  for (const auto& per_client : latencies)
    all.insert(all.end(), per_client.begin(), per_client.end());
  std::sort(all.begin(), all.end());
  const long completed = static_cast<long>(all.size());
  const double rps = elapsed_s > 0.0 ? completed / elapsed_s : 0.0;
  const double p50_ms = percentile_ms(all, 0.50);
  const double p99_ms = percentile_ms(all, 0.99);
  const server::TrafficReport report = recorder.report();
  const bool identical = mismatches.load() == 0 &&
                         transport_errors.load() == 0 &&
                         completed ==
                             static_cast<long>(clients) * requests_per_client;

  std::printf("\n  completed requests ........................ %ld\n",
              completed);
  std::printf("  wall time ................................. %.3f s\n",
              elapsed_s);
  std::printf("  throughput ................................ %.0f req/s\n",
              rps);
  std::printf("  latency p50 / p99 (all types) ............. %.3f / %.3f ms\n",
              p50_ms, p99_ms);
  for (const server::TypeLatency& entry : report.types)
    std::printf("    %-13s p50/p99/p999 .............. %.3f / %.3f / %.3f ms"
                " (%lld reqs)\n",
                entry.type.c_str(), entry.p50_ms, entry.p99_ms, entry.p999_ms,
                entry.count);
  std::printf("  responses identical to direct calls ....... %s\n\n",
              identical ? "HOLDS" : "DEVIATES");

  std::printf("BENCH_JSON {\"bench\":\"server\",\"mode\":\"mixed\","
              "\"workers\":%d,"
              "\"clients\":%d,\"requests_per_client\":%d,"
              "\"completed\":%ld,\"elapsed_s\":%.4f,\"rps\":%.1f,"
              "\"p50_ms\":%.4f,\"p99_ms\":%.4f,"
              "\"per_type\":%s,"
              "\"mismatches\":%ld,\"transport_errors\":%ld,"
              "\"identical\":%s}\n",
              fixture.server.config().workers, clients, requests_per_client,
              completed, elapsed_s, rps, p50_ms, p99_ms,
              report.to_json().dump().c_str(), mismatches.load(),
              transport_errors.load(), identical ? "true" : "false");
  return identical ? 0 : 1;
}

// -----------------------------------------------------------------------
// --repeat: the result-cache story. Distinct schedule requests (the most
// expensive cacheable type) are sent once each — the cold path, priming the
// cache — then repeated for several rounds: the hit path. Every hot
// response must be byte-identical to its cold twin.

int run_repeat(bool smoke) {
  const int unique = smoke ? 4 : 16;
  const int hot_rounds = smoke ? 5 : 20;
  const int mc_defects = smoke ? 300 : 800;

  server::TestServer fixture = make_fixture();
  std::printf("bench_server --repeat: %d workers on 127.0.0.1:%d, %d unique "
              "schedule requests x %d hot rounds\n",
              fixture.server.config().workers, fixture.server.port(), unique,
              hot_rounds);

  std::vector<std::string> lines;
  for (int s = 0; s < unique; ++s) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"v\":1,\"id\":%d,\"type\":\"schedule\",\"params\":"
                  "{\"cells\":4096,\"monte_carlo_defects\":%d,\"seed\":%d}}",
                  s + 1, mc_defects, 100 + s);
    lines.emplace_back(line);
  }

  long mismatches = 0;
  std::vector<double> cold;
  std::vector<double> hot;
  std::vector<std::string> cold_responses;
  try {
    server::Client client(fixture.client_config());
    for (const std::string& line : lines) {
      const auto sent = std::chrono::steady_clock::now();
      std::string response = client.roundtrip(line);
      cold.push_back(seconds_since(sent));
      if (response != fixture.expected_response(line)) ++mismatches;
      cold_responses.push_back(std::move(response));
    }
    for (int round = 0; round < hot_rounds; ++round) {
      for (std::size_t i = 0; i < lines.size(); ++i) {
        const auto sent = std::chrono::steady_clock::now();
        const std::string response = client.roundtrip(lines[i]);
        hot.push_back(seconds_since(sent));
        if (response != cold_responses[i]) ++mismatches;
      }
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "bench_server --repeat: %s\n", e.what());
    ++mismatches;
  }
  fixture.server.stop();

  std::sort(cold.begin(), cold.end());
  std::sort(hot.begin(), hot.end());
  const double cold_p50 = percentile_ms(cold, 0.50);
  const double cold_p99 = percentile_ms(cold, 0.99);
  const double hit_p50 = percentile_ms(hot, 0.50);
  const double hit_p99 = percentile_ms(hot, 0.99);
  double hot_total_s = 0.0;
  for (const double t : hot) hot_total_s += t;
  const double hit_rps =
      hot_total_s > 0.0 ? static_cast<double>(hot.size()) / hot_total_s : 0.0;
  const auto stats = fixture.service->cache().stats();
  const bool identical =
      mismatches == 0 &&
      static_cast<int>(hot.size()) == unique * hot_rounds &&
      static_cast<int>(cold.size()) == unique;
  const bool p50_strictly_lower = hit_p50 < cold_p50;

  std::printf("\n  cold requests (compute) ................... %zu\n",
              cold.size());
  std::printf("  hot requests (cache hits) ................. %zu\n",
              hot.size());
  std::printf("  cold latency p50 / p99 .................... %.3f / %.3f ms\n",
              cold_p50, cold_p99);
  std::printf("  hit latency p50 / p99 ..................... %.3f / %.3f ms\n",
              hit_p50, hit_p99);
  std::printf("  hit-path throughput ....................... %.0f req/s\n",
              hit_rps);
  std::printf("  cache hits / misses / coalesced / evicted . %lld / %lld / "
              "%lld / %lld\n",
              stats.hits, stats.misses, stats.coalesced, stats.evictions);
  std::printf("  hot responses identical to cold ........... %s\n",
              identical ? "HOLDS" : "DEVIATES");
  std::printf("  hit p50 strictly below cold p50 ........... %s\n\n",
              p50_strictly_lower ? "yes" : "NO");

  std::printf("BENCH_JSON {\"bench\":\"server\",\"mode\":\"repeat\","
              "\"workers\":%d,\"unique_requests\":%d,\"hot_rounds\":%d,"
              "\"cold_p50_ms\":%.4f,\"cold_p99_ms\":%.4f,"
              "\"hit_p50_ms\":%.4f,\"hit_p99_ms\":%.4f,\"hit_rps\":%.1f,"
              "\"cache_hits\":%lld,\"cache_misses\":%lld,"
              "\"cache_coalesced\":%lld,\"cache_evictions\":%lld,"
              "\"mismatches\":%ld,\"identical\":%s,"
              "\"p50_strictly_lower\":%s}\n",
              fixture.server.config().workers, unique, hot_rounds, cold_p50,
              cold_p99, hit_p50, hit_p99, hit_rps, stats.hits, stats.misses,
              stats.coalesced, stats.evictions, mismatches,
              identical ? "true" : "false",
              p50_strictly_lower ? "true" : "false");
  // Correctness gates the exit code; the p50 comparison is reported for the
  // trend log but a loaded CI box must not turn it into a flake.
  return identical ? 0 : 1;
}

// -----------------------------------------------------------------------
// --batch: framing overhead. The same cheap request mix goes over the wire
// once per frame, then packed into batch frames, then as single frames
// pipelined five at a time; every answer stream is byte-checked (the batch
// one against the direct batch computation).

int run_batch(bool smoke) {
  const int rounds = smoke ? 20 : 200;

  server::TestServer fixture = make_fixture();

  const std::string items =
      "[{\"type\":\"health\"},"
      "{\"type\":\"dpm\",\"params\":{\"yield\":0.95,"
      "\"defect_coverage\":0.99}},"
      "{\"type\":\"detectability\",\"params\":{\"kind\":\"bridge\","
      "\"category\":\"cell-node-bitline\",\"resistance\":1000,"
      "\"vdd\":1.0,\"period\":1e-07}},"
      "{\"type\":\"dpm\",\"params\":{\"yield\":0.9,"
      "\"defect_coverage\":0.95}},"
      "{\"type\":\"health\"}]";
  const std::vector<std::string> single_lines = {
      "{\"v\":1,\"id\":1,\"type\":\"health\"}",
      "{\"v\":1,\"id\":2,\"type\":\"dpm\",\"params\":"
      "{\"yield\":0.95,\"defect_coverage\":0.99}}",
      "{\"v\":1,\"id\":3,\"type\":\"detectability\",\"params\":"
      "{\"kind\":\"bridge\",\"category\":\"cell-node-bitline\","
      "\"resistance\":1000,\"vdd\":1.0,\"period\":1e-07}}",
      "{\"v\":1,\"id\":4,\"type\":\"dpm\",\"params\":"
      "{\"yield\":0.9,\"defect_coverage\":0.95}}",
      "{\"v\":1,\"id\":5,\"type\":\"health\"}",
  };
  const std::string batch_line =
      "{\"v\":1,\"id\":9,\"type\":\"batch\",\"requests\":" + items + "}";
  const int items_per_batch = static_cast<int>(single_lines.size());
  std::printf("bench_server --batch: %d workers on 127.0.0.1:%d, %d rounds "
              "of %d items\n",
              fixture.server.config().workers, fixture.server.port(), rounds,
              items_per_batch);

  std::vector<std::string> single_expected;
  for (const auto& line : single_lines)
    single_expected.push_back(fixture.expected_response(line));
  const std::string batch_expected = fixture.expected_response(batch_line);

  long mismatches = 0;
  double singles_s = 0.0;
  double batch_s = 0.0;
  double pipelined_s = 0.0;
  std::vector<std::vector<std::string>> pipelined;
  pipelined.reserve(static_cast<std::size_t>(rounds));
  try {
    server::Client client(fixture.client_config());
    const auto singles_start = std::chrono::steady_clock::now();
    for (int round = 0; round < rounds; ++round)
      for (std::size_t i = 0; i < single_lines.size(); ++i)
        if (client.roundtrip(single_lines[i]) != single_expected[i])
          ++mismatches;
    singles_s = seconds_since(singles_start);

    const auto batch_start = std::chrono::steady_clock::now();
    for (int round = 0; round < rounds; ++round)
      if (client.roundtrip(batch_line) != batch_expected) ++mismatches;
    batch_s = seconds_since(batch_start);

    // The same five frames written back-to-back per round; checked after
    // the clock stops, since checking means parsing each response's id.
    const auto pipelined_start = std::chrono::steady_clock::now();
    for (int round = 0; round < rounds; ++round)
      pipelined.push_back(client.pipeline(single_lines));
    pipelined_s = seconds_since(pipelined_start);
  } catch (const Error& e) {
    std::fprintf(stderr, "bench_server --batch: %s\n", e.what());
    ++mismatches;
  }
  fixture.server.stop();

  // The reactor may answer a pipeline out of order: sort each round's
  // responses by echoed id (single_lines carries ids 1..5 in order).
  for (std::vector<std::string>& responses : pipelined) {
    std::vector<std::pair<long long, std::string>> by_id;
    for (std::string& line : responses)
      by_id.emplace_back(server::parse_response(line).id, std::move(line));
    std::sort(by_id.begin(), by_id.end());
    if (by_id.size() != single_expected.size()) {
      ++mismatches;
      continue;
    }
    for (std::size_t i = 0; i < by_id.size(); ++i)
      if (by_id[i].second != single_expected[i]) ++mismatches;
  }

  const long total_items = static_cast<long>(rounds) * items_per_batch;
  const auto items_per_s = [total_items](double seconds) {
    return seconds > 0.0 ? static_cast<double>(total_items) / seconds : 0.0;
  };
  const double singles_ips = items_per_s(singles_s);
  const double batch_ips = items_per_s(batch_s);
  const double pipelined_ips = items_per_s(pipelined_s);
  const bool identical = mismatches == 0;

  std::printf("\n  items per mode ............................ %ld\n",
              total_items);
  std::printf("  one-request-per-frame ..................... %.0f items/s\n",
              singles_ips);
  std::printf("  batch frames (%d items each) .............. %.0f items/s\n",
              items_per_batch, batch_ips);
  std::printf("  pipelined singles (%d frames each) ........ %.0f items/s\n",
              items_per_batch, pipelined_ips);
  std::printf("  batch / singles speedup ................... %.2fx\n",
              singles_ips > 0.0 ? batch_ips / singles_ips : 0.0);
  std::printf("  pipelined / singles speedup ............... %.2fx\n",
              singles_ips > 0.0 ? pipelined_ips / singles_ips : 0.0);
  std::printf("  responses identical to direct calls ....... %s\n\n",
              identical ? "HOLDS" : "DEVIATES");

  std::printf("BENCH_JSON {\"bench\":\"server\",\"mode\":\"batch\","
              "\"workers\":%d,\"rounds\":%d,\"items_per_batch\":%d,"
              "\"singles_items_per_s\":%.1f,\"batch_items_per_s\":%.1f,"
              "\"pipelined_items_per_s\":%.1f,"
              "\"mismatches\":%ld,\"identical\":%s}\n",
              fixture.server.config().workers, rounds, items_per_batch,
              singles_ips, batch_ips, pipelined_ips, mismatches,
              identical ? "true" : "false");
  return identical ? 0 : 1;
}

// -----------------------------------------------------------------------
// --connections: the 10k-keep-alive story. One epoll loop drives N
// nonblocking connections, each cycling request -> response `rounds`
// times; every response is byte-checked. With the old one-worker-per-
// connection transport this mode could not run at all — N idle-ish
// connections would have needed N threads.

int run_connections(int connections, bool smoke) {
  const int rounds = smoke ? 2 : 5;
  // The server runs in a fork()ed child (LocalWorkerFleet) so each process
  // has its own fd budget — 10k connections means 10k fds on EACH end, and
  // a single process would need 2N against typical 20k hard limits. This
  // process only holds the client ends, plus epoll/misc.
  const std::size_t want = static_cast<std::size_t>(connections) + 512;
  const std::size_t budget = server::ensure_fd_budget(want);
  if (budget < want) {
    std::fprintf(stderr,
                 "bench_server --connections %d: fd budget short: needs ~%zu "
                 "fds but RLIMIT_NOFILE caps at %zu even after raising the "
                 "soft limit; raise the hard limit (ulimit -Hn) or lower "
                 "--connections\n",
                 connections, want, budget);
    return 1;
  }

  server::ServerConfig config;
  config.workers = default_thread_count();
  config.queue_depth = std::max(1024, connections);
  config.max_connections = connections + 16;
  // Fork the server before this process starts any thread (fork() rule).
  server::LocalWorkerFleet fleet(
      1, [&config] { return server::make_test_service(config.service_info()); },
      config);
  // The child serves make_test_service(info); an identical local instance
  // supplies the byte-exact expected response.
  const auto oracle = server::make_test_service(config.service_info());
  const std::string line = "{\"v\":1,\"id\":1,\"type\":\"health\"}";
  const server::Request parsed = server::parse_request(line);
  const std::string expected =
      server::make_response(parsed.id, oracle->handle(parsed, {})) + "\n";
  std::printf("bench_server --connections: %d workers on 127.0.0.1:%d "
              "(forked server), %d keep-alive connections x %d rounds\n",
              config.workers, fleet.port(0), connections, rounds);

  struct Conn {
    int fd = -1;
    int remaining = 0;
    bool sending = false;
    std::size_t sent = 0;
    std::string inbuf;
    std::chrono::steady_clock::time_point sent_at;
  };
  const std::string outbound = line + "\n";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(fleet.port(0)));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);

  // Transport errors by the phase that saw them, and per "phase errno".
  enum Phase { kConnect, kSend, kRecvEof, kRecvError, kPhases };
  const char* const phase_names[kPhases] = {"connect", "send", "recv_eof",
                                            "recv_error"};
  long phase_errors[kPhases] = {};
  std::map<std::string, long> errno_errors;
  const auto count_error = [&](Phase phase, int err) {
    ++phase_errors[phase];
    if (err != 0)
      ++errno_errors[std::string(phase_names[phase]) + " " +
                     strerrorname_np(err)];
  };
  const long overflows_before = listen_overflows();

  const int epoll_fd = ::epoll_create1(0);
  std::vector<Conn> conns(static_cast<std::size_t>(connections));
  std::vector<int> slot_of_fd;
  long connect_failures = 0;
  for (int i = 0; i < connections; ++i) {
    Conn& conn = conns[static_cast<std::size_t>(i)];
    conn.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (conn.fd < 0 ||
        (::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
             0 &&
         errno != EINPROGRESS)) {
      count_error(kConnect, errno);
      ++connect_failures;
      if (conn.fd >= 0) ::close(conn.fd);
      conn.fd = -1;
      continue;
    }
    conn.remaining = rounds;
    conn.sending = true;  // first request goes out once writable
    if (conn.fd >= static_cast<int>(slot_of_fd.size()))
      slot_of_fd.resize(static_cast<std::size_t>(conn.fd) + 1024, -1);
    slot_of_fd[static_cast<std::size_t>(conn.fd)] = i;
    epoll_event event{};
    event.events = EPOLLIN | EPOLLOUT;
    event.data.fd = conn.fd;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, conn.fd, &event);
  }

  long mismatches = 0;
  long transport_errors = connect_failures;
  long completed = 0;
  const long expect_total =
      static_cast<long>(connections - connect_failures) * rounds;
  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(expect_total));
  const auto start = std::chrono::steady_clock::now();
  const auto give_up = [&] { return seconds_since(start) > 300.0; };
  long open = connections - connect_failures;

  const auto finish_conn = [&](Conn& conn) {
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    slot_of_fd[static_cast<std::size_t>(conn.fd)] = -1;
    conn.fd = -1;
    --open;
  };
  const auto fail_conn = [&](Conn& conn, Phase phase, int err) {
    count_error(phase, err);
    ++transport_errors;
    finish_conn(conn);
  };

  epoll_event events[512];
  while (open > 0 && !give_up()) {
    const int ready = ::epoll_wait(epoll_fd, events, 512, 1000);
    for (int e = 0; e < ready; ++e) {
      const int fd = events[e].data.fd;
      const int slot = slot_of_fd[static_cast<std::size_t>(fd)];
      if (slot < 0) continue;
      Conn& conn = conns[static_cast<std::size_t>(slot)];
      if ((events[e].events & EPOLLOUT) != 0 && conn.sending) {
        if (conn.sent == 0) conn.sent_at = std::chrono::steady_clock::now();
        const ssize_t n = ::send(conn.fd, outbound.data() + conn.sent,
                                 outbound.size() - conn.sent, MSG_NOSIGNAL);
        if (n > 0) {
          conn.sent += static_cast<std::size_t>(n);
          if (conn.sent == outbound.size()) {
            conn.sending = false;
            conn.sent = 0;
            epoll_event mod{};
            mod.events = EPOLLIN;  // stop polling writable while we wait
            mod.data.fd = conn.fd;
            ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &mod);
          }
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
          fail_conn(conn, kSend, errno);
          continue;
        }
      }
      if ((events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0 &&
          conn.fd >= 0 && !conn.sending) {
        char chunk[4096];
        const ssize_t n = ::recv(conn.fd, chunk, sizeof chunk, 0);
        if (n > 0) {
          conn.inbuf.append(chunk, static_cast<std::size_t>(n));
          if (conn.inbuf.size() >= expected.size()) {
            latencies.push_back(seconds_since(conn.sent_at));
            ++completed;
            if (conn.inbuf != expected) ++mismatches;
            conn.inbuf.clear();
            if (--conn.remaining == 0) {
              finish_conn(conn);
            } else {
              conn.sending = true;
              epoll_event mod{};
              mod.events = EPOLLIN | EPOLLOUT;
              mod.data.fd = conn.fd;
              ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &mod);
            }
          }
        } else if (n == 0) {
          fail_conn(conn, kRecvEof, 0);
        } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
          fail_conn(conn, kRecvError, errno);
        }
      }
    }
  }
  const double elapsed_s = seconds_since(start);
  ::close(epoll_fd);
  fleet.kill(0);
  const long overflows_after = listen_overflows();
  const long listen_overflow_delta =
      overflows_before >= 0 && overflows_after >= 0
          ? overflows_after - overflows_before
          : -1;

  std::sort(latencies.begin(), latencies.end());
  const double rps = elapsed_s > 0.0 ? completed / elapsed_s : 0.0;
  const double p50_ms = percentile_ms(latencies, 0.50);
  const double p99_ms = percentile_ms(latencies, 0.99);
  const double p999_ms = percentile_ms(latencies, 0.999);
  const bool identical = mismatches == 0 && transport_errors == 0 &&
                         completed == expect_total && open == 0;

  std::printf("\n  connections ............................... %d\n",
              connections);
  std::printf("  completed requests ........................ %ld of %ld\n",
              completed, expect_total);
  std::printf("  wall time ................................. %.3f s\n",
              elapsed_s);
  std::printf("  throughput ................................ %.0f req/s\n",
              rps);
  std::printf("  latency p50 / p99 / p999 .................. %.3f / %.3f / "
              "%.3f ms\n",
              p50_ms, p99_ms, p999_ms);
  std::printf("  transport errors .......................... %ld (connect %ld, "
              "send %ld, recv EOF %ld, recv error %ld)\n",
              transport_errors, phase_errors[kConnect], phase_errors[kSend],
              phase_errors[kRecvEof], phase_errors[kRecvError]);
  std::string errnos_json;
  for (const auto& [where, count] : errno_errors) {
    std::printf("    %s ... %ld\n", where.c_str(), count);
    errnos_json += (errnos_json.empty() ? "\"" : ",\"") + where +
                   "\":" + std::to_string(count);
  }
  std::printf("  listen queue overflows (TcpExt) ........... %ld%s\n",
              listen_overflow_delta,
              listen_overflow_delta < 0 ? " (unreadable)" : "");
  std::printf("  responses identical to direct calls ....... %s\n\n",
              identical ? "HOLDS" : "DEVIATES");

  std::printf("BENCH_JSON {\"bench\":\"server\",\"mode\":\"connections\","
              "\"workers\":%d,\"connections\":%d,\"rounds\":%d,"
              "\"completed\":%ld,\"elapsed_s\":%.4f,\"rps\":%.1f,"
              "\"p50_ms\":%.4f,\"p99_ms\":%.4f,\"p999_ms\":%.4f,"
              "\"mismatches\":%ld,\"transport_errors\":%ld,"
              "\"transport_errors_by_phase\":{\"connect\":%ld,\"send\":%ld,"
              "\"recv_eof\":%ld,\"recv_error\":%ld},"
              "\"transport_errnos\":{%s},\"listen_overflows\":%ld,"
              "\"identical\":%s}\n",
              config.workers, connections, rounds, completed,
              elapsed_s, rps, p50_ms, p99_ms, p999_ms, mismatches,
              transport_errors, phase_errors[kConnect], phase_errors[kSend],
              phase_errors[kRecvEof], phase_errors[kRecvError],
              errnos_json.c_str(), listen_overflow_delta,
              identical ? "true" : "false");
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  int clients = 8;
  int requests_per_client = 400;
  int connections = 0;
  bool smoke = false;
  bool repeat_mode = false;
  bool batch_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      clients = 2;
      requests_per_client = 40;
    } else if (std::strcmp(argv[i], "--repeat") == 0) {
      repeat_mode = true;
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      batch_mode = true;
    } else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      clients = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests_per_client = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--connections") == 0 && i + 1 < argc) {
      connections = std::atoi(argv[++i]);
    }
  }
  if (connections > 0) return run_connections(connections, smoke);
  if (repeat_mode) return run_repeat(smoke);
  if (batch_mode) return run_batch(smoke);
  return run_mixed(clients, requests_per_client);
}
