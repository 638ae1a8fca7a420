// Production traffic soak for memstressd: N client threads replay a
// zipf-skewed mix of every request type against an in-process server —
// repeat queries that exercise the result cache, batch frames, cold
// schedule storms that never repeat a cache key — while the harness
// optionally layers chaos injection, connection churn and server
// kill/resume cycles on top. Every response is byte-checked against a
// direct library call or classified into a structured error bucket;
// nothing is silently dropped, which is what "zero stuck requests" means
// here: issued == accounted when the run ends.
//
// Usage: bench_soak [--smoke] [--seconds N | --minutes N] [--clients N]
//                   [--rate R] [--chaos [RATE]] [--kill-resume]
//                   [--churn N] [--seed S] [--stream PATH] [--coordinator]
//   --smoke        short deterministic chaos + kill/resume soak for ctest
//   --coordinator  distributed smoke instead of the traffic soak: a short
//                  chaos + mid-run SIGKILL characterize over a local worker
//                  fleet, byte-checked against the single-node oracle
//   --rate R       open-loop pacing at R requests/s total (0 = closed loop,
//                  one in flight per client)
//   --chaos        seeded fault injection at the server's chaos site
//                  (optionally followed by a rate; default 0.02)
//   --kill-resume  periodically stop the server, wait, restart it on the
//                  same port; clients must ride through the outage
//   --churn N      each client drops its connection every N requests
//   --stream PATH  NDJSON metrics feed (the line format of memstressd's
//                  MEMSTRESS_METRICS_STREAM); per-type soak latencies are
//                  mirrored into the streamed histograms live
//
// The SLOs evaluated at the end are wedge detectors, not latency targets:
// they assert that the client-side timeouts actually bounded every sample
// and that no request type degenerated into pure errors. The last stdout
// line is machine-readable:
//   SOAK_JSON {"bench":"soak", ...}
// Exit 0 = no mismatches, no stuck requests, no unexpected error codes,
// SLOs met.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "march/library.hpp"
#include "server/client.hpp"
#include "server/coordinator.hpp"
#include "server/fleet.hpp"
#include "server/loadgen.hpp"
#include "tests/server/server_test_util.hpp"
#include "util/chaos.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

using namespace memstress;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

struct SoakOptions {
  double seconds = 30.0;
  int clients = 4;
  double rate = 0.0;        // total open-loop req/s across clients
  double chaos_rate = 0.0;  // 0 = off
  bool kill_resume = false;
  int churn = 0;  // disconnect every N requests per client (0 = never)
  std::uint64_t seed = 1;
  std::string stream;  // NDJSON metrics target ("" = off)
};

// Restartable fixture: the first start() binds an ephemeral port which is
// then pinned, so every resume comes back at the same address (the listener
// sets SO_REUSEADDR). The service — and with it the result cache — survives
// restarts: a warm daemon restart, exactly the production event kill/resume
// rehearses.
struct SoakServer {
  std::shared_ptr<const server::MemstressService> service;
  server::ServerConfig config;
  std::unique_ptr<server::Server> server;

  explicit SoakServer(server::ServerConfig cfg)
      : service(server::make_test_service(cfg.service_info())),
        config(std::move(cfg)) {
    server = std::make_unique<server::Server>(config, service);
    server->start();
    config.port = server->port();
  }
  int port() const { return config.port; }
  void kill() {
    server->stop();
    server.reset();
  }
  void resume() {
    server = std::make_unique<server::Server>(config, service);
    server->start();
  }
};

struct PooledRequest {
  std::string type;
  std::string line;
  std::string expected;
};

// The hot working set the zipf sampler draws from: many distinct cacheable
// keys (so the skewed head hits the result cache while the tail keeps
// missing and evicting), the heavy schedule estimator, and batch frames.
// Expected frames are computed once via direct library calls — the chaos
// site lives in the server's request path, never here.
std::vector<PooledRequest> build_hot_pool(const SoakServer& soak) {
  std::vector<PooledRequest> pool;
  const auto add = [&](const char* type, const std::string& line) {
    const server::Request request = server::parse_request(line);
    pool.push_back({type, line,
                    server::make_response(request.id,
                                          soak.service->handle(request, {}))});
  };
  char line[512];
  add("health", "{\"v\":1,\"id\":1,\"type\":\"health\"}");
  for (int i = 0; i < 16; ++i) {
    std::snprintf(line, sizeof line,
                  "{\"v\":1,\"id\":%d,\"type\":\"dpm\",\"params\":"
                  "{\"yield\":%.3f,\"defect_coverage\":0.99}}",
                  100 + i, 0.90 + 0.005 * i);
    add("dpm", line);
  }
  for (int i = 0; i < 6; ++i) {
    std::snprintf(line, sizeof line,
                  "{\"v\":1,\"id\":%d,\"type\":\"coverage\",\"params\":"
                  "{\"geometry\":{\"x_rows\":%d,\"y_columns\":32,"
                  "\"bits_per_word\":4}}}",
                  200 + i, 32 * (i + 1));
    add("coverage", line);
  }
  int id = 300;
  for (const double r : {20.0, 1000.0, 10000.0, 90000.0}) {
    std::snprintf(line, sizeof line,
                  "{\"v\":1,\"id\":%d,\"type\":\"detectability\",\"params\":"
                  "{\"kind\":\"bridge\",\"category\":\"cell-node-bitline\","
                  "\"resistance\":%.0f,\"vdd\":1.0,\"period\":1e-07}}",
                  id++, r);
    add("detectability", line);
  }
  for (const int s : {3, 5}) {
    std::snprintf(line, sizeof line,
                  "{\"v\":1,\"id\":%d,\"type\":\"schedule\",\"params\":"
                  "{\"yield\":0.91,\"monte_carlo_defects\":200,\"seed\":%d}}",
                  400 + s, s);
    add("schedule", line);
  }
  // Batch frames: several sub-requests in one syscall round trip, the shape
  // the PR-5 batching work optimizes. Expected via the same direct path.
  add("batch",
      "{\"v\":1,\"id\":500,\"type\":\"batch\",\"params\":{\"requests\":["
      "{\"type\":\"health\",\"params\":{}},"
      "{\"type\":\"dpm\",\"params\":{\"yield\":0.95,"
      "\"defect_coverage\":0.99}},"
      "{\"type\":\"coverage\",\"params\":{\"geometry\":{\"x_rows\":64,"
      "\"y_columns\":32,\"bits_per_word\":4}}}]}}");
  add("batch",
      "{\"v\":1,\"id\":501,\"type\":\"batch\",\"params\":{\"requests\":["
      "{\"type\":\"dpm\",\"params\":{\"yield\":0.93,"
      "\"defect_coverage\":0.98}},"
      "{\"type\":\"detectability\",\"params\":{\"kind\":\"open\","
      "\"category\":\"cell-internal\",\"resistance\":1e6,\"vdd\":1.95,"
      "\"period\":1e-07}}]}}");
  return pool;
}

// A never-before-seen schedule request: unique seed => guaranteed result
// cache miss => the cold estimator path, en masse. The "cold storm" half of
// the traffic shape.
std::string cold_storm_line(long long n) {
  char line[192];
  std::snprintf(line, sizeof line,
                "{\"v\":1,\"id\":%lld,\"type\":\"schedule\",\"params\":"
                "{\"yield\":0.9,\"monte_carlo_defects\":150,\"seed\":%lld}}",
                900000 + n, 100000 + n);
  return line;
}

struct Totals {
  std::atomic<long long> issued{0};
  std::atomic<long long> accounted{0};  // every issued request lands here
  std::atomic<long long> ok{0};
  std::atomic<long long> errored{0};
  std::atomic<long long> transport{0};
  std::atomic<long long> unexpected_codes{0};
  std::atomic<long long> mismatches{0};
  std::atomic<long long> cold{0};
  std::atomic<long long> max_behind_ms{0};
};

// Error codes a healthy stack is allowed to produce under this load:
// chaos-injected faults, backpressure, drain during a kill cycle, and
// deadline overruns on a saturated box. Anything else is a finding.
bool allowed_error_code(const std::string& code) {
  return code == "injected" || code == "busy" || code == "shutting_down" ||
         code == "timeout";
}

void client_loop(int index, const SoakOptions& opt, const SoakServer& soak,
                 const std::vector<PooledRequest>& pool,
                 const server::ZipfSampler& zipf,
                 server::LatencyRecorder& recorder, std::atomic<bool>& stop,
                 Totals& totals, std::atomic<long long>& cold_counter) {
  Rng rng(opt.seed * 7919 + static_cast<std::uint64_t>(index));
  server::ClientConfig config;
  config.port = soak.port();
  config.timeout_ms = 2000;
  server::Client client(config);
  std::unique_ptr<server::Pacer> pacer;
  if (opt.rate > 0.0)
    pacer = std::make_unique<server::Pacer>(
        opt.rate / opt.clients, std::chrono::steady_clock::now());
  long long sent = 0;
  std::string cold_line_storage;
  std::string cold_expected_storage;
  while (!stop.load(std::memory_order_relaxed)) {
    if (pacer) {
      std::this_thread::sleep_until(pacer->next_deadline());
      const long long behind = pacer->behind().count();
      long long seen = totals.max_behind_ms.load(std::memory_order_relaxed);
      while (behind > seen &&
             !totals.max_behind_ms.compare_exchange_weak(seen, behind)) {
      }
    }
    const std::string* line = nullptr;
    const std::string* expected = nullptr;
    std::string type;
    if (rng.uniform() < 0.05) {
      const long long n =
          cold_counter.fetch_add(1, std::memory_order_relaxed);
      cold_line_storage = cold_storm_line(n);
      const server::Request request =
          server::parse_request(cold_line_storage);
      cold_expected_storage = server::make_response(
          request.id, soak.service->handle(request, {}));
      type = "schedule_cold";
      line = &cold_line_storage;
      expected = &cold_expected_storage;
      totals.cold.fetch_add(1, std::memory_order_relaxed);
    } else {
      const PooledRequest& pick = pool[zipf.sample(rng)];
      type = pick.type;
      line = &pick.line;
      expected = &pick.expected;
    }
    totals.issued.fetch_add(1, std::memory_order_relaxed);
    const auto sent_at = std::chrono::steady_clock::now();
    std::string response;
    try {
      response = client.roundtrip(*line);
    } catch (const Error&) {
      // Transport failure: connect refused during a kill window, EOF after
      // a busy close, receive timeout. Accounted, never silently dropped.
      totals.transport.fetch_add(1, std::memory_order_relaxed);
      totals.accounted.fetch_add(1, std::memory_order_relaxed);
      recorder.record_error(type, "transport");
      client.disconnect();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    }
    const double took = seconds_since(sent_at);
    if (response == *expected) {
      recorder.record(type, took);
      totals.ok.fetch_add(1, std::memory_order_relaxed);
      totals.accounted.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Not the expected frame: either a structured error (classified by
      // code) or a wrong answer (the soak's cardinal sin).
      bool classified = false;
      try {
        const server::Response parsed = server::parse_response(response);
        if (!parsed.ok) {
          recorder.record_error(type, parsed.error_code);
          totals.errored.fetch_add(1, std::memory_order_relaxed);
          if (!allowed_error_code(parsed.error_code)) {
            if (totals.unexpected_codes.fetch_add(
                    1, std::memory_order_relaxed) < 5)
              std::fprintf(stderr, "UNEXPECTED CODE %s for %s: %s\n",
                           parsed.error_code.c_str(), type.c_str(),
                           response.c_str());
          }
          // The server closes the connection after "busy"; reconnect so the
          // next request does not read a stale EOF.
          client.disconnect();
          classified = true;
        }
      } catch (const Error&) {
      }
      if (!classified) {
        if (totals.mismatches.fetch_add(1, std::memory_order_relaxed) < 5)
          std::fprintf(stderr, "MISMATCH for %s\n  sent: %s\n  got:  %s\n",
                       type.c_str(), line->c_str(), response.c_str());
      }
      totals.accounted.fetch_add(1, std::memory_order_relaxed);
    }
    ++sent;
    if (opt.churn > 0 && sent % opt.churn == 0) client.disconnect();
  }
}

long count_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  long lines = 0;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) ++lines;
  return lines;
}

int run_soak(const SoakOptions& opt) {
  // Arm the NDJSON metrics feed before the server starts. The streamer
  // turns metrics on and rides through every kill/resume cycle; it is a
  // no-op without --stream.
  auto streamer = std::make_unique<metrics::SnapshotStreamer>(
      opt.stream, 500, "memstressd");
  if (opt.chaos_rate > 0.0) chaos::configure(opt.chaos_rate, opt.seed);

  server::ServerConfig config;
  config.workers = default_thread_count();
  config.queue_depth = 64;
  // Small cache so the zipf tail and the cold storms force evictions — a
  // soak against an infinite cache would never test the eviction path.
  config.cache_entries = 64;
  SoakServer soak(config);
  const std::vector<PooledRequest> pool = build_hot_pool(soak);
  const server::ZipfSampler zipf(pool.size(), 1.1);
  server::LatencyRecorder recorder("soak.latency.");

  std::printf("bench_soak: %d workers on 127.0.0.1:%d, %d clients, %.0f s"
              "%s%s%s%s\n",
              soak.server->config().workers, soak.port(), opt.clients,
              opt.seconds, opt.rate > 0 ? ", open-loop" : ", closed-loop",
              opt.chaos_rate > 0 ? ", chaos" : "",
              opt.kill_resume ? ", kill/resume" : "",
              opt.churn > 0 ? ", churn" : "");

  std::atomic<bool> stop{false};
  std::atomic<long long> cold_counter{0};
  Totals totals;
  std::vector<std::thread> threads;
  for (int c = 0; c < opt.clients; ++c)
    threads.emplace_back([&, c] {
      client_loop(c, opt, soak, pool, zipf, recorder, stop, totals,
                  cold_counter);
    });

  // The outage driver: periodically stop the server (in-flight requests
  // drain, idle reads are woken), hold it down, restart on the same port.
  const auto start = std::chrono::steady_clock::now();
  int kill_cycles = 0;
  while (seconds_since(start) < opt.seconds) {
    const double remaining = opt.seconds - seconds_since(start);
    if (opt.kill_resume && remaining > 1.6) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1200));
      soak.kill();
      ++kill_cycles;
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      soak.resume();
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          static_cast<int>(std::min(0.2, std::max(0.01, remaining)) * 1e3)));
    }
  }
  stop.store(true, std::memory_order_relaxed);
  const auto drain_start = std::chrono::steady_clock::now();
  for (std::thread& t : threads) t.join();
  const double drain_s = seconds_since(drain_start);
  soak.kill();       // final stop
  streamer.reset();  // final snapshot lands before the lines are counted

  const server::TrafficReport report = recorder.report();
  // Wedge-detection SLOs: every successful sample must be inside the
  // client-side timeout envelope (connect + receive, 2 s each, plus server
  // time) and no request type may degenerate into pure errors. Latency
  // *targets* belong on a dashboard reading per_type, not in an exit code
  // computed on an arbitrarily loaded CI box.
  server::SloSpec slo;
  slo.p99_ms = 2500.0;
  slo.p999_ms = 4500.0;
  slo.max_error_fraction = 0.9;
  const server::SloVerdict verdict = report.evaluate(slo);

  const long long issued = totals.issued.load();
  const long long accounted = totals.accounted.load();
  const long long stuck = issued - accounted;
  long stream_lines = opt.stream.empty() ? -1 : count_lines(opt.stream);
  const bool stream_ok = opt.stream.empty() || stream_lines > 0;

  std::printf("\n  %-14s %10s %8s %10s %10s %10s\n", "type", "ok", "errors",
              "p50 ms", "p99 ms", "p999 ms");
  for (const server::TypeLatency& t : report.types)
    std::printf("  %-14s %10lld %8lld %10.3f %10.3f %10.3f\n",
                t.type.c_str(), t.count, t.errors, t.p50_ms, t.p99_ms,
                t.p999_ms);
  std::printf("\n  requests issued ........................... %lld\n",
              issued);
  std::printf("  accounted (ok + error + transport) ........ %lld\n",
              accounted);
  std::printf("  stuck (issued - accounted) ................ %lld\n", stuck);
  std::printf("  byte-identical responses .................. %lld\n",
              totals.ok.load());
  std::printf("  structured errors ......................... %lld\n",
              totals.errored.load());
  std::printf("  transport errors .......................... %lld\n",
              totals.transport.load());
  std::printf("  unexpected error codes .................... %lld\n",
              totals.unexpected_codes.load());
  std::printf("  mismatched responses ...................... %lld\n",
              totals.mismatches.load());
  std::printf("  cold storm requests ....................... %lld\n",
              totals.cold.load());
  std::printf("  kill/resume cycles ........................ %d\n",
              kill_cycles);
  if (opt.rate > 0)
    std::printf("  max open-loop lag ......................... %lld ms\n",
                totals.max_behind_ms.load());
  if (stream_lines >= 0)
    std::printf("  metrics stream lines (%s) ... %ld\n", opt.stream.c_str(),
                stream_lines);
  std::printf("  drain after stop .......................... %.2f s\n",
              drain_s);
  for (const std::string& v : verdict.violations)
    std::printf("  SLO VIOLATION: %s\n", v.c_str());

  const bool pass = totals.mismatches.load() == 0 && stuck == 0 &&
                    totals.unexpected_codes.load() == 0 && verdict.pass &&
                    totals.ok.load() > 0 && stream_ok &&
                    (!opt.kill_resume || kill_cycles > 0);
  std::printf("  verdict ................................... %s\n\n",
              pass ? "PASS" : "FAIL");

  std::string violations = "[";
  for (std::size_t i = 0; i < verdict.violations.size(); ++i) {
    if (i > 0) violations += ",";
    violations += server::Json(verdict.violations[i]).dump();
  }
  violations += "]";
  std::printf(
      "SOAK_JSON {\"bench\":\"soak\",\"seconds\":%.1f,\"clients\":%d,"
      "\"rate\":%.1f,\"chaos_rate\":%.3f,\"kill_cycles\":%d,\"churn\":%d,"
      "\"seed\":%llu,\"issued\":%lld,\"accounted\":%lld,\"stuck\":%lld,"
      "\"ok\":%lld,\"errors\":%lld,\"transport_errors\":%lld,"
      "\"unexpected_codes\":%lld,\"mismatches\":%lld,\"cold\":%lld,"
      "\"max_behind_ms\":%lld,\"stream_lines\":%ld,\"drain_s\":%.2f,"
      "\"per_type\":%s,\"slo\":{\"pass\":%s,\"violations\":%s},"
      "\"pass\":%s}\n",
      opt.seconds, opt.clients, opt.rate, opt.chaos_rate, kill_cycles,
      opt.churn, static_cast<unsigned long long>(opt.seed), issued,
      accounted, stuck, totals.ok.load(), totals.errored.load(),
      totals.transport.load(), totals.unexpected_codes.load(),
      totals.mismatches.load(), totals.cold.load(),
      totals.max_behind_ms.load(), stream_lines, drain_s,
      report.to_json().dump().c_str(), verdict.pass ? "true" : "false",
      violations.c_str(), pass ? "true" : "false");
  return pass ? 0 : 1;
}

// -----------------------------------------------------------------------
// --coordinator: the distributed smoke. A chaos-seeded characterize over a
// 3-worker local fleet with one worker SIGKILLed mid-run; the merged CSV
// (including its chaos quarantine rows — chaos verdicts are keyed on the
// global grid index) must match the single-node oracle byte for byte.
//
// Must run before any soak threads exist: LocalWorkerFleet fork()s and the
// parent must still be single-threaded.
int run_coordinator_soak(std::uint64_t seed) {
  estimator::CharacterizeSpec spec;
  spec.block.rows = 2;
  spec.block.cols = 1;
  spec.test = march::test_11n();
  spec.vdds = {1.0, 1.8};
  spec.periods = {100e-9};
  spec.bridge_resistances = {1e3};
  spec.open_resistances = {1e6};
  spec.gox_vbds = {1.7};
  spec.threads = 1;
  const double chaos_rate = 0.3;

  chaos::configure(chaos_rate, seed);
  const estimator::DetectabilityDb expected = estimator::characterize(spec);
  chaos::disable();

  server::ServerConfig worker_config;
  worker_config.request_timeout_ms = 120000;
  server::LocalWorkerFleet fleet(3,
                                 [chaos_rate, seed] {
                                   chaos::configure(chaos_rate, seed);
                                   return server::make_test_service();
                                 },
                                 worker_config);
  server::CoordinatorConfig config;
  config.workers = fleet.endpoints();
  config.characterize_shard_points = 3;
  config.max_shard_attempts = 30;  // chaos re-rolls per attempt
  config.backoff_initial_ms = 2;
  config.backoff_max_ms = 20;
  server::Coordinator coordinator(config);

  metrics::set_enabled(true);
  metrics::Counter& dispatched = metrics::counter("coord.shards_dispatched");
  const long long before = dispatched.value();
  std::thread killer([&] {
    while (dispatched.value() - before < 2)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    fleet.kill(0);
  });
  const auto start = std::chrono::steady_clock::now();
  const estimator::DetectabilityDb db = coordinator.characterize(spec);
  const double elapsed_s = seconds_since(start);
  killer.join();
  metrics::set_enabled(false);

  const server::CoordinatorStats& stats = coordinator.stats();
  const bool identical = db.to_csv() == expected.to_csv();
  const bool pass = identical && stats.complete() && stats.workers_dead == 1;
  std::printf("bench_soak --coordinator: %.3f s, %ld dispatches, %ld "
              "requeued, %ld dead worker(s)\n",
              elapsed_s, stats.shards_dispatched, stats.shards_requeued,
              stats.workers_dead);
  std::printf("  merged bytes identical under chaos + kill . %s\n\n",
              pass ? "HOLDS" : "DEVIATES");
  std::printf("SOAK_JSON {\"bench\":\"soak\",\"mode\":\"coordinator\","
              "\"chaos_rate\":%.2f,\"seed\":%llu,\"elapsed_s\":%.4f,"
              "\"dispatched\":%ld,\"requeued\":%ld,\"workers_dead\":%ld,"
              "\"identical\":%s,\"pass\":%s}\n",
              chaos_rate, static_cast<unsigned long long>(seed), elapsed_s,
              stats.shards_dispatched, stats.shards_requeued,
              stats.workers_dead, identical ? "true" : "false",
              pass ? "true" : "false");
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  SoakOptions opt;
  bool coordinator_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opt.seconds = 4.0;
      opt.clients = 3;
      opt.chaos_rate = 0.02;
      opt.kill_resume = true;
      opt.churn = 40;
      if (opt.stream.empty()) opt.stream = "bench_soak_stream.ndjson";
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      opt.seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--minutes") == 0 && i + 1 < argc) {
      opt.seconds = std::atof(argv[++i]) * 60.0;
    } else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      opt.clients = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--rate") == 0 && i + 1 < argc) {
      opt.rate = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      opt.chaos_rate = 0.02;
      if (i + 1 < argc && argv[i + 1][0] != '-')
        opt.chaos_rate = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--kill-resume") == 0) {
      opt.kill_resume = true;
    } else if (std::strcmp(argv[i], "--churn") == 0 && i + 1 < argc) {
      opt.churn = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      opt.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--stream") == 0 && i + 1 < argc) {
      opt.stream = argv[++i];
    } else if (std::strcmp(argv[i], "--coordinator") == 0) {
      coordinator_mode = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (coordinator_mode) return run_coordinator_soak(opt.seed);
  if (opt.clients < 1) opt.clients = 1;
  return run_soak(opt);
}
