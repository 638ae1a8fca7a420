// serve_mix: open-loop traffic from independent test-floor clients against
// a forked memstressd serving the undervolt database.
//
// The traffic is synthetic: no observed test-floor traffic exists, so each
// share, rate and limit below is an assumption, and perfbench/README.md
// gives the basis of every one. Arrivals are Poisson at a fixed offered
// rate, so a stall delays every request due after it and each request is
// timed from its due time, not from when the generator got round to sending
// it. Keys are zipf-skewed over a key space several times the result cache's
// 1024 entries, so the hit ratio depends on skew against capacity. One
// process drives the traffic with kGeneratorThreads threads, each owning one
// pipelined connection; responses are correlated by the echoed id.
//
// The run has three phases: warm-up (part of set-up), the nominal rate
// (p50 and p99 over the whole phase, and the failed-share count), and a
// staircase of short trials over a ladder of higher rates, one rung up after
// a trial that passes and one down after a trial where p99 misses the limit,
// a request fails, or the generator's lateness grows. Every answered request
// is byte-checked against a direct MemstressService::handle() after the
// timed window.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <thread>

#include "layers.hpp"
#include "server/client.hpp"
#include "server/fleet.hpp"
#include "server/loadgen.hpp"
#include "server/protocol.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace memstress::perfbench {

namespace {

using server::Json;

constexpr int kGeneratorThreads = 2;
/// Offered requests per second of the nominal phase: about a third of the
/// rate where the rate search settles on a 4-vCPU host, so the phase
/// measures service time with light queueing, not saturation.
constexpr double kNominalRate = 1500.0;
/// The ladder of offered rates above the nominal one: 2000 req/s and up in
/// steps of 4%, to 8900 req/s. Where the first rejections appear varies from
/// one short run to the next, so max_rate_rps comes from a staircase over
/// the ladder (staircase() below) rather than from one climb.
constexpr double kLadderBaseRps = 2000.0;
constexpr double kLadderStep = 1.04;
constexpr std::size_t kLadderRungs = 39;
/// The staircase starts at the rung nearest 5000 req/s, inside the range
/// where it settles on a 4-vCPU host, and runs this many trials.
constexpr std::size_t kStartRung = 23;
constexpr int kTrials = 28;
/// No latency objective is documented for memstressd. 25 ms is several
/// uncached schedule computations deep, so a trial fails when queues build
/// up, not on one slow request.
constexpr double kP99LimitMs = 25.0;
/// Generator lateness (send time past due) beyond which a nominal-rate run
/// is invalid: the generator's own delay would miss the latency limit, so
/// the generator, not the server, would be setting the pace. Smaller
/// lateness is already inside every latency, which is timed from the due
/// time; a stalled host makes the generator 10-20 ms late at p99.
constexpr double kLateLimitMs = kP99LimitMs;
/// A load balancer's health probe: periodic, so its cost does not grow with
/// the offered rate.
constexpr double kHealthPeriodS = 0.02;
/// Shares of the other requests: mostly lookups with estimator queries mixed
/// in, the shape bench_server's mix describes. Schedule requests take what
/// is left (20%), and the share of schedule keys that never repeat is
/// bench_soak's cold-storm share.
constexpr double kDetectabilityShare = 0.35;
constexpr double kDpmShare = 0.30;
constexpr double kCoverageShare = 0.10;
constexpr double kColdScheduleShare = 0.05;
/// Key popularity, bench_soak's zipf exponent.
constexpr double kZipfExponent = 1.1;
/// Below bench_soak's 150-200, so that four workers saturate at thousands of
/// requests per second rather than hundreds.
constexpr int kScheduleMonteCarlo = 50;
constexpr double kGraceS = 2.0;  ///< answer deadline after the last due time
/// Requests of the seed's mix whose direct answers make the reference digest.
constexpr std::size_t kDigestSample = 2000;

struct Item {
  double due_s = 0.0;  ///< offset from the phase start
  std::string type;
  std::string line;
};

/// Seeded request mix: per-type zipf over a fixed key universe, permuted
/// per seed so the hot keys differ between seeds while the shape does not.
class MixGenerator {
 public:
  explicit MixGenerator(std::uint64_t seed) : seed_(seed) {
    for (int y = 0; y < 20; ++y)
      for (int c = 0; c < 100; ++c) {
        Json p = Json::object();
        p.set("yield", Json(0.80 + 0.01 * y));
        p.set("defect_coverage", Json(0.900 + 0.001 * c));
        dpm_.push_back(p.dump());
      }
    for (const int rows : {64, 128, 256, 512, 1024})
      for (const int cols : {8, 16, 32, 64})
        for (const int bits : {1, 2, 4, 8})
          for (const int blocks : {1, 2, 4}) {
            Json g = Json::object();
            g.set("x_rows", Json(rows));
            g.set("y_columns", Json(cols));
            g.set("bits_per_word", Json(bits));
            g.set("z_blocks", Json(blocks));
            Json p = Json::object();
            p.set("geometry", std::move(g));
            coverage_.push_back(p.dump());
          }
    for (const int cells : {4096, 16384, 65536, 262144})
      for (int s = 1; s <= 400; ++s) schedule_.push_back(schedule_params(cells, s));
    // Detectability queries name only defect classes the served grid has.
    std::set<std::pair<int, int>> classes;
    for (const auto& point : estimator::characterize_grid(undervolt_spec()))
      classes.emplace(static_cast<int>(point.entry.kind), point.entry.category);
    classes_.assign(classes.begin(), classes.end());
    Rng rng(derive_seed(seed, 1));
    shuffle(dpm_, rng);
    shuffle(coverage_, rng);
    shuffle(schedule_, rng);
  }

  /// Poisson arrivals at `rate` over [0, duration) plus periodic health
  /// probes; ids run from first_id in due order.
  std::vector<Item> phase(double rate, double duration_s, std::uint64_t stream,
                          long long first_id) {
    Rng rng(derive_seed(seed_, 100 + stream));
    std::vector<Item> items;
    for (double t = -std::log(1.0 - rng.uniform()) / rate; t < duration_s;
         t += -std::log(1.0 - rng.uniform()) / rate)
      items.push_back(draw(t, rng));
    for (double t = 0.5 * kHealthPeriodS; t < duration_s; t += kHealthPeriodS)
      items.push_back({t, "health", ""});
    std::stable_sort(items.begin(), items.end(),
                     [](const Item& a, const Item& b) { return a.due_s < b.due_s; });
    long long id = first_id;
    for (Item& item : items) {
      Json request = Json::object();
      request.set("v", Json(1));
      request.set("id", Json(id++));
      request.set("type", Json(item.type));
      if (!item.line.empty()) request.set("params", Json::parse(item.line));
      item.line = request.dump();
    }
    return items;
  }

 private:
  static std::string schedule_params(int cells, long long seed) {
    Json p = Json::object();
    p.set("cells", Json(cells));
    p.set("yield", Json(0.95));
    p.set("monte_carlo_defects", Json(kScheduleMonteCarlo));
    p.set("seed", Json(seed));
    return p.dump();
  }

  static void shuffle(std::vector<std::string>& keys, Rng& rng) {
    for (std::size_t i = keys.size(); i > 1; --i)
      std::swap(keys[i - 1], keys[static_cast<std::size_t>(rng() % i)]);
  }

  /// One non-health request; `line` temporarily holds the params text.
  Item draw(double t, Rng& rng) {
    double u = rng.uniform();
    if ((u -= kDetectabilityShare) < 0.0) {
      Json p = Json::object();
      const auto [kind, category] = classes_[rng() % classes_.size()];
      p.set("kind", Json(kind == static_cast<int>(defects::DefectKind::Bridge)
                             ? "bridge"
                             : "open"));
      p.set("category", Json(category));
      p.set("resistance", Json(rng.log_uniform(10.0, 1e8)));
      static const double vdds[] = {0.6, 0.7, 0.8, 0.9, 1.0, 1.65, 1.8, 1.95};
      static const double periods[] = {100e-9, 25e-9, 15e-9};
      p.set("vdd", Json(vdds[rng() % 8]));
      p.set("period", Json(periods[rng() % 3]));
      return {t, "detectability", p.dump()};
    }
    if ((u -= kDpmShare) < 0.0) return {t, "dpm", dpm_[dpm_zipf_.sample(rng)]};
    if ((u -= kCoverageShare) < 0.0)
      return {t, "coverage", coverage_[coverage_zipf_.sample(rng)]};
    if ((u -= kColdScheduleShare) < 0.0)  // never repeats: always a cache miss
      return {t, "schedule", schedule_params(4096, 1000000 + unique_++)};
    return {t, "schedule", schedule_[schedule_zipf_.sample(rng)]};
  }

  std::uint64_t seed_;
  std::vector<std::string> dpm_, coverage_, schedule_;
  std::vector<std::pair<int, int>> classes_;  ///< (DefectKind, category)
  server::ZipfSampler dpm_zipf_{2000, kZipfExponent};
  server::ZipfSampler coverage_zipf_{240, kZipfExponent};
  server::ZipfSampler schedule_zipf_{1600, kZipfExponent};
  long long unique_ = 0;
};

/// Distinct cacheable request bodies (coverage, dpm, schedule) in `items`.
std::size_t distinct_cached_keys(const std::vector<Item>& items) {
  std::set<std::string> keys;
  for (const Item& item : items)
    if (item.type == "dpm" || item.type == "coverage" || item.type == "schedule")
      keys.insert(item.line.substr(item.line.find("\"type\"")));  // without the id
  return keys.size();
}

/// What one open-loop phase observed, per request in due order.
struct PhaseOutcome {
  /// From the due time. A failed request counts as answered at the phase's
  /// answer deadline, so it is over any latency limit.
  std::vector<double> latency_ms;
  std::vector<double> late_ms;     ///< send time past due
  std::vector<std::string> responses;
  long long ok = 0;
  long long failed = 0;
  double wall_s = 0.0;  ///< first due time to last answer
  double span_s = 0.0;  ///< first to last due time
};

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

long long response_id(const std::string& line) {
  const auto at = line.find("\"id\":");
  if (at == std::string::npos) return -1;
  return std::strtoll(line.c_str() + at + 5, nullptr, 10);
}

/// Drive `items` open-loop against the server; ids are first_id + index.
PhaseOutcome run_phase(int port, const std::vector<Item>& items,
                       long long first_id) {
  PhaseOutcome out;
  const std::size_t n = items.size();
  out.latency_ms.assign(n, 0.0);
  out.late_ms.assign(n, 0.0);
  out.responses.assign(n, "");
  if (n == 0) return out;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto due_at = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(items[i].due_s));
  };
  const Clock::time_point deadline =
      due_at(n - 1) +
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(kGraceS));
  std::vector<Clock::time_point> answered(n, start);
  Tracer& tracer = Tracer::instance();

  const auto generator = [&](int thread) {
    std::vector<std::size_t> mine;
    for (std::size_t i = static_cast<std::size_t>(thread); i < n; i += kGeneratorThreads)
      mine.push_back(i);
    int fd = connect_loopback(port);
    std::size_t next = 0;
    std::vector<std::size_t> outstanding;  // sent, not yet answered
    std::string outbuf, inbuf;
    std::size_t out_off = 0;
    const auto drop_connection = [&] {
      // Everything in flight on a lost connection has failed; reconnect.
      if (fd >= 0) ::close(fd);
      outstanding.clear();
      outbuf.clear();
      inbuf.clear();
      out_off = 0;
      fd = connect_loopback(port);
    };
    while (true) {
      Clock::time_point now = Clock::now();
      while (next < mine.size() && due_at(mine[next]) <= now) {
        const std::size_t i = mine[next++];
        out.late_ms[i] = 1e3 * seconds_between(due_at(i), now);
        if (fd < 0) continue;  // unreachable server: the request fails
        outbuf += items[i].line;
        outbuf += '\n';
        outstanding.push_back(i);
      }
      while (fd >= 0 && out_off < outbuf.size()) {
        const ssize_t sent = ::send(fd, outbuf.data() + out_off,
                                    outbuf.size() - out_off,
                                    MSG_NOSIGNAL | MSG_DONTWAIT);
        if (sent > 0) {
          out_off += static_cast<std::size_t>(sent);
        } else if (sent < 0 && (errno == EAGAIN || errno == EINTR)) {
          break;
        } else {
          drop_connection();
        }
      }
      if (out_off == outbuf.size()) {
        outbuf.clear();
        out_off = 0;
      }
      if (next == mine.size() && outstanding.empty()) break;
      if (now >= deadline) break;
      const Clock::time_point wake =
          next < mine.size() ? std::min(due_at(mine[next]), deadline) : deadline;
      const auto wait_ns = std::max<long long>(
          0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now).count());
      if (fd < 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(wait_ns));
        continue;
      }
      pollfd p{fd, static_cast<short>(POLLIN | (outbuf.empty() ? 0 : POLLOUT)), 0};
      timespec ts{static_cast<time_t>(wait_ns / 1000000000LL),
                  static_cast<long>(wait_ns % 1000000000LL)};
      if (::ppoll(&p, 1, &ts, nullptr) <= 0) continue;
      if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      bool lost = false;
      char chunk[65536];
      while (true) {
        const ssize_t got = ::recv(fd, chunk, sizeof chunk, MSG_DONTWAIT);
        if (got > 0) {
          inbuf.append(chunk, static_cast<std::size_t>(got));
          continue;
        }
        if (got < 0 && (errno == EAGAIN || errno == EINTR)) break;
        lost = true;  // orderly close or reset
        break;
      }
      now = Clock::now();
      std::size_t from = 0;
      for (std::size_t eol; (eol = inbuf.find('\n', from)) != std::string::npos;
           from = eol + 1) {
        std::string line = inbuf.substr(from, eol - from);
        const long long id = response_id(line);
        const long long index = id - first_id;
        if (index < 0 || index >= static_cast<long long>(n)) continue;
        const auto i = static_cast<std::size_t>(index);
        const auto it = std::find(outstanding.begin(), outstanding.end(), i);
        if (it == outstanding.end()) continue;
        outstanding.erase(it);
        answered[i] = now;
        out.responses[i] = std::move(line);
      }
      inbuf.erase(0, from);
      if (lost) drop_connection();
    }
    if (fd >= 0) ::close(fd);
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kGeneratorThreads; ++t) threads.emplace_back(generator, t);
  for (auto& t : threads) t.join();

  Clock::time_point last = start;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& line = out.responses[i];
    // An error response, a shed, a timeout, a lost connection or no answer
    // by the deadline all fail the request and count over the latency limit.
    if (line.empty() || line.find("\"ok\":true") == std::string::npos) {
      ++out.failed;
      out.latency_ms[i] = 1e3 * seconds_between(due_at(i), deadline);
      continue;
    }
    ++out.ok;
    out.latency_ms[i] = 1e3 * seconds_between(due_at(i), answered[i]);
    last = std::max(last, answered[i]);
    tracer.record("server.request", due_at(i), answered[i], first_id + static_cast<long long>(i));
  }
  out.wall_s = seconds_between(due_at(0), last);
  out.span_s = items.back().due_s - items.front().due_s;
  return out;
}

/// "code:count ..." of the failed responses ("no_answer" when none came).
std::string error_counts(const std::vector<std::string>& responses) {
  std::map<std::string, long long> counts;
  for (const std::string& line : responses) {
    if (line.find("\"ok\":true") != std::string::npos) continue;
    const auto at = line.find("\"code\":\"");
    counts[at == std::string::npos
               ? "no_answer"
               : line.substr(at + 8, line.find('"', at + 8) - (at + 8))]++;
  }
  std::string out;
  for (const auto& [code, count] : counts)
    out += (out.empty() ? "" : " ") + code + ":" + std::to_string(count);
  return out;
}

double ladder_rps(std::size_t rung) {
  return kLadderBaseRps * std::pow(kLadderStep, static_cast<double>(rung));
}

/// Mean lateness of the last quarter of sends minus that of the first.
double lateness_growth_ms(const std::vector<double>& late_ms) {
  const std::size_t n = late_ms.size();
  if (n < 8) return 0.0;
  double head = 0.0, tail = 0.0;
  for (std::size_t i = 0; i < n / 4; ++i) {
    head += late_ms[i];
    tail += late_ms[n - 1 - i];
  }
  return (tail - head) / static_cast<double>(n / 4);
}

struct Session {
  double nominal_rate = kNominalRate;
  double warmup_s = 0.5;
  double nominal_s = 5.0;
  double trial_s = 0.4;
  bool ladder = true;
  bool traced = false;
  int setups = 3;
  std::uint64_t seed = 1;
};

struct SessionResult {
  double setup_s = 0.0;
  PhaseOutcome nominal;
  std::size_t nominal_distinct_keys = 0;
  double max_rate_rps = 0.0;  ///< the staircase's estimate, as measured
  std::string ladder;         ///< per trial: rate, p99, failed, lateness growth
  double cpu_s = 0.0;        ///< over the nominal phase
  double peak_rss_mb = 0.0;  ///< by the end of the nominal phase
  double calibration_before_ms = 0.0, calibration_after_ms = 0.0;
  ServeObs obs;
  bool generator_fell_behind = false;
  /// Every request sent (all phases) with its response, for the byte check.
  std::vector<std::pair<std::string, std::string>> exchanges;
};

server::ServerConfig server_config() {
  server::ServerConfig config;  // defaults, not MEMSTRESS_* overrides
  config.workers = kThreads;
  return config;
}

std::unique_ptr<server::LocalWorkerFleet> fork_server(bool traced) {
  return std::make_unique<server::LocalWorkerFleet>(
      1,
      [traced] {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
        // The server's threads inherit a lower priority than the traffic
        // generator's, so a saturated server cannot starve the generator
        // and make it send late; with CPUs to spare it changes nothing.
        ::setpriority(PRIO_PROCESS, 0, 10);
        metrics::set_enabled(traced);
        return make_service(build_undervolt_db(), server_config().service_info());
      },
      server_config());
}

double hit_rtt_us(int port) {
  server::ClientConfig config;
  config.port = port;
  server::Client client(config);
  const std::string line =
      "{\"v\":1,\"id\":1,\"type\":\"dpm\",\"params\":"
      "{\"yield\":0.95,\"defect_coverage\":0.99}}";
  client.roundtrip(line);  // now cached
  std::vector<double> us;
  for (int i = 0; i < 200; ++i) {
    const auto start = Clock::now();
    client.roundtrip(line);
    us.push_back(1e6 * seconds_since(start));
  }
  return median(us);
}

SessionResult run_session(const Session& s) {
  SessionResult r;
  MixGenerator mix(s.seed);
  long long next_id = 1;
  const auto record = [&](const std::vector<Item>& items, const PhaseOutcome& o) {
    for (std::size_t i = 0; i < items.size(); ++i)
      r.exchanges.emplace_back(items[i].line, o.responses[i]);
  };

  // Set-up: fork the server and warm it (and its cache) up, several times.
  std::unique_ptr<server::LocalWorkerFleet> fleet;
  std::vector<double> setups;
  const std::vector<Item> warmup = mix.phase(s.nominal_rate, s.warmup_s, 0, next_id);
  for (int k = 0; k < s.setups; ++k) {
    fleet.reset();
    const auto start = Clock::now();
    fleet = fork_server(s.traced);
    const PhaseOutcome warm = run_phase(fleet->port(0), warmup, next_id);
    setups.push_back(seconds_since(start));
    if (k + 1 == s.setups) record(warmup, warm);
  }
  next_id += static_cast<long long>(warmup.size());
  r.setup_s = median(setups);
  const int port = fleet->port(0);
  const pid_t child = fleet->pid(0);

  // The nominal phase, drawn before timing, then the staircase's trials,
  // each drawn on fresh keys from its own stream just before it runs (its
  // rate depends on the trials before it).
  struct Drawn {
    std::vector<Item> items;
    long long first_id = 0;
  };
  const auto draw = [&](double rate, double duration_s, std::uint64_t stream) {
    Drawn d{mix.phase(rate, duration_s, stream, next_id), next_id};
    next_id += static_cast<long long>(d.items.size());
    return d;
  };
  const Drawn nominal = draw(s.nominal_rate, s.nominal_s, 1);
  r.nominal_distinct_keys = distinct_cached_keys(nominal.items);

  r.calibration_before_ms = calibration_ms();
  if (s.traced) begin_traced_pass();
  const CpuMeter cpu({child});
  r.nominal = run_phase(port, nominal.items, nominal.first_id);
  r.cpu_s = cpu.elapsed_s();
  record(nominal.items, r.nominal);
  r.peak_rss_mb = self_peak_rss_mb() + pid_peak_rss_mb(child);
  // Without a staircase (traced and self-test sessions), the nominal rate.
  r.max_rate_rps = static_cast<double>(r.nominal.ok) / r.nominal.span_s;

  // A trial passes when its p99 meets the limit, nothing fails, and the
  // generator's lateness does not grow. A stall of the generator already
  // shows in the latencies, which are timed from the due time.
  if (s.ladder) {
    std::vector<double> offered;  // per trial, requests sent over its span
    const std::vector<StaircaseTrial> trials =
        staircase(kLadderRungs, kStartRung, kTrials, [&](std::size_t rung) {
          const double rate = ladder_rps(rung);
          const Drawn d = draw(rate, s.trial_s, 1000 + offered.size());
          const PhaseOutcome o = run_phase(port, d.items, d.first_id);
          record(d.items, o);
          const double p99 = quantile(o.latency_ms, 0.99);
          const double growth = lateness_growth_ms(o.late_ms);
          const bool ok = o.failed == 0 && p99 <= kP99LimitMs && growth <= 1.0;
          char line[96];
          std::snprintf(line, sizeof line, "%s%.0f:%.2fms:%lld:%.2fms",
                        r.ladder.empty() ? "" : " ", rate, p99, o.failed, growth);
          r.ladder += line;
          offered.push_back(static_cast<double>(d.items.size()) / o.span_s);
          return ok;
        });
    r.max_rate_rps = staircase_estimate(trials, offered);
  }
  r.calibration_after_ms = calibration_ms();

  const auto& late = r.nominal.late_ms;
  r.obs.late_p99_ms = quantile(late, 0.99);
  r.obs.late_max_ms = late.empty() ? 0.0 : *std::max_element(late.begin(), late.end());
  r.generator_fell_behind = r.obs.late_p99_ms > kLateLimitMs;
  r.obs.client_p50_ms = quantile(r.nominal.latency_ms, 0.5);
  if (s.traced) {
    end_traced_pass();
    // The server's own counters and request histogram, from its process.
    server::ClientConfig config;
    config.port = port;
    server::Client client(config);
    const Json report = client.request("metrics");
    const auto count = [&](const char* name) {
      const Json* v = report.at("counters").find(name);
      return v ? static_cast<long long>(v->as_number()) : 0LL;
    };
    r.obs.hits = count("server.cache_hits");
    r.obs.misses = count("server.cache_misses");
    r.obs.coalesced = count("server.cache_coalesced");
    r.obs.evictions = count("server.cache_evictions");
    r.obs.busy = count("server.busy_rejections");
    if (const Json* h = report.at("histograms").find("server.request_seconds")) {
      r.obs.server_p50_ms = 1e3 * h->at("p50").as_number();
      r.obs.server_p99_ms = 1e3 * h->at("p99").as_number();
    }
    r.obs.hit_rtt_us = hit_rtt_us(port);
  }
  fleet.reset();  // SIGKILL and reap the server
  return r;
}

/// Byte-check every answered request against a direct handle() on an
/// identically built service. Returns the number of mismatches.
long long byte_check(const SessionResult& r, const server::MemstressService& oracle,
                     std::string& first_mismatch) {
  // One direct computation per distinct request body, in parallel.
  std::map<std::string, std::size_t> slot_of;
  std::vector<server::Request> distinct;
  std::vector<std::size_t> slot(r.exchanges.size(), 0);
  for (std::size_t i = 0; i < r.exchanges.size(); ++i) {
    server::Request request = server::parse_request(r.exchanges[i].first);
    const std::string key = request.type + '\n' + request.params.dump();
    const auto [it, inserted] = slot_of.emplace(key, distinct.size());
    if (inserted) distinct.push_back(std::move(request));
    slot[i] = it->second;
  }
  std::vector<Json> results(distinct.size());
  parallel_for(
      distinct.size(),
      [&](std::size_t k) { results[k] = oracle.handle(distinct[k], {}); },
      kThreads);
  long long mismatches = 0;
  for (std::size_t i = 0; i < r.exchanges.size(); ++i) {
    const std::string& response = r.exchanges[i].second;
    if (response.empty() || response.find("\"ok\":true") == std::string::npos)
      continue;  // failures are counted, not byte-checked
    const long long id = response_id(r.exchanges[i].first);
    if (server::make_response(id, results[slot[i]]) != response) {
      if (mismatches++ == 0) first_mismatch = r.exchanges[i].first;
    }
  }
  return mismatches;
}

/// CRC32 of the direct handle() responses to a fixed sample of the seed's
/// mix: what the server must answer, whatever the load and the run length.
std::string sample_responses_crc(const server::MemstressService& oracle,
                                 std::uint64_t seed) {
  const std::vector<std::string> lines = serve_sample_lines(seed, kDigestSample);
  std::vector<std::string> responses(lines.size());
  parallel_for(
      lines.size(),
      [&](std::size_t i) {
        const server::Request request = server::parse_request(lines[i]);
        responses[i] = server::make_response(request.id, oracle.handle(request, {}));
      },
      kThreads);
  std::string all;
  for (const std::string& response : responses) all += response + "\n";
  return crc_hex(all);
}

Session workload_session(const Options& options) {
  Session s;
  s.seed = options.seed;
  if (options.tiny) {
    s.nominal_rate = 500.0;
    s.warmup_s = 0.2;
    s.nominal_s = 0.5;
    s.ladder = false;
    s.setups = 1;
  } else {
    // Half of --seconds; the staircase's trials take about as long again.
    s.nominal_s = std::max(2.0, 0.5 * options.seconds);
    s.ladder = !options.trace;
  }
  return s;
}

}  // namespace

std::vector<StaircaseTrial> staircase(std::size_t rungs, std::size_t start, int trials,
                                      const std::function<bool(std::size_t)>& run) {
  std::vector<StaircaseTrial> out;
  std::size_t rung = std::min(start, rungs - 1);
  for (int t = 0; t < trials; ++t) {
    const bool passed = run(rung);
    out.push_back({rung, passed});
    if (passed && rung + 1 < rungs) ++rung;
    if (!passed && rung > 0) --rung;
  }
  return out;
}

double staircase_estimate(const std::vector<StaircaseTrial>& trials,
                          const std::vector<double>& offered_rps) {
  if (trials.empty()) return 0.0;
  std::size_t from = trials.size() - 1;
  for (std::size_t t = 1; t < trials.size(); ++t)
    if (trials[t].passed != trials[0].passed) {
      from = t;
      break;
    }
  double sum = 0.0;
  for (std::size_t t = from; t < trials.size(); ++t) sum += offered_rps[t];
  return sum / static_cast<double>(trials.size() - from);
}

int check_serve_mix_logic() {
  int failed = 0;
  const auto expect = [&](const char* name, bool ok) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", name);
    failed += ok ? 0 : 1;
  };
  // A scripted server that passes every trial below rung `top`.
  const auto settle = [](std::size_t top, std::size_t start) {
    const auto trials = staircase(kLadderRungs, start, kTrials,
                                  [top](std::size_t rung) { return rung < top; });
    std::vector<double> offered;
    for (const StaircaseTrial& t : trials) offered.push_back(ladder_rps(t.rung));
    return staircase_estimate(trials, offered);
  };
  const auto between = [](double rate, std::size_t low, std::size_t high) {
    return rate > ladder_rps(low) && rate < ladder_rps(high);
  };
  expect("staircase: climbing from below settles between the last passing and "
         "the first failing rung",
         between(settle(28, kStartRung), 27, 28));
  expect("staircase: walking down from above settles there too",
         between(settle(12, kStartRung), 11, 12));
  expect("staircase: a server that never fails reports the top rung",
         settle(kLadderRungs + 5, kStartRung) == ladder_rps(kLadderRungs - 1));
  expect("staircase: a server that always fails reports the bottom rung",
         settle(0, kStartRung) == ladder_rps(0));
  // One failed trial among passes moves the staircase down a single rung;
  // the estimate counts it with the trials around it.
  int calls = 0;
  const auto trials = staircase(kLadderRungs, 5, 6, [&](std::size_t) {
    return ++calls != 3;
  });
  expect("staircase: a failure steps down one rung and the climb goes on",
         trials.size() == 6 && trials[2].rung == 7 && !trials[2].passed &&
             trials[3].rung == 6 && trials[5].rung == 8);
  expect("staircase: the estimate starts at the first reversal",
         staircase_estimate(trials, {1, 2, 3, 4, 5, 6}) == 4.5);
  return failed;
}

std::vector<std::string> serve_sample_lines(std::uint64_t seed, std::size_t count) {
  MixGenerator mix(seed);
  std::vector<std::string> lines;
  for (const Item& item :
       mix.phase(kNominalRate, static_cast<double>(count) / kNominalRate, 9, 1))
    if (lines.size() < count) lines.push_back(item.line);
  return lines;
}

ServeObs fallback_serve_session(const Options& options) {
  Session s;
  s.seed = options.seed;
  s.warmup_s = 0.2;
  s.nominal_rate = 1000.0;
  s.nominal_s = options.tiny ? 0.3 : 1.5;
  s.ladder = false;
  s.traced = true;
  s.setups = 1;
  return run_session(s).obs;
}

void run_serve_mix(const Options& options, Result& out) {
  Session s = workload_session(options);
  SessionResult base = run_session(s);
  // The self-test's half-second session is too short for a lateness p99 to
  // tell a stall of the machine from a generator that cannot keep up.
  if (options.tiny) base.generator_fell_behind = false;
  if (base.generator_fell_behind) {
    // One fresh session before giving up: a stall of the whole machine
    // should not fail the run, but a generator that cannot keep up must.
    std::fprintf(stderr, "perfbench: serve_mix generator fell behind (late p99 "
                         "%.2f ms); running the session again\n",
                 base.obs.late_p99_ms);
    base = run_session(s);
  }
  if (base.generator_fell_behind) {
    std::fprintf(stderr,
                 "perfbench: serve_mix generator fell behind (late p99 %.2f ms > "
                 "%.1f ms); latencies would measure the generator, not the "
                 "server\n",
                 base.obs.late_p99_ms, kLateLimitMs);
    std::exit(3);
  }
  const auto oracle = make_service(build_undervolt_db(), server_config().service_info());
  std::string mismatch;
  const long long mismatches = byte_check(base, *oracle, mismatch);
  out.check("serve_mix.responses_identical_to_direct_handle", mismatches == 0,
            mismatches == 0 ? "" : std::to_string(mismatches) + " differ, first: " + mismatch);
  out.digest("sample_responses_crc", sample_responses_crc(*oracle, options.seed));
  out.attempted = static_cast<long long>(base.nominal.latency_ms.size());
  out.failed = base.nominal.failed;
  out.info("serve_mix.nominal_rate_rps", s.nominal_rate);
  out.info("serve_mix.nominal_distinct_cached_keys",
           static_cast<double>(base.nominal_distinct_keys));
  out.info("serve_mix.p99_limit_ms", kP99LimitMs);
  out.info("serve_mix.staircase", base.ladder);
  out.info("serve_mix.nominal_errors", error_counts(base.nominal.responses));
  out.info("calibration_before_ms", base.calibration_before_ms);
  out.info("calibration_after_ms", base.calibration_after_ms);

  if (!options.trace) {
    out.metric("setup_s", base.setup_s, "s");
    out.metric("run_s", base.nominal.wall_s, "s");
    out.metric("cpu_s", base.cpu_s, "s");
    out.metric("peak_rss_mb", base.peak_rss_mb, "MiB");
    out.metric("p50_ms", quantile(base.nominal.latency_ms, 0.5), "ms");
    out.metric("p99_ms", quantile(base.nominal.latency_ms, 0.99), "ms");
    out.metric("max_rate_rps", base.max_rate_rps, "req/s");
    return;
  }
  s.traced = true;
  s.setups = 1;
  const SessionResult traced = run_session(s);
  TracedPass pass;
  pass.serve = traced.obs;
  pass.overhead_ratio = quantile(traced.nominal.latency_ms, 0.5) /
                            quantile(base.nominal.latency_ms, 0.5) -
                        1.0;
  emit_layer_metrics(options, pass, out);
}

}  // namespace memstress::perfbench
