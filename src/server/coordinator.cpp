#include "server/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#include "server/client.hpp"
#include "server/shard_codec.hpp"
#include "util/checkpoint.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace memstress::server {

namespace {

enum class ShardPhase : unsigned char { kPending, kInFlight, kDone, kUnresolved };

/// Structured error codes that no amount of retrying will fix: the request
/// itself is wrong (a codec bug or a version skew), so the shard's attempt
/// budget is spent at once instead of burned one backoff at a time.
bool fatal_error_code(const std::string& code) {
  return code == "bad_request" || code == "parse_error" ||
         code == "unsupported_version" || code == "frame_too_large";
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine: the dispatch/retry/requeue/hedge machinery shared by
// characterize() and run_study(). One dispatcher thread per worker pulls
// the lowest-numbered pending shard; every state transition happens under
// one mutex, and results are committed by canonical shard id — first
// writer wins, so duplicate (hedged) completions are dropped exactly once.

struct Coordinator::Engine {
  /// Runs under the engine mutex with the shard's [begin, end) and a result
  /// whose echoed bounds match; throws Error on a malformed result (the
  /// attempt is then treated as failed and the shard retried).
  using CommitFn = std::function<void(std::size_t, std::size_t, const Json&)>;

  /// Cuts [0, total) into shards of `shard_size`; each is sent as a `type`
  /// request carrying `params` plus its "begin"/"end".
  Engine(const CoordinatorConfig& config_in, CoordinatorStats& stats_in,
         std::size_t total_in, std::size_t shard_size_in, std::string type_in,
         Json params_in, CommitFn commit_in)
      : config(config_in),
        stats(stats_in),
        total(total_in),
        shard_size(shard_size_in),
        shard_count((total_in + shard_size_in - 1) / shard_size_in),
        type(std::move(type_in)),
        params(std::move(params_in)),
        commit_result(std::move(commit_in)) {}

  const CoordinatorConfig& config;
  CoordinatorStats& stats;
  const std::size_t total;
  const std::size_t shard_size;
  const std::size_t shard_count;
  const std::string type;
  const Json params;
  const CommitFn commit_result;

  std::mutex mutex;
  std::condition_variable work_ready;
  std::vector<ShardPhase> phase;
  std::vector<int> attempts;    ///< failed dispatch attempts per shard
  std::vector<int> in_flight;   ///< concurrent dispatches (hedging => 2)
  std::vector<std::string> last_error;
  std::size_t terminal = 0;     ///< Done + Unresolved

  void run() {
    phase.assign(shard_count, ShardPhase::kPending);
    attempts.assign(shard_count, 0);
    in_flight.assign(shard_count, 0);
    last_error.assign(shard_count, "");
    stats.shards_total = static_cast<long>(shard_count);

    std::vector<std::thread> dispatchers;
    dispatchers.reserve(config.workers.size());
    for (std::size_t w = 0; w < config.workers.size(); ++w)
      dispatchers.emplace_back([this, w] { worker_main(w); });
    for (std::thread& t : dispatchers) t.join();

    // Every dispatcher is gone (run finished, or every worker died).
    // Whatever is not terminal now never will be: degrade gracefully.
    std::lock_guard<std::mutex> lock(mutex);
    for (std::size_t i = 0; i < shard_count; ++i) {
      if (phase[i] == ShardPhase::kDone || phase[i] == ShardPhase::kUnresolved)
        continue;
      if (last_error[i].empty()) last_error[i] = "no live workers remain";
      mark_unresolved_locked(i);
    }
  }

  std::pair<std::size_t, std::size_t> bounds_of(std::size_t shard) const {
    const std::size_t begin = shard * shard_size;
    return {begin, std::min(total, begin + shard_size)};
  }

  void mark_unresolved_locked(std::size_t i) {
    static metrics::Counter& unresolved_counter =
        metrics::counter("coord.unresolved_shards");
    phase[i] = ShardPhase::kUnresolved;
    ++terminal;
    const auto [begin, end] = bounds_of(i);
    UnresolvedShard entry{i, begin, end, last_error[i], attempts[i]};
    metrics::note("coord.unresolved: shard " + std::to_string(i) + " [" +
                  std::to_string(begin) + ", " + std::to_string(end) +
                  "): " + entry.reason);
    log_warn("coordinator: unresolved shard ", i, " [", begin, ", ", end,
             "): ", entry.reason);
    stats.unresolved.push_back(std::move(entry));
    unresolved_counter.add(1);
    work_ready.notify_all();
  }

  /// Health-probe a quarantined worker with doubling backoff. True =>
  /// readmit; false => declare dead.
  bool probe_worker(const WorkerEndpoint& endpoint) {
    ClientConfig probe_config;
    probe_config.address = endpoint.address;
    probe_config.port = endpoint.port;
    probe_config.timeout_ms = std::min(config.shard_timeout_ms, 1000);
    probe_config.max_retries = 0;
    int backoff_ms = std::max(1, config.backoff_initial_ms);
    for (int attempt = 1; attempt <= config.probe_attempts; ++attempt) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (terminal >= shard_count) return false;  // run already over
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2,
                            std::max(config.backoff_max_ms,
                                     config.backoff_initial_ms));
      try {
        Client probe(probe_config);
        probe.request("health");
        return true;
      } catch (const Error&) {
        // still unreachable (or unhealthy); keep probing
      }
    }
    return false;
  }

  void worker_main(std::size_t w) {
    static metrics::Counter& dispatched =
        metrics::counter("coord.shards_dispatched");
    static metrics::Counter& retried =
        metrics::counter("coord.shards_retried");
    static metrics::Counter& requeued =
        metrics::counter("coord.shards_requeued");
    static metrics::Counter& hedged_counter =
        metrics::counter("coord.shards_hedged");
    static metrics::Counter& deduped =
        metrics::counter("coord.shards_deduped");
    static metrics::Counter& quarantined =
        metrics::counter("coord.quarantined_workers");
    static metrics::Counter& readmitted =
        metrics::counter("coord.readmitted_workers");
    static metrics::Counter& dead = metrics::counter("coord.dead_workers");

    const WorkerEndpoint& endpoint = config.workers[w];
    ClientConfig client_config;
    client_config.address = endpoint.address;
    client_config.port = endpoint.port;
    client_config.timeout_ms = config.shard_timeout_ms;
    Client client(client_config);
    int backoff_ms = std::max(1, config.backoff_initial_ms);

    while (true) {
      std::size_t pick = shard_count;
      bool hedge_dispatch = false;
      {
        std::unique_lock<std::mutex> lock(mutex);
        while (true) {
          if (terminal >= shard_count) return;
          // Lowest pending shard first: canonical order keeps retries and
          // stragglers clustered at the front, which the hedging pass then
          // targets.
          for (std::size_t i = 0; i < shard_count; ++i) {
            if (phase[i] == ShardPhase::kPending) {
              pick = i;
              break;
            }
          }
          if (pick == shard_count) {
            // Nothing pending: duplicate the oldest single-copy in-flight
            // shard instead of idling. At most one hedge per shard, and a
            // dispatcher only ever hedges another worker's dispatch (one
            // dispatcher per worker).
            for (std::size_t i = 0; i < shard_count; ++i) {
              if (phase[i] == ShardPhase::kInFlight && in_flight[i] == 1) {
                pick = i;
                hedge_dispatch = true;
                break;
              }
            }
          }
          if (pick != shard_count) break;
          work_ready.wait_for(lock, std::chrono::milliseconds(20));
        }
        phase[pick] = ShardPhase::kInFlight;
        ++in_flight[pick];
        ++stats.shards_dispatched;
        dispatched.add(1);
        if (hedge_dispatch) {
          ++stats.shards_hedged;
          hedged_counter.add(1);
        }
      }

      bool success = false;
      bool lost = false;
      bool fatal = false;
      std::string error;
      Json result;
      const auto [begin, end] = bounds_of(pick);
      try {
        Json request = params;
        request.set("begin", Json(begin));
        request.set("end", Json(end));
        result = client.request(type, request);
        success = true;
      } catch (const ConnectionLost& e) {
        lost = true;
        error = e.what();
      } catch (const ServerError& e) {
        fatal = fatal_error_code(e.code());
        error = e.what();
      } catch (const Error& e) {
        error = e.what();  // receive timeout and friends: retryable
      }

      bool worker_lost = false;
      {
        std::lock_guard<std::mutex> lock(mutex);
        --in_flight[pick];
        if (success) {
          if (phase[pick] == ShardPhase::kDone) {
            ++stats.shards_deduped;  // the hedge partner beat us to it
            deduped.add(1);
          } else if (phase[pick] == ShardPhase::kInFlight) {
            try {
              require(result.int_or("begin", -1) ==
                              static_cast<long long>(begin) &&
                          result.int_or("end", -1) ==
                              static_cast<long long>(end),
                      "coordinator: shard result bounds mismatch");
              commit_result(begin, end, result);
              phase[pick] = ShardPhase::kDone;
              ++terminal;
              work_ready.notify_all();
            } catch (const Error& e) {
              success = false;  // malformed result: fall through to retry
              error = e.what();
            }
          }
          // A late success against an already-unresolved shard is dropped:
          // the merge saw the quarantine hole, and rewriting it now would
          // make the output depend on timing.
        }
        if (!success) {
          last_error[pick] = error;
          if (lost) {
            ++stats.workers_quarantined;
            quarantined.add(1);
            worker_lost = true;
            // Requeue at no attempt cost: the worker died, the shard is
            // innocent. Survivors (or the hedge partner already running
            // it) pick it up immediately.
            if (phase[pick] == ShardPhase::kInFlight && in_flight[pick] == 0) {
              phase[pick] = ShardPhase::kPending;
              ++stats.shards_requeued;
              requeued.add(1);
              work_ready.notify_all();
            }
          } else if (phase[pick] == ShardPhase::kInFlight) {
            attempts[pick] += fatal ? config.max_shard_attempts : 1;
            if (attempts[pick] >= config.max_shard_attempts) {
              // Budget exhausted. If a hedge partner is still running the
              // shard it keeps its chance; otherwise degrade now.
              if (in_flight[pick] == 0) mark_unresolved_locked(pick);
            } else if (in_flight[pick] == 0) {
              phase[pick] = ShardPhase::kPending;
              ++stats.shards_retried;
              retried.add(1);
              work_ready.notify_all();
            }
          }
        }
      }

      if (worker_lost) {
        // Quarantine: this dispatcher stops taking work and probes its
        // worker's health. Readmission resumes dispatch; exhaustion
        // declares the worker dead for the rest of the run.
        client.disconnect();
        if (probe_worker(endpoint)) {
          std::lock_guard<std::mutex> lock(mutex);
          ++stats.workers_readmitted;
          readmitted.add(1);
          backoff_ms = std::max(1, config.backoff_initial_ms);
          continue;
        }
        std::lock_guard<std::mutex> lock(mutex);
        ++stats.workers_dead;
        dead.add(1);
        log_warn("coordinator: worker ", endpoint.address, ":", endpoint.port,
                 " declared dead after ", config.probe_attempts,
                 " failed health probes");
        work_ready.notify_all();
        return;
      }
      if (success) {
        backoff_ms = std::max(1, config.backoff_initial_ms);
      } else {
        // Capped exponential backoff before this dispatcher takes more
        // work; other dispatchers are free to grab the retried shard at
        // once.
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
        backoff_ms = std::min(backoff_ms * 2,
                              std::max(config.backoff_max_ms,
                                       config.backoff_initial_ms));
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Coordinator.

Coordinator::Coordinator(CoordinatorConfig config)
    : config_(std::move(config)) {
  require(!config_.workers.empty(), "Coordinator: no workers configured");
  for (const WorkerEndpoint& worker : config_.workers)
    require(worker.port > 0 && worker.port <= 65535,
            "Coordinator: worker port out of range");
  require(config_.characterize_shard_points >= 1,
          "Coordinator: characterize_shard_points must be >= 1");
  require(config_.study_shard_devices >= 1,
          "Coordinator: study_shard_devices must be >= 1");
  require(config_.max_shard_attempts >= 1,
          "Coordinator: max_shard_attempts must be >= 1");
  require(config_.shard_timeout_ms >= 1,
          "Coordinator: shard_timeout_ms must be >= 1");
  require(config_.probe_attempts >= 1,
          "Coordinator: probe_attempts must be >= 1");
}

estimator::DetectabilityDb Coordinator::characterize(
    const estimator::CharacterizeSpec& spec) {
  trace::Span span("coord.characterize");
  stats_ = CoordinatorStats{};

  estimator::CharacterizeSpec worker_spec = spec;
  worker_spec.threads = config_.worker_threads;
  const std::vector<estimator::GridPoint> grid =
      estimator::characterize_grid(spec);

  // Verdicts land in the record by canonical grid index. A shard result is
  // validated whole before its first slot is written, so a malformed result
  // (retried) or an abandoned shard never leaves a partial commit behind.
  JobRecord record(estimator::kCharacterizeJob, 0, grid.size());

  const auto commit = [&](std::size_t begin, std::size_t end,
                          const Json& result) {
    require(result.int_or("grid", -1) == static_cast<long long>(grid.size()),
            "coordinator: worker enumerated a different grid (" +
                std::to_string(result.int_or("grid", -1)) + " points vs " +
                std::to_string(grid.size()) + " here) — spec codec skew?");
    const std::vector<Json>& verdicts = result.at("verdicts").items();
    require(verdicts.size() == end - begin,
            "coordinator: shard returned " + std::to_string(verdicts.size()) +
                " verdicts for " + std::to_string(end - begin) + " points");
    // Wire codes: 0 escape / 1 detected / 2 quarantined on the worker.
    std::vector<int> codes;
    for (const Json& verdict : verdicts) {
      const double code = verdict.as_number();
      require(code == 0.0 || code == 1.0 || code == 2.0,
              "coordinator: bad verdict code");
      codes.push_back(static_cast<int>(code));
    }
    std::vector<Quarantine> failures(end - begin);
    for (const Json& q : result.at("quarantine").items()) {
      const double index = q.at("index").as_number();
      require(index >= static_cast<double>(begin) &&
                  index < static_cast<double>(end),
              "coordinator: quarantine index outside its shard");
      const std::size_t i = static_cast<std::size_t>(index);
      require(codes[i - begin] == 2, "coordinator: quarantine entry for a "
                                     "point whose verdict is not quarantined");
      failures[i - begin] = {static_cast<int>(q.int_or("attempts", 0)),
                             q.at("reason").as_string()};
    }
    for (std::size_t k = 0; k < codes.size(); ++k) {
      if (codes[k] == 2)
        record.quarantine(begin + k, failures[k].attempts,
                          std::move(failures[k].reason));
      else
        record.commit(begin + k, codes[k]);
    }
  };

  Json params = Json::object();
  params.set("spec", characterize_spec_to_json(worker_spec));
  Engine engine(config_, stats_, grid.size(),
                static_cast<std::size_t>(config_.characterize_shard_points),
                "characterize_range", std::move(params), commit);
  engine.run();

  // Unresolved shards join the quarantine list; the merge is then exactly
  // the tail of estimator::characterize().
  for (const UnresolvedShard& u : stats_.unresolved)
    for (std::size_t i = u.begin; i < u.end; ++i)
      record.quarantine(i, 0,
                        "unresolved shard: " +
                            (u.reason.empty() ? "shard never completed"
                                              : u.reason));
  return estimator::assemble_db(spec, grid, record);
}

study::StudyResult Coordinator::run_study(const study::StudyConfig& config,
                                          const estimator::DetectabilityDb& db) {
  trace::Span span("coord.run_study");
  stats_ = CoordinatorStats{};
  require(config.device_count > 0,
          "Coordinator::run_study: device_count must be positive");

  study::StudyConfig worker_config = config;
  worker_config.threads = config_.worker_threads;

  // Outcome masks land in the record by device index; a device an
  // unresolved shard left behind stays pending, and reduce_study excludes
  // it from every tally.
  const std::size_t devices = static_cast<std::size_t>(config.device_count);
  JobRecord record(study::kStudyJob, 0, devices);

  const auto commit = [&](std::size_t begin, std::size_t end,
                          const Json& result) {
    const std::vector<Json>& items = result.at("masks").items();
    require(items.size() == end - begin,
            "coordinator: shard returned " + std::to_string(items.size()) +
                " masks for " + std::to_string(end - begin) + " devices");
    std::vector<int> masks;
    for (const Json& item : items) {
      const double mask = item.as_number();
      require(mask >= 0.0 && mask <= study::kStudyJob.max_code &&
                  mask == static_cast<double>(static_cast<int>(mask)),
              "coordinator: bad outcome mask");
      masks.push_back(static_cast<int>(mask));
    }
    for (std::size_t k = 0; k < masks.size(); ++k)
      record.commit(begin + k, masks[k]);
  };

  Json params = Json::object();
  params.set("config", study_config_to_json(worker_config));
  params.set("db_crc", Json(checkpoint::crc32_hex(db.to_csv())));
  Engine engine(config_, stats_, devices,
                static_cast<std::size_t>(config_.study_shard_devices),
                "study_shard", std::move(params), commit);
  engine.run();

  return study::reduce_study(config, record.codes());
}

}  // namespace memstress::server
