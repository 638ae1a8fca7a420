// The per-layer half of a traced run: fallback runs for the layer groups a
// workload does not call itself, the microbenchmark probes, and the
// emission of every per-layer metric.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "analog/matrix.hpp"
#include "estimator/coverage.hpp"
#include "estimator/schedule.hpp"
#include "layers.hpp"
#include "layout/critical_area.hpp"
#include "layout/sram_layout.hpp"
#include "server/protocol.hpp"
#include "server/shard_codec.hpp"
#include "sram/block.hpp"
#include "tech/model.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace memstress::perfbench {

void begin_traced_pass() {
  metrics::set_enabled(true);
  metrics::reset();
  Tracer::instance().set_enabled(true);
}

metrics::RunReport end_traced_pass() {
  metrics::RunReport report = metrics::collect();
  metrics::set_enabled(false);
  Tracer::instance().set_enabled(false);
  return report;
}

CharacterizeObs characterize_obs(const metrics::RunReport& report,
                                 double wall_s, int threads) {
  CharacterizeObs obs;
  obs.wall_s = wall_s;
  obs.threads = threads;
  obs.busy_s = lib_span_total_s(report, "tester.run_march_analog_batch");
  obs.newton = counter_of(report, "analog.newton_iterations");
  obs.steps = counter_of(report, "analog.steps");
  obs.halvings = counter_of(report, "analog.halvings");
  obs.lanes = counter_of(report, "analog.batch_lanes");
  obs.ejections = counter_of(report, "analog.lane_ejections");
  obs.refactorizations = counter_of(report, "analog.refactorizations");
  obs.avoided = counter_of(report, "analog.refactor_avoided");
  obs.analog_cycles = counter_of(report, "tester.analog_cycles");
  obs.quarantined = counter_of(report, "robust.quarantined_points");
  obs.retries = counter_of(report, "robust.retries");
  return obs;
}

StudyObs study_obs(const metrics::RunReport& report, double wall_s,
                   long long devices) {
  StudyObs obs;
  obs.wall_s = wall_s;
  obs.devices = devices;
  obs.lib_devices = counter_of(report, "study.devices");
  obs.defects = counter_of(report, "study.defects");
  obs.db_lookups = counter_of(report, "estimator.db_lookups");
  obs.parallel_jobs = counter_of(report, "parallel.jobs");
  obs.parallel_tasks = counter_of(report, "parallel.tasks");
  return obs;
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Median over `batches` of the per-operation time in ns of `ops` calls.
template <class Body>
double per_op_ns(int batches, long ops, Body&& body) {
  std::vector<double> samples;
  for (int b = 0; b < batches; ++b) {
    const auto start = Clock::now();
    for (long i = 0; i < ops; ++i) body(i);
    samples.push_back(1e9 * seconds_since(start) / static_cast<double>(ops));
  }
  return median(samples);
}

// --- fallbacks ---------------------------------------------------------------

CharacterizeObs fallback_characterize(bool tiny) {
  // The fleet's grid, characterized on one node with the workloads' threads.
  const estimator::CharacterizeSpec spec = fleet_characterize_spec(tiny);
  begin_traced_pass();
  const auto start = Clock::now();
  {
    Tracer::Scope span("estimator.characterize");
    estimator::characterize(spec);
  }
  const double wall = seconds_since(start);
  return characterize_obs(end_traced_pass(), wall, spec.threads);
}

StudyObs fallback_study(const estimator::DetectabilityDb& db,
                        const defects::DefectSampler& sampler, bool tiny) {
  study::StudyConfig config;
  config.device_count = tiny ? 5000 : 200000;
  config.seed = 2005;
  config.threads = kThreads;
  begin_traced_pass();
  const auto start = Clock::now();
  {
    Tracer::Scope span("study.run_study");
    study::run_study(config, db, sampler);
  }
  const double wall = seconds_since(start);
  return study_obs(end_traced_pass(), wall, config.device_count);
}

std::vector<double> fallback_table1(
    std::shared_ptr<const estimator::DetectabilityDb> db) {
  const estimator::FaultCoverageEstimator est(
      std::move(db), estimator::PopulationModel::calibrate(),
      defects::FabModel{});
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) {
    const auto start = Clock::now();
    est.table1(estimator::MemoryGeometry{512, 64, 8, 1});
    ms.push_back(1e3 * seconds_since(start));
  }
  return ms;
}

double fallback_schedule_ms(const estimator::DetectabilityDb& db,
                            const defects::DefectSampler& sampler, bool tiny) {
  estimator::ScheduleSpec spec;
  spec.monte_carlo_defects = tiny ? 200 : 2000;
  spec.yield = 0.91;
  const auto start = Clock::now();
  estimator::schedule_tradeoff(estimator::standard_legs(), db, sampler, spec);
  estimator::optimize_schedule(estimator::standard_legs(), db, sampler, spec);
  return 1e3 * seconds_since(start);
}

// --- microbenchmark probes ---------------------------------------------------

void probe_analog(Result& out, bool tiny) {
  const analog::Netlist block = sram::build_block(standard_block());
  const std::size_t n = block.node_count() - 1 + block.vsources().size();
  Rng rng(7);
  analog::DenseMatrix a(n);
  for (std::size_t r = 0; r < n; ++r) {
    double row = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      if (r == c) continue;
      const double v = rng.uniform() < 0.15 ? rng.uniform(-1.0, 1.0) : 0.0;
      a.at(r, c) = v;
      row += std::fabs(v);
    }
    a.at(r, r) = row + 1.0;
  }
  std::vector<double> rhs(n);
  for (auto& v : rhs) v = rng.uniform(-1.0, 1.0);
  const int batches = tiny ? 2 : 5;
  const long scale = tiny ? 50 : 1;

  analog::LuSolver lu;
  out.metric("analog.lu_factor_ns",
             per_op_ns(batches, 2000 / scale, [&](long) { lu.factor(a); }), "ns");
  std::vector<double> b = rhs;
  out.metric("analog.lu_solve_ns", per_op_ns(batches, 20000 / scale, [&](long) {
               std::copy(rhs.begin(), rhs.end(), b.begin());
               lu.solve(b);
             }),
             "ns");
  // Lanes of the widest default-grid cell: the 17-point open-resistance axis.
  const std::size_t nrhs = estimator::CharacterizeSpec{}.open_resistances.size();
  std::vector<double> block_rhs(n * nrhs), block_b(n * nrhs);
  for (std::size_t i = 0; i < block_rhs.size(); ++i)
    block_rhs[i] = rhs[i / nrhs];
  out.metric("analog.block_solve_ns_per_rhs",
             per_op_ns(batches, 2000 / scale,
                       [&](long) {
                         std::copy(block_rhs.begin(), block_rhs.end(),
                                   block_b.begin());
                         lu.solve_block(block_b.data(), nrhs);
                       }) /
                 static_cast<double>(nrhs),
             "ns");
  analog::LuWorkspace ws;
  ws.factor(a);
  ws.set_update_direction({{0, 1.0}, {1, -1.0}});
  out.metric("analog.sm_solve_ns", per_op_ns(batches, 20000 / scale, [&](long i) {
               std::copy(rhs.begin(), rhs.end(), b.begin());
               ws.solve_updated(1e-4 * static_cast<double>(i % 7), b);
             }),
             "ns");
}

void probe_tech(Result& out, bool tiny) {
  const estimator::CharacterizeSpec spec = paper_spec();
  const tech::TechnologyModel& model = tech::model_for(spec.technology);
  const std::vector<estimator::GridPoint> grid = model.build_grid(spec);
  // The fixed sample: the bridge cell of the first bridge category at the
  // Vnom production corner, its whole resistance axis as lanes.
  std::vector<std::size_t> lanes;
  std::tuple<int, int, double, double> key{-1, -1, 0.0, 0.0};
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const estimator::DbEntry& e = grid[i].entry;
    if (e.kind != defects::DefectKind::Bridge || e.vdd != 1.8 ||
        e.period != 25e-9 || e.vbd != 0.0)
      continue;
    const auto k = std::make_tuple(static_cast<int>(e.kind), e.category, e.vdd,
                                   e.period);
    if (lanes.empty()) key = k;
    if (k == key) lanes.push_back(i);
  }
  if (tiny && lanes.size() > 2) lanes.erase(lanes.begin() + 2, lanes.end());
  const auto ctx = model.make_context(spec, analog::SolverMode::Batched);
  auto start = Clock::now();
  ctx->simulate_batch(lanes);
  out.metric("tech.batch_ms_per_lane",
             1e3 * seconds_since(start) / static_cast<double>(lanes.size()), "ms");
  start = Clock::now();
  for (const std::size_t i : lanes) ctx->simulate_point(i, 0);
  out.metric("tech.point_ms",
             1e3 * seconds_since(start) / static_cast<double>(lanes.size()), "ms");
}

void probe_estimator_study(Result& out, const estimator::DetectabilityDb& db,
                           const defects::DefectSampler& sampler, bool tiny) {
  // Study-shaped queries: sampled defects at the five stress corners.
  const sram::StressPoint corners[] = {
      {1.0, 100e-9}, {1.65, 25e-9}, {1.8, 25e-9}, {1.95, 25e-9}, {1.8, 15e-9}};
  const std::size_t defect_count = tiny ? 500 : 20000;
  std::vector<defects::Defect> sample;
  Rng rng(11);
  for (std::size_t i = 0; i < defect_count; ++i) sample.push_back(sampler.sample(rng));
  db.detected(sample[0], corners[0]);  // build the index outside the timing
  long hits = 0;
  const long lookups = static_cast<long>(sample.size() * 5);
  out.metric("estimator.lookup_ns", per_op_ns(tiny ? 1 : 3, lookups, [&](long i) {
               hits += db.detected(sample[static_cast<std::size_t>(i / 5)],
                                   corners[i % 5]);
             }),
             "ns");
  std::vector<double> samples;
  for (int b = 0; b < (tiny ? 1 : 3); ++b) {
    const auto start = Clock::now();
    parallel_for(
        kThreads,
        [&](std::size_t) {
          long local = 0;
          for (long i = 0; i < lookups; ++i)
            local += db.detected(sample[static_cast<std::size_t>(i / 5)],
                                 corners[i % 5]);
          if (local < 0) std::abort();
        },
        kThreads);
    // Per lookup on each thread: equal to the 1-thread figure when the
    // threads do not slow each other down.
    samples.push_back(1e9 * seconds_since(start) / static_cast<double>(lookups));
  }
  out.metric("estimator.lookup_ns_4t", median(samples), "ns");
  if (hits < 0) std::abort();

  samples.clear();
  for (int i = 0; i < 3; ++i) {
    const auto start = Clock::now();
    estimator::PopulationModel::calibrate();
    samples.push_back(1e3 * seconds_since(start));
  }
  out.metric("estimator.calibrate_ms", median(samples), "ms");

  study::StudyConfig config;
  config.device_count = tiny ? 5000 : 500000;
  config.seed = 2005;
  double per_device[2] = {0.0, 0.0};
  for (const int threads : {1, kThreads}) {
    config.threads = threads;
    const auto start = Clock::now();
    study::run_study(config, db, sampler);
    per_device[threads == 1 ? 0 : 1] =
        1e9 * seconds_since(start) / static_cast<double>(config.device_count);
  }
  out.metric("study.device_ns_1t", per_device[0], "ns");
  out.metric("study.parallel_speedup", ratio(per_device[0], per_device[1]), "ratio");

  Rng sample_rng(13);
  out.metric("defects.sample_ns",
             per_op_ns(tiny ? 1 : 5, tiny ? 2000 : 200000,
                       [&](long) { sampler.sample(sample_rng); }),
             "ns");
}

void probe_parallel_layout(Result& out, bool tiny) {
  out.metric("parallel.call_us",
             1e-3 * per_op_ns(tiny ? 1 : 3, tiny ? 20 : 500,
                              [](long) {
                                parallel_for(kThreads, [](std::size_t) {}, kThreads);
                              }),
             "us");
  const std::size_t tasks = tiny ? 10000 : 1000000;
  std::vector<double> samples;
  for (int b = 0; b < (tiny ? 1 : 3); ++b) {
    const auto start = Clock::now();
    parallel_for(tasks, [](std::size_t) {}, kThreads);
    samples.push_back(1e9 * seconds_since(start) / static_cast<double>(tasks));
  }
  out.metric("parallel.task_ns", median(samples), "ns");

  samples.clear();
  for (int i = 0; i < (tiny ? 1 : 5); ++i) {
    const auto start = Clock::now();
    const auto model = layout::generate_sram_layout(8, 8);
    defects::aggregate_sites(layout::extract_bridges(model),
                             layout::extract_opens(model));
    samples.push_back(1e3 * seconds_since(start));
  }
  out.metric("layout.extract_ms", median(samples), "ms");
}

void probe_server(Result& out, const server::MemstressService& service,
                  std::uint64_t seed, bool tiny) {
  const std::vector<std::string> lines =
      serve_sample_lines(seed, tiny ? 200 : 2000);
  out.metric("server.parse_ns",
             per_op_ns(tiny ? 1 : 5, static_cast<long>(lines.size()),
                       [&](long i) {
                         server::parse_request(
                             lines[static_cast<std::size_t>(i)]);
                       }),
             "ns");

  // Handler cost per type: uncached handle() over the mix's own requests.
  std::map<std::string, std::vector<double>> handler_us;
  std::vector<std::pair<long long, server::Json>> results;
  const server::RequestContext context;
  for (const std::string& line : lines) {
    const server::Request request = server::parse_request(line);
    auto& samples = handler_us[request.type];
    if (samples.size() >= (tiny ? 3u : 30u)) continue;
    const auto start = Clock::now();
    server::Json result = service.handle(request, context);
    samples.push_back(1e6 * seconds_since(start));
    results.emplace_back(request.id, std::move(result));
  }
  for (const char* type :
       {"health", "dpm", "detectability", "coverage", "schedule"})
    out.metric(std::string("server.handler.") + type + "_us",
               median(handler_us[type]), "us");
  out.metric("server.serialize_ns",
             per_op_ns(tiny ? 1 : 5, static_cast<long>(results.size()),
                       [&](long i) {
                         const auto& [id, result] =
                             results[static_cast<std::size_t>(i)];
                         server::make_response(id, result);
                       }),
             "ns");
}

void probe_coord(Result& out, const server::MemstressService& service,
                 std::uint64_t seed, bool tiny) {
  using server::Json;
  const study::StudyConfig config = fleet_study_config(seed, tiny);
  const std::size_t shard = 2048;
  const std::string db_crc = crc_hex(service.db().to_csv());
  const auto shard_request = [&] {
    Json params = Json::object();
    params.set("config", server::study_config_to_json(config));
    params.set("begin", Json(0));
    params.set("end", Json(std::min<std::size_t>(shard, config.device_count)));
    params.set("db_crc", Json(db_crc));
    return params;
  };
  std::vector<double> samples;
  Json reply;
  for (int i = 0; i < 3; ++i) {
    const auto start = Clock::now();
    reply = service.study_shard(shard_request(), server::RequestContext{});
    samples.push_back(1e3 * seconds_since(start));
  }
  out.metric("coord.worker_study_shard_ms", median(samples), "ms");

  // Codec: the study shard request and its mask reply, encoded to a frame
  // and decoded again, as dispatch and commit do.
  const std::string reply_text = reply.dump();
  out.metric("server.shard_codec_us",
             1e-3 * per_op_ns(tiny ? 1 : 5, tiny ? 10 : 200, [&](long) {
               const std::string frame = shard_request().dump();
               server::study_config_from_json(Json::parse(frame).at("config"));
               const Json parsed = Json::parse(reply_text);
               long masks = 0;
               for (const Json& m : parsed.at("masks").items())
                 masks += static_cast<long>(m.as_number());
               if (masks < 0) std::abort();
             }),
             "us");

  // The first half of the fleet's first 64-point shard, as a worker runs it.
  estimator::CharacterizeSpec spec = fleet_characterize_spec(tiny);
  spec.threads = 1;  // the coordinator's default worker_threads
  const std::size_t points = tiny ? 4 : 32;
  const auto start = Clock::now();
  estimator::characterize_range(spec, 0, points);
  out.metric("coord.worker_point_ms",
             1e3 * seconds_since(start) / static_cast<double>(points), "ms");
}

}  // namespace

void emit_layer_metrics(const Options& options, TracedPass& pass, Result& out) {
  const bool tiny = options.tiny;
  const auto db = build_undervolt_db();
  const defects::DefectSampler sampler = make_sampler();

  // Fallbacks for the groups the workload did not call.
  if (!pass.characterize) pass.characterize = fallback_characterize(tiny);
  if (pass.table1_ms.empty()) pass.table1_ms = fallback_table1(db);
  if (pass.schedule_ms.empty())
    pass.schedule_ms.push_back(fallback_schedule_ms(*db, sampler, tiny));
  if (!pass.study) pass.study = fallback_study(*db, sampler, tiny);
  if (!pass.serve) pass.serve = fallback_serve_session(options);
  if (!pass.coord) pass.coord = fallback_coordinator(options);

  const CharacterizeObs& c = *pass.characterize;
  out.metric("analog.newton_iterations", static_cast<double>(c.newton), "count");
  out.metric("analog.newton_per_step", ratio(c.newton, c.steps), "ratio");
  out.metric("analog.halvings", static_cast<double>(c.halvings), "count");
  out.metric("analog.lane_ejection_ratio", ratio(c.ejections, c.lanes), "ratio");
  // The library counter counts only the batched kernel's factorizations
  // (exact mode and ejected lanes' scalar factors are not counted), so it is
  // published under a name that says so and no avoided-refactor rate over
  // all solvers is derived from it.
  out.metric("analog.kernel_refactorizations",
             static_cast<double>(c.refactorizations), "count");
  out.metric("analog.kernel_refactor_avoided", static_cast<double>(c.avoided),
             "count");
  out.metric("tester.analog_cycles", static_cast<double>(c.analog_cycles), "count");
  out.metric("estimator.characterize_s", c.wall_s, "s");
  // Busy time is summed over workers and wall time is not, so they are
  // separate metrics; utilization relates them and cannot pass 1 unless the
  // library's span accounting is wrong.
  out.metric("estimator.characterize_busy_s", c.busy_s, "s");
  out.metric("estimator.characterize_utilization",
             ratio(c.busy_s, c.wall_s * c.threads), "ratio");
  out.metric("estimator.quarantined_points", static_cast<double>(c.quarantined),
             "count");
  out.metric("estimator.retries", static_cast<double>(c.retries), "count");
  out.metric("estimator.table1_ms", median(pass.table1_ms), "ms");
  out.metric("estimator.schedule_ms", median(pass.schedule_ms), "ms");

  const StudyObs& s = *pass.study;
  out.metric("estimator.db_lookups", static_cast<double>(s.db_lookups), "count");
  out.metric("study.device_ns", 1e9 * ratio(s.wall_s, s.devices), "ns");
  out.metric("study.defects_per_device", ratio(s.defects, s.lib_devices), "ratio");
  out.metric("parallel.jobs", static_cast<double>(s.parallel_jobs), "count");
  out.metric("parallel.tasks", static_cast<double>(s.parallel_tasks), "count");

  const ServeObs& v = *pass.serve;
  out.metric("server.cache_hit_ratio", ratio(v.hits, v.hits + v.misses), "ratio");
  out.metric("server.cache_coalesced", static_cast<double>(v.coalesced), "count");
  out.metric("server.cache_evictions", static_cast<double>(v.evictions), "count");
  out.metric("server.request_p50_ms", v.server_p50_ms, "ms");
  out.metric("server.request_p99_ms", v.server_p99_ms, "ms");
  out.metric("server.outside_handler_ms", v.client_p50_ms - v.server_p50_ms, "ms");
  out.metric("server.busy_rejections", static_cast<double>(v.busy), "count");
  out.metric("server.hit_rtt_us", v.hit_rtt_us, "us");
  out.metric("loadgen.late_p99_ms", v.late_p99_ms, "ms");
  out.metric("loadgen.late_max_ms", v.late_max_ms, "ms");

  const CoordObs& k = *pass.coord;
  out.metric("coord.characterize_s", k.characterize_s, "s");
  out.metric("coord.study_s", k.study_s, "s");
  out.metric("coord.shards_total", static_cast<double>(k.total), "count");
  out.metric("coord.shards_dispatched", static_cast<double>(k.dispatched), "count");
  out.metric("coord.shards_hedged", static_cast<double>(k.hedged), "count");
  out.metric("coord.shards_deduped", static_cast<double>(k.deduped), "count");
  out.metric("coord.shards_retried", static_cast<double>(k.retried), "count");
  out.metric("coord.useful_dispatch_ratio", ratio(k.total, k.dispatched), "ratio");

  out.metric("trace.overhead_ratio", pass.overhead_ratio, "ratio");

  // Microbenchmark probes, with the library counters off so the atomic
  // increments they would add do not distort the timings.
  metrics::set_enabled(false);
  probe_analog(out, tiny);
  probe_tech(out, tiny);
  probe_estimator_study(out, *db, sampler, tiny);
  probe_parallel_layout(out, tiny);
  const auto service = make_service(db, server::ServiceInfo{});
  probe_server(out, *service, options.seed, tiny);
  probe_coord(out, *service, options.seed, tiny);
}

}  // namespace memstress::perfbench
