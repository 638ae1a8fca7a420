// Perf-regression bench for the parallel pipeline: times grid
// characterization, the sharded Monte-Carlo study and detectability lookups
// (indexed vs the old linear scan, and five per-corner calls vs one
// five-corner mask) at one thread and at the machine's default thread count,
// and checks that the parallel artifacts are bit-identical to the serial ones.
//
// The last stdout line is machine-readable for trend tracking:
//   BENCH_JSON {"bench":"perf_pipeline", ...}
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "analog/batch.hpp"
#include "bench/common.hpp"
#include "defects/sampler.hpp"
#include "estimator/detectability.hpp"
#include "estimator/schedule.hpp"
#include "layout/sram_layout.hpp"
#include "study/study.hpp"
#include "util/chaos.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

using namespace memstress;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// A reduced (but not trivial) characterization grid: ~100 transients, a few
/// seconds serial, enough work per task for the fan-out to dominate setup.
estimator::CharacterizeSpec bench_spec() {
  estimator::CharacterizeSpec spec;
  spec.block = bench::standard_block();
  spec.test = march::test_11n();
  spec.vdds = {1.0, 1.8};
  spec.periods = {100e-9, 25e-9};
  spec.bridge_resistances = {1e3, 90e3};
  spec.open_resistances = {3e4, 1e6};
  spec.gox_vbds = {1.7};
  return spec;
}

/// The old O(entries) lookup, kept here as the baseline the index is raced
/// against.
bool linear_detected(const estimator::DetectabilityDb& db,
                     defects::DefectKind kind, int category, double resistance,
                     double vdd, double period, double vbd) {
  const estimator::DbEntry* best = nullptr;
  double best_cost = std::numeric_limits<double>::infinity();
  const double log_r = std::log(resistance);
  for (const auto& e : db.entries()) {
    if (e.kind != kind || e.category != category) continue;
    const double dv = (e.vdd - vdd) / 0.05;
    const double dt = (std::log(e.period) - std::log(period)) / 0.05;
    const double dr = std::log(e.resistance) - log_r;
    const double db_ = (e.vbd - vbd) * 10.0;
    const double cost = (dv * dv + dt * dt) * 1e6 + dr * dr + db_ * db_;
    if (cost < best_cost) {
      best_cost = cost;
      best = &e;
    }
  }
  return best && best->detected;
}

struct LookupQuery {
  defects::DefectKind kind;
  int category;
  double resistance, vdd, period, vbd;
};

long long count_of(const metrics::RunReport& report, const char* name) {
  for (const auto& c : report.counters)
    if (c.name == name) return c.value;
  return 0;
}

/// `--metrics` smoke mode: a seconds-scale instrumented run that proves the
/// whole observability chain end to end — counters accumulate, the span
/// tree nests, and both the ASCII table and the RUN_REPORT_JSON line
/// render. Registered as a ctest test under the `metrics` label so tier-1
/// exercises it on every build.
int run_metrics_smoke() {
  bench::print_header("perf_pipeline --metrics",
                      "instrumented smoke run (RunReport end to end)");
  metrics::set_enabled(true);
  metrics::reset();

  estimator::CharacterizeSpec spec = bench_spec();
  spec.vdds = {1.0, 1.8};
  spec.periods = {100e-9};
  spec.bridge_resistances = {1e3};
  spec.open_resistances = {1e6};
  const estimator::DetectabilityDb db = estimator::characterize(spec);

  const auto model = layout::generate_sram_layout(8, 8);
  const defects::DefectSampler sampler(
      defects::aggregate_sites(layout::extract_bridges(model),
                               layout::extract_opens(model)),
      defects::FabModel{}, bench::standard_block());
  study::StudyConfig study_config;
  study_config.device_count = 2000;
  study_config.seed = 2005;
  study::run_study(study_config, db, sampler);

  const metrics::RunReport report = metrics::collect();
  std::printf("%s\n", report.to_table().c_str());
  std::printf("RUN_REPORT_JSON %s\n", report.to_json().c_str());

  const bool ok = count_of(report, "analog.transients") > 0 &&
                  count_of(report, "estimator.db_lookups") > 0 &&
                  count_of(report, "study.devices") == 2000 &&
                  !report.spans.empty();
  std::printf("Smoke check (counters + spans populated): %s\n",
              ok ? "HOLDS" : "DEVIATES");
  return ok ? 0 : 1;
}

/// `--chaos` smoke mode: proves the fault-tolerance chain end to end — with
/// injection on, an aggressive failure rate must not abort the sweep (every
/// grid point ends characterized or quarantined, retries fire), and with
/// injection back off a rerun must reproduce the clean CSV byte-identically
/// with zero retries: chaos disabled costs nothing. Registered as a ctest
/// test under the `robustness` label.
int run_chaos_smoke() {
  bench::print_header("perf_pipeline --chaos",
                      "fault-injection smoke run (retry/quarantine end to end)");
  metrics::set_enabled(true);

  estimator::CharacterizeSpec spec = bench_spec();
  spec.vdds = {1.0, 1.8};
  spec.periods = {100e-9};
  spec.bridge_resistances = {1e3};
  spec.open_resistances = {1e6};

  chaos::disable();
  metrics::reset();
  const estimator::DetectabilityDb baseline = estimator::characterize(spec);
  const std::string baseline_csv = baseline.to_csv();
  const metrics::RunReport clean_report = metrics::collect();
  const bool clean_quiet = count_of(clean_report, "robust.retries") == 0 &&
                           baseline.quarantine().empty();
  std::printf("clean run: %zu grid points, %lld retries, %zu quarantined\n",
              baseline.size(), count_of(clean_report, "robust.retries"),
              baseline.quarantine().size());

  // Chaos on: the injection stream is deterministic in (site, index,
  // attempt) for a fixed seed, so at this rate some points recover on a
  // retry and some exhaust all attempts — both paths exercised every run.
  metrics::reset();
  chaos::configure(0.8, 7);
  const estimator::DetectabilityDb chaotic = estimator::characterize(spec);
  chaos::disable();
  const metrics::RunReport chaos_report = metrics::collect();
  const bool accounted =
      chaotic.size() + chaotic.quarantine().size() == baseline.size();
  const bool quarantined_some = !chaotic.quarantine().empty();
  const bool survived_some = chaotic.size() > 0;
  const bool retried = count_of(chaos_report, "robust.retries") > 0;
  bool quarantine_described = quarantined_some;
  for (const auto& q : chaotic.quarantine())
    quarantine_described =
        quarantine_described && !q.reason.empty() && q.attempts == spec.max_attempts;
  std::printf("chaos run (rate 0.8): %zu characterized + %zu quarantined, "
              "%lld retries\n",
              chaotic.size(), chaotic.quarantine().size(),
              count_of(chaos_report, "robust.retries"));
  for (const auto& q : chaotic.quarantine())
    std::printf("  quarantined: %s\n", q.describe().c_str());

  // Chaos back off: byte-identical clean CSV, nothing retried — injection
  // support costs nothing when disabled.
  metrics::reset();
  const estimator::DetectabilityDb again = estimator::characterize(spec);
  const metrics::RunReport again_report = metrics::collect();
  const bool identical = again.to_csv() == baseline_csv &&
                         again.quarantine().empty() &&
                         count_of(again_report, "robust.retries") == 0;
  std::printf("chaos disabled rerun: csv %s\n\n",
              identical ? "IDENTICAL" : "MISMATCH");

  std::printf("Shape checks:\n");
  std::printf("  clean run quiet (no retries/quarantine) ... %s\n",
              clean_quiet ? "HOLDS" : "DEVIATES");
  std::printf("  chaotic sweep completes, all accounted .... %s\n",
              accounted ? "HOLDS" : "DEVIATES");
  std::printf("  both retry outcomes exercised ............. %s\n",
              quarantined_some && survived_some && retried ? "HOLDS"
                                                           : "DEVIATES");
  std::printf("  quarantine entries carry reason/attempts .. %s\n",
              quarantine_described ? "HOLDS" : "DEVIATES");
  std::printf("  disabled chaos is free (csv identical) .... %s\n",
              identical ? "HOLDS" : "DEVIATES");
  const bool ok = clean_quiet && accounted && quarantined_some &&
                  survived_some && retried && quarantine_described && identical;
  std::printf("\nBENCH_JSON {\"bench\":\"perf_pipeline_chaos\","
              "\"grid_points\":%zu,\"quarantined\":%zu,\"retries\":%lld,"
              "\"csv_identical\":%s,\"ok\":%s}\n",
              baseline.size(), chaotic.quarantine().size(),
              count_of(chaos_report, "robust.retries"),
              identical ? "true" : "false", ok ? "true" : "false");
  return ok ? 0 : 1;
}

/// `--solver-matrix` smoke mode: runs a reduced grid through both solver
/// backends and proves the equivalence contract end to end — the CSVs are
/// byte-identical, the batched backend actually amortizes factorizations
/// (analog.refactor_avoided > 0, and fewer LU factorizations in total than
/// exact), and every lane is accounted. Registered as the ctest test
/// `bench_solver_smoke` so tier-1 exercises both backends on every build.
int run_solver_smoke() {
  bench::print_header("perf_pipeline --solver-matrix",
                      "solver backend equivalence smoke (exact/batched)");
  metrics::set_enabled(true);

  estimator::CharacterizeSpec spec = bench_spec();
  spec.vdds = {1.0, 1.8};
  spec.periods = {100e-9};
  spec.bridge_resistances = {1e3, 30e3};
  spec.open_resistances = {1e6};
  spec.threads = 1;

  struct ModeRun {
    analog::SolverMode mode;
    double seconds = 0.0;
    long long refactorizations = 0, scalar_factorizations = 0, avoided = 0,
              lanes = 0, ejections = 0;
    std::string csv;
    /// Every LU factorization of the run: the kernel's plus the scalar
    /// Simulator's (exact points, ejected intervals, rescue retries).
    long long total_factorizations() const {
      return refactorizations + scalar_factorizations;
    }
  };
  std::vector<ModeRun> runs;
  for (const auto mode :
       {analog::SolverMode::Exact, analog::SolverMode::Batched}) {
    metrics::reset();
    spec.solver = mode;
    const auto t0 = std::chrono::steady_clock::now();
    const estimator::DetectabilityDb db = estimator::characterize(spec);
    ModeRun run;
    run.mode = mode;
    run.seconds = seconds_since(t0);
    run.csv = db.to_csv();
    const metrics::RunReport report = metrics::collect();
    run.refactorizations = count_of(report, "analog.refactorizations");
    run.scalar_factorizations =
        count_of(report, "analog.scalar_factorizations");
    run.avoided = count_of(report, "analog.refactor_avoided");
    run.lanes = count_of(report, "analog.batch_lanes");
    run.ejections = count_of(report, "analog.lane_ejections");
    std::printf("%-12s %6.2f s  refactorizations=%lld scalar=%lld "
                "avoided=%lld lanes=%lld ejections=%lld\n",
                analog::solver_mode_name(mode), run.seconds,
                run.refactorizations, run.scalar_factorizations, run.avoided,
                run.lanes, run.ejections);
    runs.push_back(std::move(run));
  }
  metrics::reset();

  const ModeRun& exact = runs[0];
  const ModeRun& batched = runs[1];
  const bool identical = batched.csv == exact.csv;
  const bool amortized = batched.avoided > 0;
  const bool lanes_ran = batched.lanes > 0 &&
                         exact.lanes == 0;  // exact never batches
  // Amortization quality, not just existence: the share of kernel
  // lane-iterations the batched backend served without a factorization. A
  // solver regression that quietly falls back to per-lane refactorization
  // keeps avoided > 0 but craters the rate, so the floor makes it fail
  // loudly here instead of surfacing as an unexplained wall-clock drift.
  const double avoided_rate =
      batched.avoided + batched.refactorizations > 0
          ? static_cast<double>(batched.avoided) /
                static_cast<double>(batched.avoided + batched.refactorizations)
          : 0.0;
  const bool rate_floor = avoided_rate >= 0.5;
  // The true denominator: every factorization either backend paid for,
  // including the scalar path's one per Newton iteration.
  const bool fewer_factorizations =
      batched.total_factorizations() > 0 &&
      batched.total_factorizations() < exact.total_factorizations();
  std::printf("\nShape checks:\n");
  std::printf("  CSVs byte-identical across solvers ........ %s\n",
              identical ? "HOLDS" : "DEVIATES");
  std::printf("  batched avoids refactorizations ........... %s\n",
              amortized ? "HOLDS" : "DEVIATES");
  std::printf("  lanes batched only in lockstep mode ....... %s\n",
              lanes_ran ? "HOLDS" : "DEVIATES");
  std::printf("  batched avoided-refactor rate >= 0.5 ...... %s (%.3f)\n",
              rate_floor ? "HOLDS" : "DEVIATES", avoided_rate);
  std::printf("  0 < batched factorizations < exact ........ %s "
              "(%lld vs %lld)\n",
              fewer_factorizations ? "HOLDS" : "DEVIATES",
              batched.total_factorizations(), exact.total_factorizations());
  const bool ok =
      identical && amortized && lanes_ran && rate_floor && fewer_factorizations;
  std::printf("\nBENCH_JSON {\"bench\":\"perf_pipeline_solver\","
              "\"solver_exact_s\":%.4f,"
              "\"solver_batched_s\":%.4f,\"solver_speedup\":%.3f,"
              "\"factorizations_exact\":%lld,"
              "\"factorizations_batched\":%lld,"
              "\"refactor_avoided\":%lld,\"refactor_avoided_rate\":%.4f,"
              "\"batch_lanes\":%lld,\"lane_ejections\":%lld,"
              "\"solver_csv_identical\":%s,\"ok\":%s}\n",
              exact.seconds, batched.seconds, exact.seconds / batched.seconds,
              exact.total_factorizations(), batched.total_factorizations(),
              batched.avoided, avoided_rate, batched.lanes, batched.ejections,
              identical ? "true" : "false", ok ? "true" : "false");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--metrics")
    return run_metrics_smoke();
  if (argc > 1 && std::string(argv[1]) == "--chaos")
    return run_chaos_smoke();
  if (argc > 1 && std::string(argv[1]) == "--solver-matrix")
    return run_solver_smoke();
  bench::print_header("perf_pipeline",
                      "parallel characterize / study / DB lookup timings");
  const int threads = default_thread_count();
  std::printf("default thread count: %d (MEMSTRESS_THREADS overrides)\n\n",
              threads);

  // --- Layer 1: grid characterization, serial vs parallel. -----------------
  estimator::CharacterizeSpec spec = bench_spec();
  spec.threads = 1;
  auto t0 = std::chrono::steady_clock::now();
  const estimator::DetectabilityDb serial_db = estimator::characterize(spec);
  const double characterize_serial_s = seconds_since(t0);

  spec.threads = threads;
  t0 = std::chrono::steady_clock::now();
  const estimator::DetectabilityDb parallel_db = estimator::characterize(spec);
  const double characterize_parallel_s = seconds_since(t0);
  const bool csv_identical = serial_db.to_csv() == parallel_db.to_csv();

  std::printf("characterize (%zu grid points): %.3f s @ 1 thread, %.3f s @ %d "
              "threads (%.2fx)  csv %s\n",
              serial_db.size(), characterize_serial_s, characterize_parallel_s,
              threads, characterize_serial_s / characterize_parallel_s,
              csv_identical ? "IDENTICAL" : "MISMATCH");

  // --- Layer 2: Monte-Carlo study, serial vs sharded. ----------------------
  const auto model = layout::generate_sram_layout(8, 8);
  const defects::DefectSampler sampler(
      defects::aggregate_sites(layout::extract_bridges(model),
                               layout::extract_opens(model)),
      defects::FabModel{}, bench::standard_block());
  study::StudyConfig study_config;
  study_config.device_count = 200000;
  study_config.seed = 2005;

  study_config.threads = 1;
  t0 = std::chrono::steady_clock::now();
  const study::StudyResult study_serial =
      study::run_study(study_config, serial_db, sampler);
  const double study_serial_s = seconds_since(t0);

  study_config.threads = threads;
  t0 = std::chrono::steady_clock::now();
  const study::StudyResult study_parallel =
      study::run_study(study_config, serial_db, sampler);
  const double study_parallel_s = seconds_since(t0);
  const bool study_identical =
      study_serial.defective == study_parallel.defective &&
      study_serial.standard_fails == study_parallel.standard_fails &&
      study_serial.escapes == study_parallel.escapes &&
      study_serial.venn.total() == study_parallel.venn.total();

  std::printf("study (%ld devices): %.3f s @ 1 thread, %.3f s @ %d threads "
              "(%.2fx)  counts %s\n",
              study_config.device_count, study_serial_s, study_parallel_s,
              threads, study_serial_s / study_parallel_s,
              study_identical ? "IDENTICAL" : "MISMATCH");

  // --- Layer 3: detectability lookups, linear scan vs index. ---------------
  // Queries drawn once, replayed against both implementations.
  std::vector<LookupQuery> queries;
  {
    Rng rng(7);
    const auto& entries = serial_db.entries();
    queries.reserve(20000);
    for (int q = 0; q < 20000; ++q) {
      const auto& e = entries[rng.below(entries.size())];
      queries.push_back({e.kind, e.category, e.resistance * rng.uniform(0.5, 2.0),
                         e.vdd, e.period, e.vbd});
    }
  }
  long hits = 0;
  t0 = std::chrono::steady_clock::now();
  for (const auto& q : queries)
    hits += linear_detected(serial_db, q.kind, q.category, q.resistance, q.vdd,
                            q.period, q.vbd)
                ? 1
                : 0;
  const double lookup_linear_s = seconds_since(t0);

  long indexed_hits = 0;
  (void)serial_db.detected(queries[0].kind, queries[0].category,
                           queries[0].resistance, queries[0].vdd,
                           queries[0].period, queries[0].vbd);  // warm-up
  t0 = std::chrono::steady_clock::now();
  for (const auto& q : queries)
    indexed_hits += serial_db.detected(q.kind, q.category, q.resistance, q.vdd,
                                       q.period, q.vbd)
                        ? 1
                        : 0;
  const double lookup_indexed_s = seconds_since(t0);

  std::printf("db lookup (%zu queries over %zu entries): %.1f us linear, "
              "%.1f us indexed (%.1fx)  verdicts %s\n",
              queries.size(), serial_db.size(), 1e6 * lookup_linear_s,
              1e6 * lookup_indexed_s, lookup_linear_s / lookup_indexed_s,
              hits == indexed_hits ? "IDENTICAL" : "MISMATCH");

  // Five-corner lookups: five detected() calls against one detected_mask
  // per sampled defect, at the schedule's standard legs.
  std::vector<sram::StressPoint> legs;
  for (const estimator::TestLeg& leg : estimator::standard_legs())
    legs.push_back(leg.at);
  std::vector<defects::Defect> corner_defects;
  {
    Rng rng(11);
    corner_defects.reserve(20000);
    for (int i = 0; i < 20000; ++i) corner_defects.push_back(sampler.sample(rng));
  }
  std::vector<std::uint32_t> single_masks, joint_masks;
  single_masks.reserve(corner_defects.size());
  joint_masks.reserve(corner_defects.size());
  t0 = std::chrono::steady_clock::now();
  for (const defects::Defect& defect : corner_defects) {
    std::uint32_t mask = 0;
    for (std::size_t c = 0; c < legs.size(); ++c)
      if (serial_db.detected(defect, legs[c])) mask |= std::uint32_t{1} << c;
    single_masks.push_back(mask);
  }
  const double lookup_single_s = seconds_since(t0);
  t0 = std::chrono::steady_clock::now();
  for (const defects::Defect& defect : corner_defects)
    joint_masks.push_back(serial_db.detected_mask(defect, legs));
  const double lookup_mask_s = seconds_since(t0);
  const bool mask_identical = single_masks == joint_masks;
  std::printf("five-corner lookup (%zu defects x %zu legs): %.1f us as "
              "detected() calls, %.1f us as detected_mask (%.2fx)  "
              "verdicts %s\n\n",
              corner_defects.size(), legs.size(), 1e6 * lookup_single_s,
              1e6 * lookup_mask_s, lookup_single_s / lookup_mask_s,
              mask_identical ? "IDENTICAL" : "MISMATCH");

  // --- Layer 4: the analog solver backends, exact vs lockstep. ------------
  // Timed single-threaded so the comparison isolates the kernel, not the
  // fan-out; the per-mode Newton/factorization counts ride along in ops.
  // Factorizations count every LU: exact's are all scalar (one per Newton
  // iteration); batched's are the kernel's refreshes plus the scalar ones
  // of its ejected intervals and rescue retries.
  double solver_s[2] = {0.0, 0.0};
  long long solver_newton[2] = {0, 0};
  long long solver_factorizations[2] = {0, 0};
  long long solver_kernel_refactor = 0, solver_avoided = 0,
            solver_ejections = 0, solver_lanes = 0;
  bool solver_identical = true;
  {
    const analog::SolverMode modes[2] = {analog::SolverMode::Exact,
                                         analog::SolverMode::Batched};
    const bool ambient = metrics::enabled();
    metrics::set_enabled(true);
    std::string reference;
    for (int m = 0; m < 2; ++m) {
      estimator::CharacterizeSpec solver_spec = bench_spec();
      solver_spec.threads = 1;
      solver_spec.solver = modes[m];
      metrics::reset();
      t0 = std::chrono::steady_clock::now();
      const estimator::DetectabilityDb db = estimator::characterize(solver_spec);
      solver_s[m] = seconds_since(t0);
      const metrics::RunReport r = metrics::collect();
      solver_newton[m] = count_of(r, "analog.newton_iterations");
      solver_factorizations[m] = count_of(r, "analog.refactorizations") +
                                 count_of(r, "analog.scalar_factorizations");
      if (modes[m] == analog::SolverMode::Batched) {
        solver_kernel_refactor = count_of(r, "analog.refactorizations");
        solver_avoided = count_of(r, "analog.refactor_avoided");
        solver_ejections = count_of(r, "analog.lane_ejections");
        solver_lanes = count_of(r, "analog.batch_lanes");
      }
      if (m == 0)
        reference = db.to_csv();
      else
        solver_identical = db.to_csv() == reference;
    }
    metrics::reset();
    metrics::set_enabled(ambient);
    std::printf("solver backends (1 thread): exact %.3f s, batched %.3f s "
                "(%.2fx)  csv %s\n\n",
                solver_s[0], solver_s[1], solver_s[0] / solver_s[1],
                solver_identical ? "IDENTICAL" : "MISMATCH");
  }

  // --- Counted pass: replay the parallel workload once with metrics on so
  // the BENCH_JSON line carries op counts alongside the timings. The timed
  // sections above ran with metrics in their ambient (normally disabled)
  // state, so observability cannot skew the regression numbers.
  const bool metrics_were_enabled = metrics::enabled();
  metrics::set_enabled(true);
  metrics::reset();
  {
    estimator::CharacterizeSpec counted = bench_spec();
    counted.threads = threads;
    const estimator::DetectabilityDb counted_db =
        estimator::characterize(counted);
    study::run_study(study_config, counted_db, sampler);
    for (const auto& q : queries)
      (void)counted_db.detected(q.kind, q.category, q.resistance, q.vdd,
                                q.period, q.vbd);
  }
  const metrics::RunReport report = metrics::collect();
  metrics::reset();
  metrics::set_enabled(metrics_were_enabled);
  std::printf("%s\n", report.to_table().c_str());

  const double characterize_speedup =
      characterize_serial_s / characterize_parallel_s;
  const double study_speedup = study_serial_s / study_parallel_s;
  const double lookup_speedup = lookup_linear_s / lookup_indexed_s;
  std::printf("Shape checks:\n");
  std::printf("  parallel characterize CSV byte-identical .. %s\n",
              csv_identical ? "HOLDS" : "DEVIATES");
  std::printf("  parallel study counts identical ........... %s\n",
              study_identical ? "HOLDS" : "DEVIATES");
  std::printf("  indexed lookup verdicts identical ......... %s\n",
              hits == indexed_hits ? "HOLDS" : "DEVIATES");
  std::printf("  indexed lookup faster than linear ......... %s\n",
              lookup_speedup > 1.0 ? "HOLDS" : "DEVIATES");
  std::printf("  mask lookup verdicts identical ............ %s\n",
              mask_identical ? "HOLDS" : "DEVIATES");
  std::printf("  solver backends CSV byte-identical ........ %s\n\n",
              solver_identical ? "HOLDS" : "DEVIATES");

  std::printf(
      "BENCH_JSON {\"bench\":\"perf_pipeline\",\"threads\":%d,"
      "\"characterize_grid_points\":%zu,"
      "\"characterize_serial_s\":%.4f,\"characterize_parallel_s\":%.4f,"
      "\"characterize_speedup\":%.3f,\"csv_identical\":%s,"
      "\"study_devices\":%ld,"
      "\"study_serial_s\":%.4f,\"study_parallel_s\":%.4f,"
      "\"study_speedup\":%.3f,\"study_identical\":%s,"
      "\"lookup_queries\":%zu,\"lookup_linear_s\":%.6f,"
      "\"lookup_indexed_s\":%.6f,\"lookup_speedup\":%.3f,"
      "\"mask_lookup_speedup\":%.3f,"
      "\"solver_exact_s\":%.4f,"
      "\"solver_batched_s\":%.4f,\"solver_speedup\":%.3f,"
      "\"solver_newton_exact\":%lld,\"solver_newton_batched\":%lld,"
      "\"solver_refactorizations_exact\":%lld,"
      "\"solver_refactorizations_batched\":%lld,"
      "\"solver_refactor_avoided\":%lld,\"solver_refactor_avoided_rate\":%.4f,"
      "\"solver_batch_lanes\":%lld,\"solver_lane_ejections\":%lld,"
      "\"solver_csv_identical\":%s,"
      "\"ops\":{\"analog_transients\":%lld,\"analog_steps\":%lld,"
      "\"analog_newton_iterations\":%lld,\"tester_analog_cycles\":%lld,"
      "\"db_lookups\":%lld,"
      "\"study_devices\":%lld,\"parallel_tasks\":%lld}}\n",
      threads, serial_db.size(), characterize_serial_s,
      characterize_parallel_s, characterize_speedup,
      csv_identical ? "true" : "false", study_config.device_count,
      study_serial_s, study_parallel_s, study_speedup,
      study_identical ? "true" : "false", queries.size(), lookup_linear_s,
      lookup_indexed_s, lookup_speedup, lookup_single_s / lookup_mask_s,
      solver_s[0], solver_s[1],
      solver_s[0] / solver_s[1], solver_newton[0], solver_newton[1],
      solver_factorizations[0], solver_factorizations[1], solver_avoided,
      solver_avoided + solver_kernel_refactor > 0
          ? static_cast<double>(solver_avoided) /
                static_cast<double>(solver_avoided + solver_kernel_refactor)
          : 0.0,
      solver_lanes, solver_ejections, solver_identical ? "true" : "false",
      count_of(report, "analog.transients"), count_of(report, "analog.steps"),
      count_of(report, "analog.newton_iterations"),
      count_of(report, "tester.analog_cycles"),
      count_of(report, "estimator.db_lookups"),
      count_of(report, "study.devices"), count_of(report, "parallel.tasks"));
  return csv_identical && study_identical && hits == indexed_hits &&
                 mask_identical && solver_identical
             ? 0
             : 1;
}
