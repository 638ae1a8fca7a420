// Full evaluation: run the entire paper pipeline once and write a markdown
// report (EVALUATION_REPORT.md) plus machine-readable CSVs — the artifact
// a product team would attach to a test-readiness review.
//
// Covers: Table-1 estimator, the 11k-device study with its Venn diagram,
// the schedule optimizer's recommendation, and a synthesized march test for
// the classical fault panel. Uses the shared detectability cache, so runs
// fast after the first characterization.
//
// Usage: ./build/examples/full_evaluation [--technology sram6t|stt_mram|undervolt]
//                                         [output_prefix]
#include <cstdio>
#include <fstream>
#include <string>

#include "core/pipeline.hpp"
#include "estimator/schedule.hpp"
#include "march/generator.hpp"
#include "study/study.hpp"
#include "tech/model.hpp"
#include "util/signal_guard.hpp"
#include "util/table.hpp"

using namespace memstress;

namespace {

const char* technology_blurb(tech::Technology technology) {
  switch (technology) {
    case tech::Technology::Sram6T:
      return "analog simulation of the transistor-level SRAM block";
    case tech::Technology::SttMram:
      return "closed-form MTJ fault models (retention / transition / "
             "read-disturb) under the march-plus-hammer stimulus";
    case tech::Technology::Undervolt:
      return "software undervolt fault injection over the SRAM defect grid "
             "(BER-cliff margin model)";
  }
  return "";
}

int run(int argc, char** argv) {
  std::string prefix;
  tech::Technology technology = tech::Technology::Sram6T;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--technology" && i + 1 < argc) {
      technology = tech::parse_technology(argv[++i]);
    } else if (arg.rfind("--technology=", 0) == 0) {
      technology = tech::parse_technology(arg.substr(13));
    } else {
      prefix = arg;
    }
  }

  core::PipelineConfig config;
  config.technology = technology;
  // The per-technology canonical grid: march-plus-hammer and the R_P axis
  // for STT-MRAM, the extended below-VLV vdd axis for undervolt, the
  // paper's spec for sram6t.
  config.characterization = tech::default_characterize_spec(technology);
  config.test = config.characterization.test;
  config.block.rows = 2;
  config.block.cols = 1;
  // One cache file per technology so flipping --technology between runs
  // keeps both warm (the fingerprint check would reject a cross-technology
  // file anyway — see DetectabilityDb::load).
  config.db_cache_path =
      technology == tech::Technology::Sram6T
          ? prefix + "memstress_detectability_cache.csv"
          : prefix + "memstress_detectability_cache_" +
                tech::technology_name(technology) + ".csv";
  core::StressEvaluationPipeline pipeline(std::move(config));

  std::ofstream report(prefix + "EVALUATION_REPORT.md");
  report << "# memstress evaluation report\n\n";
  report << "Generated by `examples/full_evaluation` (technology: `"
         << tech::technology_name(technology) << "`). All numbers come from "
         << technology_blurb(technology) << "\n(database: "
         << pipeline.database().size() << " characterized grid points).\n\n";

  // --- Table 1 ---------------------------------------------------------
  auto est = pipeline.make_estimator();
  estimator::MemoryGeometry geometry{512, 64, 8, 1};
  const estimator::EstimatorReport table1 = est.table1(geometry);
  report << "## Coverage & DPM estimator (paper Table 1)\n\n";
  report << "Memory: 512 x 64 x 8 (256 Kbit). Model yield "
         << fmt_percent(table1.yield) << "%.\n\n";
  report << "| condition | DC | DPM (norm.) |\n|---|---|---|\n";
  for (const auto& row : table1.rows)
    report << "| " << row.label << " | " << fmt_percent(row.defect_coverage)
           << "% | " << fmt_ratio(row.dpm_ratio) << " |\n";
  {
    std::ofstream csv(prefix + "table1.csv");
    csv << table1.to_csv();
  }
  report << "\n(Machine-readable: `table1.csv`.)\n\n";

  // When characterization quarantined grid points (solver failures that
  // survived every retry), the DC/DPM above are point estimates over the
  // characterized entries only — report the bounds the unknowns imply.
  if (const auto& quarantine = pipeline.database().quarantine();
      !quarantine.empty()) {
    report << "### Quarantined grid points\n\n"
           << quarantine.size()
           << " grid points failed to simulate after all retries; their "
              "verdicts are unknown.\nBounds below assume every quarantined "
              "point escaped (lo) or was detected (hi).\n\n";
    report << "| condition | DC lo | DC hi | DPM lo | DPM hi |\n"
              "|---|---|---|---|---|\n";
    for (const auto& row : table1.rows)
      report << "| " << row.label << " | "
             << fmt_percent(row.defect_coverage_lo) << "% | "
             << fmt_percent(row.defect_coverage_hi) << "% | " << row.dpm_lo
             << " | " << row.dpm_hi << " |\n";
    report << "\n";
    for (const auto& q : quarantine)
      report << "- `" << q.describe() << "`\n";
    report << "\n";
  }

  // --- the 11k-device study -------------------------------------------
  study::StudyConfig study_config;
  study_config.device_count = 11000;
  study_config.seed = 2005;
  const study::StudyResult study = pipeline.run_study(study_config);
  report << "## 11k-device stress study (paper Fig. 11)\n\n```\n"
         << study.summary() << "```\n\n";

  // --- schedule recommendation ------------------------------------------
  estimator::ScheduleSpec spec;
  spec.monte_carlo_defects = 4000;
  spec.yield = 0.91;
  const auto curve = estimator::schedule_tradeoff(
      estimator::standard_legs(), pipeline.database(), pipeline.make_sampler(),
      spec);
  double best_dpm = 1e18;
  for (const auto& s : curve) best_dpm = std::min(best_dpm, s.dpm);
  spec.target_dpm = best_dpm * 1.05 + 1.0;
  const estimator::Schedule best = estimator::optimize_schedule(
      estimator::standard_legs(), pipeline.database(), pipeline.make_sampler(),
      spec);
  report << "## Recommended production schedule (paper Section 6)\n\n"
         << best.describe() << "\n\n";

  // --- synthesized march test -------------------------------------------
  // The classical fault panel is an SRAM behavioural model; the MTJ fault
  // classes have their own stimulus (march-plus-hammer), so the synthesis
  // section only applies to the SRAM-grid technologies.
  if (technology != tech::Technology::SttMram) {
    std::vector<sram::InjectedFault> panel;
    for (const auto type :
         {sram::FaultType::StuckAt0, sram::FaultType::StuckAt1,
          sram::FaultType::TransitionUp, sram::FaultType::TransitionDown,
          sram::FaultType::ReadDestructive}) {
      sram::InjectedFault f;
      f.type = type;
      f.row = 1;
      f.col = 2;
      f.envelope = sram::FailureEnvelope::always();
      panel.push_back(f);
    }
    const march::GeneratedMarch generated = march::generate_march(panel);
    report << "## Synthesized march test (paper future work)\n\n"
           << "`" << generated.test.to_string() << "` ("
           << generated.test.complexity() << "N) covers " << generated.covered
           << "/" << generated.total << " of the classical panel.\n";
  } else {
    report << "## Synthesized march test\n\n"
              "Skipped: the stt_mram backend characterizes MTJ fault classes "
              "against the\nmarch-plus-hammer stimulus "
              "(`march::march_hammer()`), not the classical SRAM panel.\n";
  }

  report.close();
  std::printf("Wrote %sEVALUATION_REPORT.md and %stable1.csv\n",
              prefix.c_str(), prefix.c_str());
  std::printf("Study: %ld interesting devices (%ld VLV-only); recommended "
              "schedule: %zu legs.\n",
              study.venn.total(), study.venn.vlv_only, best.legs.size());

  // With MEMSTRESS_METRICS=1 (or metrics::set_enabled(true)), account for
  // every operation the run performed: counters, histograms and the span
  // tree, as a table for humans and one JSON line for trend tooling.
  if (metrics::enabled()) {
    const metrics::RunReport run_report = pipeline.run_report();
    std::printf("\n%s\n", run_report.to_table().c_str());
    std::printf("RUN_REPORT_JSON %s\n", run_report.to_json().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // ^C requests cooperative cancellation: workers stop claiming grid points
  // or devices, the active sweep flushes a final checkpoint, and the unwind
  // lands in signal_guard::run, which reports and exits 130.
  return signal_guard::run(
      [&] { return run(argc, argv); },
      {"partial progress was checkpointed when MEMSTRESS_CHECKPOINT_DIR is "
       "set; rerun with the same settings to resume."});
}
