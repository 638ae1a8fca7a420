// A virtual production test floor: screen a lot of simulated devices with
// the paper's recommended stress schedule and print the datalog — including
// the tester-style bitmap of the first "interesting" device (one that the
// standard test ships but a stress screen rejects).
//
// The electrical truth comes from the cached detectability database; the
// bitmap reconstruction runs the 11N march against a full-size behavioral
// memory with the device's defects mapped to behavioral faults.
//
// Usage: ./build/examples/virtual_test_floor [device_count] [seed]
#include <cstdio>
#include <cstdlib>

#include "core/pipeline.hpp"
#include "march/engine.hpp"
#include "march/library.hpp"
#include "repair/repair.hpp"
#include "study/diagnose.hpp"
#include "study/study.hpp"
#include "util/cancel.hpp"
#include "util/signal_guard.hpp"

using namespace memstress;

namespace {

/// Map a physical defect + its corner outcomes onto a behavioral fault so
/// the full-size memory shows the same pass/fail signature.
sram::InjectedFault behavioral_fault(const defects::Defect& defect,
                                     const estimator::CornerOutcomes& corners,
                                     int row, int col) {
  sram::InjectedFault fault;
  // Both stress-only defect classes read back as '1' where a '0' is
  // expected (bridge: node pulled toward the rail; open: the keeper holds
  // the undischarged bitline high), i.e. a conditional stuck-at-1.
  fault.type = sram::FaultType::StuckAt1;
  fault.row = row;
  fault.col = col;
  fault.defect_tag = defect.tag();
  if (corners.vlv && !corners.standard()) {
    fault.envelope = sram::FailureEnvelope::low_voltage(1.2);
  } else if (corners.vmax && !corners.standard()) {
    fault.envelope = sram::FailureEnvelope::high_voltage(1.9);
  } else if (corners.at_speed && !corners.standard()) {
    fault.envelope = sram::FailureEnvelope::at_speed(17e-9);
  } else if (corners.any()) {
    fault.envelope = sram::FailureEnvelope::always();
  } else {
    fault.envelope = sram::FailureEnvelope::never();
  }
  return fault;
}

int run(int argc, char** argv) {
  const long devices = argc > 1 ? std::atol(argv[1]) : 2000;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;

  core::PipelineConfig config;
  config.block.rows = 2;
  config.block.cols = 1;
  config.db_cache_path = "memstress_detectability_cache.csv";
  core::StressEvaluationPipeline pipeline(std::move(config));
  const auto& db = pipeline.database();
  auto sampler = pipeline.make_sampler();

  study::StudyConfig study_config;
  study_config.device_count = devices;
  study_config.seed = seed;

  std::printf("Screening %ld devices (seed %llu)...\n\n", devices,
              static_cast<unsigned long long>(seed));
  Rng rng(seed);
  const double lambda =
      sampler.expected_defects(study_config.chip_area_um2());

  long shipped = 0, standard_rejects = 0, stress_rejects = 0, escapes = 0;
  bool printed_bitmap = false;
  for (long d = 0; d < devices; ++d) {
    // The screening loop is serial, so honour ^C between devices ourselves
    // (the characterization inside pipeline.database() already does).
    if (cancel::process_token().cancelled())
      throw CancelledError("virtual_test_floor: cancelled at device " +
                           std::to_string(d) + "/" + std::to_string(devices));
    const unsigned n = rng.poisson(lambda);
    std::vector<defects::Defect> defect_list;
    for (unsigned i = 0; i < n; ++i) defect_list.push_back(sampler.sample(rng));
    const study::DeviceOutcome outcome =
        study::evaluate_device(defect_list, study_config, db);
    if (outcome.standard_fail) {
      ++standard_rejects;
    } else if (outcome.interesting()) {
      ++stress_rejects;
      if (!printed_bitmap) {
        printed_bitmap = true;
        std::printf("--- datalog: device #%ld, rejected by a stress screen ---\n",
                    d);
        for (const auto& defect : defect_list)
          std::printf("  defect: %s\n", defect.tag().c_str());
        std::printf("  outcomes: VLV=%s Vmax=%s at-speed=%s\n\n",
                    outcome.vlv_fail ? "FAIL" : "pass",
                    outcome.vmax_fail ? "FAIL" : "pass",
                    outcome.atspeed_fail ? "FAIL" : "pass");
        // Reconstruct the tester bitmap on a full-size 512 x 512 instance.
        sram::BehavioralSram memory(512, 512);
        const auto corners = estimator::corner_outcomes(db, defect_list[0]);
        memory.add_fault(behavioral_fault(defect_list[0], corners, 137, 42));
        memory.set_condition(outcome.vlv_fail
                                 ? sram::StressPoint{1.0, 100e-9}
                                 : outcome.vmax_fail
                                       ? sram::StressPoint{1.95, 25e-9}
                                       : sram::StressPoint{1.8, 15e-9});
        const auto log = march::run_march(memory, march::test_11n());
        std::printf("  bitmap (11N, failing corner): %s\n",
                    log.summary(march::test_11n()).c_str());
        // Feed the bitmap + stress signature to the diagnosis engine.
        const study::Diagnosis diag =
            study::diagnose(log, march::test_11n(), 512, 512, corners);
        std::printf("  diagnosis: %s\n    %s\n",
                    study::defect_class_name(diag.defect_class),
                    diag.rationale.c_str());
        // And to the redundancy allocator: a repairable die ships after all.
        const repair::RepairPlan plan =
            repair::allocate_repair(log, repair::SpareConfig{2, 2});
        std::printf("  redundancy: %s\n\n", plan.describe().c_str());
      }
    } else if (n > 0) {
      ++escapes;
      ++shipped;
    } else {
      ++shipped;
    }
  }

  std::printf("Lot summary: %ld shipped, %ld standard rejects, %ld stress-"
              "screen rejects,\n%ld of the shipped are escapes (%.0f DPM)\n",
              shipped, standard_rejects, stress_rejects, escapes,
              shipped > 0 ? 1e6 * escapes / shipped : 0.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return signal_guard::run(
      [&] { return run(argc, argv); },
      {"any in-flight characterization flushed its checkpoint when "
       "MEMSTRESS_CHECKPOINT_DIR is set."});
}
