// The industrial evaluation (paper Section 5), reproduced in Monte Carlo.
//
// The paper assembled ~11k SRAM devices (Veqtor4: 4 x 256 Kbit per chip,
// CMOS 0.18 um) and tested each with the 11N march test at Vmin/Vnom/Vmax,
// at VLV (1.0 V, 10 MHz), and at-speed. We simulate the population: each
// device draws Poisson(A * D0) defects; each defect's pass/fail at every
// stress corner comes from the analog-simulation-backed detectability
// database — the physics is never invented at this layer.
#pragma once

#include <string>
#include <vector>

#include "defects/sampler.hpp"
#include "estimator/detectability.hpp"
#include "util/cancel.hpp"
#include "util/job_record.hpp"
#include "util/rng.hpp"

namespace memstress::study {

/// The study's JobRecord kind: one outcome mask (0..127) per device.
inline constexpr JobKind kStudyJob{"study", "devices", 127};

struct StudyConfig {
  long device_count = 11000;
  int instances_per_chip = 4;     ///< Veqtor4 carries 4 SRAM instances
  long bits_per_instance = 256 * 1024;
  double area_per_cell_um2 = 1.1; ///< conductor critical area per cell
  double slow_period = 25e-9;     ///< production rate for Vmin/Vnom/Vmax
  double vlv_period = 100e-9;     ///< 10 MHz for the VLV condition
  double fast_period = 15e-9;     ///< tester floor for at-speed
  std::uint64_t seed = 2005;
  /// Worker threads for the device loop: 1 = serial, 0 = MEMSTRESS_THREADS /
  /// hardware default. Device d draws from its own Rng child stream, seeded
  /// by the d-th draw of the master stream from `seed`; the loop fans out
  /// over at most 256 blocks of consecutive devices, each drawing its seeds
  /// from a copy of the master stream, so every count in the result (and
  /// the Fig. 11 Venn breakdown) is identical at any thread count.
  int threads = 0;

  // --- fault tolerance -----------------------------------------------------
  /// Crash-safe resume: when non-empty, completed-device outcomes are
  /// snapshotted to this path (atomic + CRC32-footed) every
  /// `checkpoint_interval` devices; a resumed run skips them and reproduces
  /// the identical StudyResult. Empty selects MEMSTRESS_CHECKPOINT_DIR
  /// (unset = off). The snapshot fingerprints the config and the database
  /// but not the sampler — resume with the sampler you started with.
  std::string checkpoint_path;
  /// Completed devices between snapshots; 0 = MEMSTRESS_CHECKPOINT_INTERVAL
  /// (default max(1024, device_count / 32)).
  int checkpoint_interval = 0;
  /// Optional cooperative cancellation (the process SIGINT token is always
  /// honoured). A cancelled run flushes a final checkpoint, then throws
  /// CancelledError.
  const CancelToken* cancel = nullptr;

  double chip_area_um2() const {
    return static_cast<double>(instances_per_chip) * bits_per_instance *
           area_per_cell_um2;
  }
};

/// How one device fared across the test suite.
struct DeviceOutcome {
  int defect_count = 0;
  bool standard_fail = false;  ///< caught by Vmin/Vnom/Vmax at production rate
  bool vlv_fail = false;
  bool vmax_fail = false;      ///< fails the Vmax-only stress screen
  bool atspeed_fail = false;
  bool escape = false;         ///< defective but passes everything

  bool interesting() const {
    return !standard_fail && (vlv_fail || vmax_fail || atspeed_fail);
  }
};

/// Counts for the paper's Fig. 11 Venn diagram (interesting devices only).
struct VennCounts {
  long vlv_only = 0;
  long vmax_only = 0;
  long atspeed_only = 0;
  long vlv_and_vmax = 0;
  long vlv_and_atspeed = 0;
  long vmax_and_atspeed = 0;
  long all_three = 0;

  long total() const {
    return vlv_only + vmax_only + atspeed_only + vlv_and_vmax +
           vlv_and_atspeed + vmax_and_atspeed + all_three;
  }

  std::string render() const;  ///< ASCII Venn diagram, Fig. 11 style
};

struct StudyResult {
  long devices = 0;
  long defective = 0;
  long standard_fails = 0;
  long escapes = 0;  ///< defective, missed by every condition
  VennCounts venn;

  /// Escapes under single-stress augmentation strategies: how many
  /// defective devices ship if production adds only this screen.
  long escapes_standard_only = 0;
  long escapes_with_vlv = 0;
  long escapes_with_vmax = 0;
  long escapes_with_atspeed = 0;

  /// Devices each stress screen rescues beyond the standard test (the
  /// paper's Venn arithmetic: VLV rescues ~30 of 36, Vmax ~5 — the same
  /// ~order-of-magnitude gap its DPM estimator predicts).
  long caught_by_vlv() const { return escapes_standard_only - escapes_with_vlv; }
  long caught_by_vmax() const { return escapes_standard_only - escapes_with_vmax; }
  long caught_by_atspeed() const {
    return escapes_standard_only - escapes_with_atspeed;
  }

  std::string summary() const;
};

/// Run the Monte-Carlo experiment. Deterministic for a given config.seed.
StudyResult run_study(const StudyConfig& config,
                      const estimator::DetectabilityDb& db,
                      const defects::DefectSampler& sampler);

/// Evaluate devices [begin, end) of the population — the worker half of the
/// distributed study and the body run_study() runs over [0, device_count).
/// Device d's seed is the master stream's d-th draw wherever the shard's
/// blocks start (the stream is advanced past `begin` first), so its RNG
/// child stream is identical under any shard layout and the masks match a
/// single-node run bit for bit. Returns one packed outcome mask (0..127,
/// the checkpoint code) per device in the range. No checkpointing — the
/// coordinator retries whole shards.
std::vector<int> run_study_range(const StudyConfig& config,
                                 const estimator::DetectabilityDb& db,
                                 const defects::DefectSampler& sampler,
                                 std::size_t begin, std::size_t end);

/// Reduce per-device outcome masks (canonical device order, as produced by
/// run_study_range) into a StudyResult. A negative mask marks an unresolved
/// device — a shard the coordinator exhausted its retries on — and is
/// excluded from every tally; `result.devices` counts only resolved
/// devices, so a fully resolved run reproduces run_study() exactly.
StudyResult reduce_study(const StudyConfig& config,
                         const std::vector<int>& masks);

/// Evaluate a single device's defect list against the stress suite
/// (exposed separately for tests and for bitmap demos of single devices).
DeviceOutcome evaluate_device(const std::vector<defects::Defect>& defect_list,
                              const StudyConfig& config,
                              const estimator::DetectabilityDb& db);

}  // namespace memstress::study
