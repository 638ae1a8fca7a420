#include "study/study.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <sstream>

#include "util/checkpoint.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

namespace memstress::study {

using defects::Defect;

std::string VennCounts::render() const {
  std::ostringstream out;
  out << "Failing devices per stress condition (passing the standard test):\n";
  out << "\n";
  out << "        VLV only ............ " << vlv_only << "\n";
  out << "        Vmax only ........... " << vmax_only << "\n";
  out << "        at-speed only ....... " << atspeed_only << "\n";
  out << "        VLV & Vmax .......... " << vlv_and_vmax << "\n";
  out << "        VLV & at-speed ...... " << vlv_and_atspeed << "\n";
  out << "        Vmax & at-speed ..... " << vmax_and_atspeed << "\n";
  out << "        all three ........... " << all_three << "\n";
  out << "        total interesting ... " << total() << "\n";
  return out.str();
}

std::string StudyResult::summary() const {
  std::ostringstream out;
  out << "Devices tested: " << devices << "\n";
  out << "Defective: " << defective;
  // No resolved device (every coordinator shard unresolved): no yield.
  if (devices > 0)
    out << " (yield " << 100.0 * (devices - defective) / devices << "%)";
  out << "\n";
  out << "Failing the standard production test: " << standard_fails << "\n";
  out << "Interesting (pass standard, fail a stress condition): "
      << venn.total() << "\n";
  out << venn.render();
  out << "Escapes if production adds no stress screen: " << escapes_standard_only
      << "\n";
  out << "Escapes with +VLV screen: " << escapes_with_vlv << " (VLV rescues "
      << caught_by_vlv() << ")\n";
  out << "Escapes with +Vmax screen: " << escapes_with_vmax << " (Vmax rescues "
      << caught_by_vmax() << ")\n";
  out << "Escapes with +at-speed screen: " << escapes_with_atspeed
      << " (at-speed rescues " << caught_by_atspeed() << ")\n";
  if (caught_by_vmax() > 0)
    out << "Screen effectiveness ratio (VLV rescues / Vmax rescues): "
        << static_cast<double>(caught_by_vlv()) / caught_by_vmax() << "x\n";
  return out.str();
}

namespace {

/// Fold one defect's verdicts at the five stress corners into its device's
/// outcome. The standard production test is Vmin / Vnom at the production
/// rate; the paper's Venn treats VLV, Vmax and at-speed as the *stress*
/// screens that interesting devices fail after passing it.
void add_defect(DeviceOutcome& outcome, const Defect& defect,
                const StudyConfig& config,
                const estimator::DetectabilityDb& db) {
  const estimator::CornerOutcomes caught = estimator::corner_outcomes(
      db, defect, config.vlv_period, config.slow_period, config.fast_period);
  ++outcome.defect_count;
  outcome.standard_fail = outcome.standard_fail || caught.standard();
  outcome.vlv_fail = outcome.vlv_fail || caught.vlv;
  outcome.vmax_fail = outcome.vmax_fail || caught.vmax;
  outcome.atspeed_fail = outcome.atspeed_fail || caught.at_speed;
  outcome.escape = !outcome.standard_fail && !outcome.vlv_fail &&
                   !outcome.vmax_fail && !outcome.atspeed_fail;
}

/// Outcome-mask bits: a device's one-byte record code, its checkpoint row
/// and its study_shard wire value.
enum : int {
  kDefective = 1,
  kStandardFail = 2,
  kEscape = 4,
  kVlvFail = 8,
  kVmaxFail = 16,
  kAtspeedFail = 32,
  kInteresting = 64,
};

/// Draw and evaluate one device from its child stream. Each defect is
/// looked up as it is drawn; a lookup draws nothing from the stream. Counter
/// updates are order-free atomic sums, identical at any thread count or
/// shard layout.
int evaluate_one(std::uint64_t seed, const PoissonDraw& defects_per_device,
                 const StudyConfig& config,
                 const estimator::DetectabilityDb& db,
                 const defects::DefectSampler& sampler) {
  Rng rng(seed);
  const unsigned n = defects_per_device(rng);
  if (n == 0) return 0;
  static metrics::Counter& defects_counter = metrics::counter("study.defects");
  static metrics::Counter& defective_counter =
      metrics::counter("study.defective_devices");
  defects_counter.add(n);
  defective_counter.add(1);
  DeviceOutcome o;
  for (unsigned i = 0; i < n; ++i)
    add_defect(o, sampler.sample(rng), config, db);
  return kDefective | (o.standard_fail ? kStandardFail : 0) |
         (o.escape ? kEscape : 0) | (o.vlv_fail ? kVlvFail : 0) |
         (o.vmax_fail ? kVmaxFail : 0) | (o.atspeed_fail ? kAtspeedFail : 0) |
         (o.interesting() ? kInteresting : 0);
}

/// Devices per outcome mask: count[m] devices ended with mask m.
using MaskCounts = std::array<long, kStudyJob.max_code + 1>;

/// The StudyResult of a population, from its mask histogram.
StudyResult tally(const MaskCounts& count) {
  StudyResult result;
  for (int mask = 0; mask <= kStudyJob.max_code; ++mask) {
    const long n = count[static_cast<std::size_t>(mask)];
    if (n == 0) continue;
    result.devices += n;
    if (!(mask & kDefective)) continue;
    result.defective += n;

    const bool standard_fail = mask & kStandardFail;
    const bool v = mask & kVlvFail;
    const bool m = mask & kVmaxFail;
    const bool s = mask & kAtspeedFail;
    if (standard_fail) result.standard_fails += n;
    if (mask & kEscape) result.escapes += n;

    // Escape accounting per augmentation strategy. The standard test is
    // always applied; each strategy adds one stress screen.
    if (!standard_fail) {
      result.escapes_standard_only += n;
      if (!v) result.escapes_with_vlv += n;
      if (!m) result.escapes_with_vmax += n;
      if (!s) result.escapes_with_atspeed += n;
    }

    if (mask & kInteresting) {
      if (v && m && s) result.venn.all_three += n;
      else if (v && m) result.venn.vlv_and_vmax += n;
      else if (v && s) result.venn.vlv_and_atspeed += n;
      else if (m && s) result.venn.vmax_and_atspeed += n;
      else if (v) result.venn.vlv_only += n;
      else if (m) result.venn.vmax_only += n;
      else result.venn.atspeed_only += n;
    }
  }
  return result;
}

/// CRC32 over the config knobs that shape per-device outcomes plus the
/// database CSV: a checkpoint never resumes against a different experiment.
std::string study_fingerprint(const StudyConfig& config,
                              const estimator::DetectabilityDb& db) {
  char canon[256];
  std::snprintf(canon, sizeof canon,
                "study|%ld|%d|%ld|%.9g|%.9g|%.9g|%.9g|%llu|db%08x",
                config.device_count, config.instances_per_chip,
                config.bits_per_instance, config.area_per_cell_um2,
                config.slow_period, config.vlv_period, config.fast_period,
                static_cast<unsigned long long>(config.seed),
                checkpoint::crc32(db.to_csv()));
  return checkpoint::crc32_hex(canon);
}

/// The fan-out's blocks: at most this many runs of consecutive devices, so
/// the block count, and with it `parallel.tasks`, follows from the device
/// count alone.
constexpr std::size_t kMaxBlocks = 256;

/// One block's mask histogram, on cache lines of its own.
struct alignas(64) BlockTally {
  MaskCounts count{};
};

/// Evaluate the still-pending devices of the record's range and return the
/// range's mask histogram. Each device owns an independent child generator
/// (Rng::split contract: the master stream's d-th draw seeds device d).
/// One serial pass copies the master stream at each block's first device;
/// each block then draws its devices' seeds from its own copy, so device
/// d's stream, and every count, is the same under any thread count or
/// shard layout. A device restored from a checkpoint consumes its draw and
/// is counted, not re-evaluated.
MaskCounts evaluate_range(const StudyConfig& config,
                          const estimator::DetectabilityDb& db,
                          const defects::DefectSampler& sampler,
                          JobRecord& record) {
  const std::size_t begin = record.begin();
  const std::size_t devices = record.end() - begin;
  {
    static metrics::Counter& device_counter = metrics::counter("study.devices");
    device_counter.add(static_cast<long long>(devices));
  }
  const PoissonDraw defects_per_device(
      sampler.expected_defects(config.chip_area_um2()));
  const std::size_t block_size =
      std::max<std::size_t>(1, (devices + kMaxBlocks - 1) / kMaxBlocks);
  const std::size_t blocks = (devices + block_size - 1) / block_size;
  std::vector<Rng> streams;
  streams.reserve(blocks);
  Rng master(config.seed);
  master.discard(begin);
  for (std::size_t b = 0; b < blocks; ++b) {
    if (b > 0) master.discard(block_size);
    streams.push_back(master);
  }

  std::vector<BlockTally> tallies(blocks);
  const auto body = [&](std::size_t b) {
    Rng stream = streams[b];
    MaskCounts& count = tallies[b].count;
    const std::size_t first = begin + b * block_size;
    const std::size_t last = std::min(record.end(), first + block_size);
    for (std::size_t d = first; d < last; ++d) {
      const std::uint64_t seed = stream();
      int code = -1;
      if (record.done(d)) {
        code = record.code(d);  // restored from a checkpoint
      } else {
        code = evaluate_one(seed, defects_per_device, config, db, sampler);
        record.commit(d, code);
      }
      if (code >= 0) ++count[static_cast<std::size_t>(code)];
    }
  };
  parallel_for(blocks, body, config.threads, config.cancel);

  MaskCounts total{};
  for (const BlockTally& block : tallies)
    for (std::size_t m = 0; m < total.size(); ++m) total[m] += block.count[m];
  return total;
}

}  // namespace

DeviceOutcome evaluate_device(const std::vector<Defect>& defect_list,
                              const StudyConfig& config,
                              const estimator::DetectabilityDb& db) {
  DeviceOutcome outcome;
  for (const Defect& defect : defect_list)
    add_defect(outcome, defect, config, db);
  return outcome;
}

StudyResult run_study(const StudyConfig& config,
                      const estimator::DetectabilityDb& db,
                      const defects::DefectSampler& sampler) {
  require(config.device_count > 0, "run_study: device_count must be positive");
  trace::Span span("study.run");
  JobRecord record(kStudyJob, 0, static_cast<std::size_t>(config.device_count));
  record.attach_checkpoint(config.checkpoint_path, config.checkpoint_interval,
                           std::max<long>(1024, config.device_count / 32),
                           [&] { return study_fingerprint(config, db); });
  MaskCounts count{};
  record.run([&] { count = evaluate_range(config, db, sampler, record); });
  return tally(count);
}

std::vector<int> run_study_range(const StudyConfig& config,
                                 const estimator::DetectabilityDb& db,
                                 const defects::DefectSampler& sampler,
                                 std::size_t begin, std::size_t end) {
  require(config.device_count > 0,
          "run_study_range: device_count must be positive");
  const std::size_t devices = static_cast<std::size_t>(config.device_count);
  require(begin <= end && end <= devices,
          "run_study_range: shard [" + std::to_string(begin) + ", " +
              std::to_string(end) + ") out of bounds for " +
              std::to_string(devices) + " devices");
  trace::Span span("study.run_range");
  JobRecord record(kStudyJob, begin, end);
  evaluate_range(config, db, sampler, record);
  return record.codes();
}

StudyResult reduce_study(const StudyConfig& config,
                         const std::vector<int>& masks) {
  require(config.device_count > 0,
          "reduce_study: device_count must be positive");
  require(masks.size() == static_cast<std::size_t>(config.device_count),
          "reduce_study: got " + std::to_string(masks.size()) +
              " masks for a population of " +
              std::to_string(config.device_count) + " devices");
  MaskCounts count{};
  for (const int mask : masks) {
    if (mask < 0) continue;  // unresolved device: excluded from every tally
    if (mask > kStudyJob.max_code)
      throw Error("reduce_study: bad outcome mask " + std::to_string(mask));
    ++count[static_cast<std::size_t>(mask)];
  }
  return tally(count);
}

}  // namespace memstress::study
