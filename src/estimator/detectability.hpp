// Detectability database: the precomputed simulation results that make
// fault-coverage estimation "an easy job" (paper, Section 3).
//
// Each entry answers: does march test X detect a defect of (kind, category,
// resistance) at stress condition (Vdd, period)? Entries are produced by
// running the analog fault simulation once per grid point (characterize)
// and can be persisted to CSV so downstream tools never re-run the
// expensive IFA + analogue flow.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "defects/defect.hpp"
#include "march/march.hpp"
#include "sram/behavioral.hpp"
#include "sram/block.hpp"
#include "tech/technology.hpp"
#include "tester/ate.hpp"
#include "util/cancel.hpp"
#include "util/job_record.hpp"

namespace memstress::estimator {

/// The characterization's JobRecord kind: one verdict per grid point,
/// 0 = escape, 1 = detected.
inline constexpr JobKind kCharacterizeJob{"characterize", "grid points", 1};

struct DbEntry {
  defects::DefectKind kind = defects::DefectKind::Bridge;
  int category = 0;  ///< BridgeCategory or OpenCategory as int
  double resistance = 0.0;
  double vbd = 0.0;  ///< breakdown voltage (0 for ohmic defects)
  double vdd = 0.0;
  double period = 0.0;
  bool detected = false;
};

/// One grid point that characterize() could not simulate even after its
/// retry escalation. Quarantined points are *accounted*, not silently
/// dropped: they ride along with the database so coverage/DPM can report
/// the bounds their unknown verdicts imply (a dropped point would silently
/// bias the Williams-Brown DPM numbers instead).
struct QuarantineEntry {
  std::string defect_tag;  ///< human-readable defect id (Defect::tag())
  defects::DefectKind kind = defects::DefectKind::Bridge;
  int category = 0;
  double resistance = 0.0;
  double vbd = 0.0;
  double vdd = 0.0;
  double period = 0.0;
  std::string reason;  ///< last failure message (typed solver error / chaos)
  int attempts = 0;    ///< simulation attempts, including the retries

  /// "tag @ vdd V / period: reason (N attempts)" — the RunReport note line.
  std::string describe() const;
};

/// An immutable value: built whole by its constructor, which also builds the
/// lookup index, and never changed afterwards. Copies and moves carry the
/// index with them, and concurrent lookups from any number of threads read
/// it without a lock.
class DetectabilityDb {
 public:
  /// Takes the database's whole content (each part is described at its
  /// accessor below) and builds the lookup index over `entries`.
  explicit DetectabilityDb(
      std::vector<DbEntry> entries = {},
      std::vector<QuarantineEntry> quarantine = {},
      std::string fingerprint = "",
      tech::Technology technology = tech::Technology::Sram6T);

  std::size_t size() const { return entries_.size(); }
  const std::vector<DbEntry>& entries() const { return entries_; }

  /// Characterization fingerprint: the CRC32 spec_fingerprint() of the
  /// CharacterizeSpec that produced this database, stamped by
  /// characterize() and persisted as the first line of the CSV cache.
  /// Empty for hand-built databases (and for legacy cache files, which is
  /// how the pipeline detects them as unverifiable and re-characterizes).
  const std::string& fingerprint() const { return fingerprint_; }

  /// Which technology backend produced the entries. Sram6T for hand-built
  /// and legacy databases; persisted to the CSV as a "#technology=<name>"
  /// line (only when non-default, so legacy SRAM cache files stay
  /// byte-identical).
  tech::Technology technology() const { return technology_; }

  /// Per-run quarantine list: grid points whose simulation failed after all
  /// retries. Not persisted by to_csv()/save() — a cache file only ever
  /// represents a fully characterized database.
  const std::vector<QuarantineEntry>& quarantine() const { return quarantine_; }

  /// A database where every quarantined point is materialized as a real
  /// entry carrying the given `detected` assumption (and with no quarantine
  /// list). The estimator derives its best-case (assume detected) and
  /// worst-case (assume escape) coverage bounds from these.
  DetectabilityDb with_quarantine_assumed(bool detected) const;

  /// Nearest-neighbour lookup: exact (kind, category) match, nearest
  /// condition, then nearest (log-resistance, breakdown-voltage) point.
  /// Throws Error when no entry exists for the (kind, category) at all, or
  /// when no entry's cost compares (NaN input makes every cost NaN).
  ///
  /// Served from the per-(kind, category) index the constructor built,
  /// bucketed by stress condition — O(bucket) instead of O(entries) — and
  /// guaranteed to return exactly what a linear scan over `entries()` would.
  /// Each condition group keeps its entries' log-resistance, breakdown
  /// voltage and verdict in arrays of its own. A query whose (vdd, period)
  /// equals a group's (`==`) scans that group first, at condition cost 0,
  /// and stops there when its best cost is below the group's isolation (the
  /// lowest condition cost to any other group of the bucket), since no
  /// other entry can then win or tie. Any other query scans the condition
  /// group nearest it first, then skips every other group whose condition
  /// cost alone exceeds the best match found. A lookup allocates nothing and
  /// takes no lock. Each call adds 1 to `estimator.db_lookups`.
  bool detected(defects::DefectKind kind, int category, double resistance,
                double vdd, double period, double vbd = 0.0) const;
  bool detected(const defects::Defect& defect, const sram::StressPoint& at) const;

  /// One defect at up to 32 conditions: bit i is detected(defect, at[i]).
  /// Finds the (kind, category) bucket and takes log(resistance) once, then
  /// runs the per-condition lookup above for each condition. Adds
  /// at.size() to `estimator.db_lookups`: the counter counts one lookup per
  /// (defect, condition). Throws Error as detected() does, and for more
  /// than 32 conditions.
  std::uint32_t detected_mask(const defects::Defect& defect,
                              std::span<const sram::StressPoint> at) const;

  /// All distinct stress conditions present in the database, sorted by
  /// (vdd, period).
  std::vector<sram::StressPoint> conditions() const;

  // CSV persistence (schema: kind,category,resistance,vdd,period,detected;
  // preceded by a "#fingerprint=<crc32>" line when the database carries a
  // characterization fingerprint). When `expected_fingerprint` is non-empty,
  // from_csv()/load() reject a cache whose fingerprint is missing or
  // different with a row-numbered "DetectabilityDb:" error — the stale/
  // foreign-cache guard the pipeline relies on.
  std::string to_csv() const;
  static DetectabilityDb from_csv(const std::string& csv_text,
                                  const std::string& expected_fingerprint = "");
  void save(const std::string& path) const;
  static DetectabilityDb load(const std::string& path,
                              const std::string& expected_fingerprint = "");

 private:
  /// Entries for one exact (vdd, period) stress condition within a bucket,
  /// kept in insertion order so tie-breaking matches the linear scan. The
  /// four arrays run parallel, one element per entry, so a scan never reads
  /// entries_.
  struct ConditionGroup {
    double vdd = 0.0;
    double period = 0.0;
    double log_period = 0.0;  ///< cached std::log(period)
    /// Lowest condition cost from this group's (vdd, period) to any other
    /// group of its bucket; infinity for a bucket's only group.
    double isolation = 0.0;
    std::vector<std::uint32_t> entry_indices;
    std::vector<double> log_resistance;  ///< cached std::log(resistance)
    std::vector<double> vbd;
    std::vector<std::uint8_t> detected;
  };
  struct Bucket {
    std::vector<ConditionGroup> groups;

    /// The per-condition lookup every public one runs, with the defect's
    /// log(resistance) already taken.
    bool detected(double log_r, double vbd, double vdd, double period) const;
  };

  /// The (kind, category) bucket; throws Error when there is none.
  const Bucket& bucket(defects::DefectKind kind, int category) const;

  std::vector<DbEntry> entries_;
  std::vector<QuarantineEntry> quarantine_;
  std::string fingerprint_;
  tech::Technology technology_;
  /// (kind, category) -> its condition groups, in first-seen order.
  std::map<std::pair<int, int>, Bucket> index_;
};

/// Grid over which to characterize. The defaults are the paper's corners:
/// Vdd in {VLV 1.0, Vmin 1.65, Vnom 1.8, Vmax 1.95}; a slow production
/// period (100 ns, i.e. the 10 MHz VLV-friendly rate) and the tester's
/// fastest period (15 ns) for the at-speed condition.
struct CharacterizeSpec {
  sram::BlockSpec block;
  march::MarchTest test;
  /// Physics backend that turns grid points into verdicts. Sram6T runs the
  /// analog fault simulation; SttMram and Undervolt are closed-form models
  /// (see tech/model.hpp). The technology participates in spec_fingerprint()
  /// so a cached database from one backend can never satisfy another's spec.
  tech::Technology technology = tech::Technology::Sram6T;
  /// STT-MRAM backend parameters (used only when technology == SttMram).
  tech::SttMramSpec mtj;
  /// Undervolt-injection parameters (used only when technology == Undervolt).
  /// The defect grid itself is the SRAM-6T one — same sites, same axes — so
  /// the injected population is directly comparable to the analog one.
  tech::UndervoltSpec undervolt;
  std::vector<double> vdds{1.0, 1.65, 1.8, 1.95};
  /// 100 ns = the 10 MHz VLV-compatible rate; 25 ns = the production rate
  /// for Vmin/Vnom/Vmax; 15 ns = the tester's at-speed floor.
  std::vector<double> periods{100e-9, 25e-9, 15e-9};
  /// Resistance grids. Denser where the detectability bands live: bridges
  /// transition between ~3 kOhm and ~300 kOhm; opens have narrow Vmax-only
  /// (tens of kOhm, keeper contest) and at-speed-only (MOhm, RC delay)
  /// bands that a coarse grid would miss entirely.
  std::vector<double> bridge_resistances{20.0, 200.0, 1e3, 3e3, 10e3,
                                         30e3, 90e3, 200e3, 500e3};
  std::vector<double> open_resistances{1e4,   2e4,   2.8e4, 3.2e4, 4e4,  6e4,
                                       1e5,   3e5,   1e6,   1.7e6, 2.4e6, 3e6,
                                       6e6,   8e6,   1.2e7, 3e7,   1e8};
  /// Breakdown-voltage grid for gate-oxide bridges (finer around the
  /// Vnom..Vmax corners where the interesting transitions live).
  std::vector<double> gox_vbds{0.8, 1.2, 1.5, 1.625, 1.7, 1.775,
                               1.85, 1.925, 2.0, 2.2, 2.6};
  double gox_resistance = 5e3;
  tester::AteOptions ate;
  /// Worker threads for the grid sweep: 1 = serial, 0 = MEMSTRESS_THREADS /
  /// hardware default. The produced database (and thus its CSV) is
  /// byte-identical at every thread count.
  int threads = 0;
  /// How the technology runs a cell (passed to make_context): batched is
  /// sram6t's lockstep kernel, exact its scalar reference path. Execution-
  /// only — the produced database (and thus its CSV) is identical in both
  /// modes, so the mode participates in neither the spec nor the grid
  /// fingerprint.
  analog::SolverMode solver = analog::SolverMode::Batched;

  // --- fault tolerance -----------------------------------------------------
  /// Simulation attempts per grid point before quarantine. Attempt k reruns
  /// with AteOptions::rescue_level = k-1 (progressively relaxed transient
  /// settings). Retries fire only on typed solver failures (and injected
  /// chaos faults); configuration errors stay fatal and fail the whole run.
  int max_attempts = 3;
  /// Crash-safe resume: when non-empty, partial results are snapshotted to
  /// this path (atomic + CRC32-footed) every `checkpoint_interval` completed
  /// grid points and the final database is reproduced byte-identically by a
  /// resumed run. Empty selects MEMSTRESS_CHECKPOINT_DIR (unset = off).
  std::string checkpoint_path;
  /// Completed points between snapshots; 0 = MEMSTRESS_CHECKPOINT_INTERVAL
  /// (default 32).
  int checkpoint_interval = 0;
  /// Optional cooperative cancellation (the process SIGINT token is always
  /// honoured). A cancelled run flushes a final checkpoint, then throws
  /// CancelledError.
  const CancelToken* cancel = nullptr;
};

/// CRC32 fingerprint (8 hex chars) of everything in the spec that shapes the
/// characterization result: march test, block geometry, solver resolution
/// and every grid axis. characterize() stamps it on the database it returns;
/// DetectabilityDb::load() uses it to reject stale or foreign cache files.
/// Execution-only knobs (threads, retries, checkpointing, cancellation) do
/// not participate — they never change the produced entries.
std::string spec_fingerprint(const CharacterizeSpec& spec);

/// A line-per-grid-point progress sink. May capture state; characterize()
/// serializes invocations, so the callee needs no locking of its own.
using ProgressFn = std::function<void(const std::string&)>;

/// Run the full analog characterization (expensive: one transient per grid
/// point). The grid's (kind, category, vdd, period) cells fan out across
/// spec.threads workers, one task per cell, and the technology decides how
/// a cell runs; entries are committed in grid order regardless of thread
/// count.
///
/// Fault tolerance: a grid point whose solve fails with a typed SolverError
/// is retried up to spec.max_attempts times under escalating rescue
/// settings, then quarantined (recorded on the returned database and as a
/// robust.* metric/note) instead of aborting the sweep. With checkpointing
/// configured, partial results survive a crash and a resumed run skips the
/// completed points, producing a byte-identical CSV.
DetectabilityDb characterize(const CharacterizeSpec& spec,
                             const ProgressFn& progress = nullptr);

/// One point of the canonical characterization grid, in the exact order
/// characterize() commits database entries (entry.detected is left false —
/// the grid is a cheap enumeration, no simulation runs). Distributed runs
/// shard this order and merge shard verdicts back positionally, which is
/// what makes the merged CSV byte-identical to a single-node sweep. The
/// defect's tag() is formatted only for a progress line or a quarantine
/// record.
struct GridPoint {
  defects::Defect defect;  ///< the injected defect
  DbEntry entry;
};

/// Enumerate the canonical grid for a spec without simulating anything: the
/// technology model's build_grid(spec), the grid its sweep context owns.
/// characterize() and characterize_range() read the context's copy; this
/// one serves callers that only shard or count the grid.
std::vector<GridPoint> characterize_grid(const CharacterizeSpec& spec);

/// Verdict for one grid point, as produced by characterize_range().
struct PointVerdict {
  std::size_t index = 0;  ///< global grid index (canonical order)
  bool quarantined = false;
  bool detected = false;  ///< meaningful only when !quarantined
  int attempts = 0;       ///< simulation attempts when quarantined
  std::string reason;  ///< last failure message when quarantined
};

/// The database a finished characterization record describes, in canonical
/// grid order: every resolved point becomes an entry, every quarantined one
/// a QuarantineEntry (counted in robust.quarantined_points and noted). The
/// single-node characterize() and the distributed Coordinator both end
/// here, which is what keeps their CSVs byte-identical. Throws Error when a
/// grid point is still pending.
DetectabilityDb assemble_db(const CharacterizeSpec& spec,
                            const std::vector<GridPoint>& grid,
                            const JobRecord& record);

/// Characterize only grid points [begin, end) of the canonical grid — the
/// worker half of the distributed sweep. Executes exactly the same cell
/// grouping, retry escalation and quarantine policy as characterize(), and
/// keys chaos injection by the *global* grid index, so any partition of the
/// grid into ranges reproduces the single-node verdicts bit for bit.
/// No checkpointing (shards are cheap to re-run; the coordinator retries
/// whole shards instead). spec.cancel is honoured.
std::vector<PointVerdict> characterize_range(const CharacterizeSpec& spec,
                                             std::size_t begin, std::size_t end,
                                             const ProgressFn& progress =
                                                 nullptr);

/// Pass/fail outcome at the paper's standard stress corners.
struct CornerOutcomes {
  bool vlv = false;      ///< 1.0 V at the slow (10 MHz) rate
  bool vmin = false;     ///< 1.65 V at the production rate
  bool vnom = false;     ///< 1.8 V at the production rate
  bool vmax = false;     ///< 1.95 V at the production rate
  bool at_speed = false; ///< 1.8 V at the tester's fastest rate

  bool any() const { return vlv || vmin || vnom || vmax || at_speed; }
  /// Standard production test = Vmin + Vnom at the production rate. The
  /// paper's Venn diagram counts VLV, Vmax and at-speed as the *stress*
  /// screens that interesting devices fail after passing this standard
  /// test (its Chip-2 "fails only the Vmax test").
  bool standard() const { return vmin || vnom; }
};

/// Evaluate a defect against the corners stored in the DB.
CornerOutcomes corner_outcomes(const DetectabilityDb& db,
                               const defects::Defect& defect,
                               double vlv_period = 100e-9,
                               double production_period = 25e-9,
                               double fast_period = 15e-9);

}  // namespace memstress::estimator
