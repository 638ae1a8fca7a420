#include "estimator/detectability.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <tuple>

#include "tech/model.hpp"
#include "util/chaos.hpp"
#include "util/checkpoint.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "util/trace.hpp"

namespace memstress::estimator {

using defects::Defect;
using defects::DefectKind;

namespace {

/// A condition group's cost from a query at (vdd, log(period)): the term
/// that dominates an entry's cost. The constructor's isolation and every
/// lookup share this arithmetic, so an isolation compares exactly with the
/// cost a lookup computes.
double condition_cost(const auto& group, double vdd, double log_period) {
  const double dv = (group.vdd - vdd) / 0.05;
  const double dt = (group.log_period - log_period) / 0.05;
  return (dv * dv + dt * dt) * 1e6;
}

int category_of(const Defect& defect) {
  switch (defect.kind) {
    case DefectKind::Bridge:
      return static_cast<int>(defect.bridge_category);
    case DefectKind::Open:
      return static_cast<int>(defect.open_category);
    case DefectKind::Mtj:
      return static_cast<int>(defect.mtj_category);
  }
  return 0;
}

void count_lookups(long long n) {
  static metrics::Counter& lookups = metrics::counter("estimator.db_lookups");
  lookups.add(n);
}

}  // namespace

DetectabilityDb::DetectabilityDb(std::vector<DbEntry> entries,
                                 std::vector<QuarantineEntry> quarantine,
                                 std::string fingerprint,
                                 tech::Technology technology)
    : entries_(std::move(entries)),
      quarantine_(std::move(quarantine)),
      fingerprint_(std::move(fingerprint)),
      technology_(technology) {
  // Groups in first-seen order, entries in insertion order within a group:
  // the order detected()'s lowest-index tie-break is defined against.
  for (std::uint32_t i = 0; i < entries_.size(); ++i) {
    const DbEntry& e = entries_[i];
    Bucket& bucket = index_[{static_cast<int>(e.kind), e.category}];
    ConditionGroup* group = nullptr;
    for (auto& g : bucket.groups) {
      if (g.vdd == e.vdd && g.period == e.period) {
        group = &g;
        break;
      }
    }
    if (!group) {
      group = &bucket.groups.emplace_back();
      group->vdd = e.vdd;
      group->period = e.period;
      group->log_period = std::log(e.period);
    }
    group->entry_indices.push_back(i);
  }
  for (auto& [key, bucket] : index_) {
    for (ConditionGroup& g : bucket.groups) {
      const std::size_t n = g.entry_indices.size();
      g.log_resistance.reserve(n);
      g.vbd.reserve(n);
      g.detected.reserve(n);
      for (const std::uint32_t i : g.entry_indices) {
        g.log_resistance.push_back(std::log(entries_[i].resistance));
        g.vbd.push_back(entries_[i].vbd);
        g.detected.push_back(entries_[i].detected);
      }
      // The cost a query on g's own condition computes for each other
      // group; a NaN one never wins, so std::min may drop it.
      g.isolation = std::numeric_limits<double>::infinity();
      for (const ConditionGroup& h : bucket.groups)
        if (&h != &g)
          g.isolation =
              std::min(g.isolation, condition_cost(h, g.vdd, g.log_period));
    }
  }
}

DetectabilityDb DetectabilityDb::with_quarantine_assumed(bool detected) const {
  std::vector<DbEntry> entries = entries_;
  entries.reserve(entries_.size() + quarantine_.size());
  for (const QuarantineEntry& q : quarantine_) {
    DbEntry e;
    e.kind = q.kind;
    e.category = q.category;
    e.resistance = q.resistance;
    e.vbd = q.vbd;
    e.vdd = q.vdd;
    e.period = q.period;
    e.detected = detected;
    entries.push_back(e);
  }
  return DetectabilityDb(std::move(entries), {}, fingerprint_, technology_);
}

std::string QuarantineEntry::describe() const {
  return defect_tag + " @ " + fmt_fixed(vdd, 2) + " V / " + fmt_time(period) +
         ": " + reason + " (" + std::to_string(attempts) + " attempts)";
}

const DetectabilityDb::Bucket& DetectabilityDb::bucket(DefectKind kind,
                                                      int category) const {
  const auto it = index_.find({static_cast<int>(kind), category});
  require(it != index_.end(),
          "DetectabilityDb: no entries for this defect class");
  return it->second;
}

bool DetectabilityDb::Bucket::detected(double log_r, double vbd, double vdd,
                                       double period) const {
  // Condition distance dominates; defect parameters break ties within a
  // corner. The arithmetic (and the first-entry-wins tie-break on equal
  // cost) is kept bit-identical to a linear scan over entries(): the
  // condition term is a lower bound on an entry's total cost, so a whole
  // group can be skipped once it exceeds the best cost seen. Scanning the
  // nearest group first makes that skip fire for nearly every other group.
  // The skip is exact and ties go to the lowest entry index, so the order
  // groups are visited in cannot change the answer.
  double best_cost = std::numeric_limits<double>::infinity();
  std::uint32_t best_index = std::numeric_limits<std::uint32_t>::max();
  bool best_detected = false;
  const auto scan = [&](const ConditionGroup& group, double group_cost) {
    for (std::size_t k = 0; k < group.entry_indices.size(); ++k) {
      const std::uint32_t i = group.entry_indices[k];
      const double dr = group.log_resistance[k] - log_r;
      const double db = (group.vbd[k] - vbd) * 10.0;
      const double cost = group_cost + dr * dr + db * db;
      // Equal finite costs go to the lower entry index. An infinite cost
      // never wins, so a query no entry is finitely near throws.
      if (cost < best_cost ||
          (cost == best_cost && i < best_index && std::isfinite(cost))) {
        best_cost = cost;
        best_index = i;
        best_detected = group.detected[k];
      }
    }
  };
  const auto answer = [&] {
    require(best_index != std::numeric_limits<std::uint32_t>::max(),
            "DetectabilityDb: no entries for this defect class");
    return best_detected;
  };

  // A query on a group's own condition costs exactly 0 there (for a finite
  // vdd and a finite positive period). Every other group costs at least the
  // group's isolation, so a best cost below it is final; a tie must still
  // scan the neighbour for a lower entry index.
  std::size_t nearest = groups.size();  // the query's own group, if any
  if (std::isfinite(vdd) && std::isfinite(period) && period > 0.0) {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (groups[g].vdd == vdd && groups[g].period == period) {
        nearest = g;
        break;
      }
    }
  }
  if (nearest < groups.size()) {
    scan(groups[nearest], 0.0);
    if (best_cost < groups[nearest].isolation) return answer();
  }

  const double log_p = std::log(period);
  if (nearest == groups.size()) {
    nearest = 0;
    double nearest_cost = condition_cost(groups[0], vdd, log_p);
    for (std::size_t g = 1; g < groups.size(); ++g) {
      const double cost = condition_cost(groups[g], vdd, log_p);
      if (cost < nearest_cost) {
        nearest = g;
        nearest_cost = cost;
      }
    }
    scan(groups[nearest], nearest_cost);
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (g == nearest) continue;
    const double cost = condition_cost(groups[g], vdd, log_p);
    if (cost > best_cost) continue;
    scan(groups[g], cost);
  }
  return answer();
}

bool DetectabilityDb::detected(DefectKind kind, int category, double resistance,
                               double vdd, double period, double vbd) const {
  count_lookups(1);
  return bucket(kind, category).detected(std::log(resistance), vbd, vdd,
                                         period);
}

bool DetectabilityDb::detected(const Defect& defect,
                               const sram::StressPoint& at) const {
  return detected(defect.kind, category_of(defect), defect.resistance, at.vdd,
                  at.period, defect.breakdown_v);
}

std::uint32_t DetectabilityDb::detected_mask(
    const Defect& defect, std::span<const sram::StressPoint> at) const {
  require(at.size() <= 32,
          "DetectabilityDb::detected_mask: at most 32 conditions");
  count_lookups(static_cast<long long>(at.size()));
  const Bucket& b = bucket(defect.kind, category_of(defect));
  const double log_r = std::log(defect.resistance);
  std::uint32_t mask = 0;
  for (std::size_t i = 0; i < at.size(); ++i)
    if (b.detected(log_r, defect.breakdown_v, at[i].vdd, at[i].period))
      mask |= std::uint32_t{1} << i;
  return mask;
}

std::vector<sram::StressPoint> DetectabilityDb::conditions() const {
  std::vector<std::pair<double, double>> pairs;
  pairs.reserve(entries_.size());
  for (const auto& e : entries_) pairs.emplace_back(e.vdd, e.period);
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  std::vector<sram::StressPoint> result;
  result.reserve(pairs.size());
  for (const auto& [vdd, period] : pairs) result.push_back({vdd, period});
  return result;
}

std::string DetectabilityDb::to_csv() const {
  // The fingerprint rides on the first line, ahead of the CSV header, so
  // load() can verify provenance before parsing a single row. Databases
  // without one (hand-built, pre-fingerprint) serialize exactly as before.
  std::string prefix;
  if (!fingerprint_.empty()) prefix = "#fingerprint=" + fingerprint_ + "\n";
  // Non-default technologies stamp a provenance line of their own; Sram6T
  // stays implicit so legacy SRAM cache files remain byte-identical.
  if (technology_ != tech::Technology::Sram6T)
    prefix += std::string("#technology=") + tech::technology_name(technology_) +
              "\n";
  CsvWriter csv(
      {"kind", "category", "resistance", "vbd", "vdd", "period", "detected"});
  const auto num = [](double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.9g", value);
    return std::string(buffer);
  };
  const auto kind_name = [](DefectKind kind) {
    switch (kind) {
      case DefectKind::Bridge: return "bridge";
      case DefectKind::Open: return "open";
      case DefectKind::Mtj: return "mtj";
    }
    throw Error("DetectabilityDb: unknown defect kind");
  };
  for (const auto& e : entries_) {
    csv.add_row({kind_name(e.kind), std::to_string(e.category),
                 num(e.resistance), num(e.vbd), num(e.vdd), num(e.period),
                 e.detected ? "1" : "0"});
  }
  return prefix + csv.to_string();
}

namespace {

/// Expected cache-CSV schema; enforced field by field so a truncated or
/// hand-edited cache file is rejected whole with a pointed message instead
/// of being half-loaded (or crashing in std::stod).
const std::vector<std::string> kCsvHeader{
    "kind", "category", "resistance", "vbd", "vdd", "period", "detected"};

double parse_csv_double(const std::string& field, std::size_t row,
                        const char* column) {
  try {
    std::size_t used = 0;
    const double value = std::stod(field, &used);
    require(used == field.size() && !field.empty(),
            "DetectabilityDb: row " + std::to_string(row) + ": bad " +
                column + " value \"" + field + "\"");
    return value;
  } catch (const std::exception&) {
    throw Error("DetectabilityDb: row " + std::to_string(row) + ": bad " +
                column + " value \"" + field + "\"");
  }
}

int parse_csv_int(const std::string& field, std::size_t row,
                  const char* column) {
  try {
    std::size_t used = 0;
    const int value = std::stoi(field, &used);
    require(used == field.size() && !field.empty(),
            "DetectabilityDb: row " + std::to_string(row) + ": bad " +
                column + " value \"" + field + "\"");
    return value;
  } catch (const std::exception&) {
    throw Error("DetectabilityDb: row " + std::to_string(row) + ": bad " +
                column + " value \"" + field + "\"");
  }
}

}  // namespace

DetectabilityDb DetectabilityDb::from_csv(
    const std::string& csv_text, const std::string& expected_fingerprint) {
  // Peel off the optional "#fingerprint=<crc32>" provenance line before the
  // CSV parser sees the text. The whole file is rejected on a provenance
  // problem — a wrong-grid cache must never be half-trusted.
  static const std::string kFingerprintTag = "#fingerprint=";
  static const std::string kTechnologyTag = "#technology=";
  std::string fingerprint;
  tech::Technology technology = tech::Technology::Sram6T;
  std::string body = csv_text;
  while (!body.empty() && body[0] == '#') {
    std::size_t end = body.find('\n');
    if (end == std::string::npos) end = body.size();
    const std::string line = body.substr(0, end);
    if (line.compare(0, kFingerprintTag.size(), kFingerprintTag) == 0) {
      fingerprint = line.substr(kFingerprintTag.size());
    } else if (line.compare(0, kTechnologyTag.size(), kTechnologyTag) == 0) {
      try {
        technology = tech::parse_technology(line.substr(kTechnologyTag.size()));
      } catch (const Error&) {
        throw Error("DetectabilityDb: row 1: unknown technology line \"" +
                    line + "\"");
      }
    } else {
      throw Error("DetectabilityDb: row 1: unknown provenance line \"" + line +
                  "\"");
    }
    body = end < body.size() ? body.substr(end + 1) : std::string();
  }
  if (!expected_fingerprint.empty()) {
    require(!fingerprint.empty(),
            "DetectabilityDb: row 1: missing characterization fingerprint "
            "(expected \"" + expected_fingerprint +
                "\"; legacy or foreign cache file)");
    require(fingerprint == expected_fingerprint,
            "DetectabilityDb: row 1: characterization fingerprint mismatch "
            "(cache has \"" + fingerprint + "\", expected \"" +
                expected_fingerprint + "\"; stale or foreign cache file)");
  }
  const CsvContent content = parse_csv(body);
  require(content.header == kCsvHeader,
          "DetectabilityDb: bad CSV header (expected "
          "kind,category,resistance,vbd,vdd,period,detected)");
  std::vector<DbEntry> entries;
  entries.reserve(content.rows.size());
  for (std::size_t r = 0; r < content.rows.size(); ++r) {
    const auto& row = content.rows[r];
    require(row.size() == 7,
            "DetectabilityDb: row " + std::to_string(r + 1) + " has " +
                std::to_string(row.size()) +
                " fields, expected 7 (truncated cache file?)");
    DbEntry e;
    require(row[0] == "bridge" || row[0] == "open" || row[0] == "mtj",
            "DetectabilityDb: row " + std::to_string(r + 1) +
                ": unknown kind \"" + row[0] + "\"");
    e.kind = row[0] == "bridge" ? DefectKind::Bridge
             : row[0] == "open" ? DefectKind::Open
                                : DefectKind::Mtj;
    e.category = parse_csv_int(row[1], r + 1, "category");
    e.resistance = parse_csv_double(row[2], r + 1, "resistance");
    e.vbd = parse_csv_double(row[3], r + 1, "vbd");
    e.vdd = parse_csv_double(row[4], r + 1, "vdd");
    e.period = parse_csv_double(row[5], r + 1, "period");
    require(row[6] == "1" || row[6] == "0",
            "DetectabilityDb: row " + std::to_string(r + 1) +
                ": detected flag must be 0 or 1, got \"" + row[6] + "\"");
    e.detected = row[6] == "1";
    entries.push_back(e);
  }
  return DetectabilityDb(std::move(entries), {}, std::move(fingerprint),
                         technology);
}

void DetectabilityDb::save(const std::string& path) const {
  // Atomic replacement: a crash (or chaos kill) mid-save never leaves a
  // truncated cache visible at `path` — readers see the old file or the new
  // one, nothing in between.
  checkpoint::write_file_atomic(path, to_csv());
}

DetectabilityDb DetectabilityDb::load(const std::string& path,
                                      const std::string& expected_fingerprint) {
  std::ifstream file(path, std::ios::binary);
  require(file.good(), "DetectabilityDb::load: cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return from_csv(buffer.str(), expected_fingerprint);
}

std::string spec_fingerprint(const CharacterizeSpec& spec) {
  // Canonical description of everything that shapes the characterization
  // result: the march test, the block geometry, the solver resolution and
  // every grid axis. Retry/checkpoint/thread knobs are deliberately left
  // out — they change how the sweep runs, never what it produces.
  std::string canon = spec.test.to_string() + "|" +
                      std::to_string(spec.block.rows) + "x" +
                      std::to_string(spec.block.cols) + "|spc" +
                      std::to_string(spec.ate.steps_per_cycle);
  char buffer[32];
  const auto append_axis = [&](const char* name,
                               const std::vector<double>& values) {
    canon += "|";
    canon += name;
    for (const double v : values) {
      std::snprintf(buffer, sizeof buffer, " %.9g", v);
      canon += buffer;
    }
  };
  append_axis("vdd", spec.vdds);
  append_axis("period", spec.periods);
  append_axis("rbridge", spec.bridge_resistances);
  append_axis("ropen", spec.open_resistances);
  append_axis("vbd", spec.gox_vbds);
  std::snprintf(buffer, sizeof buffer, "|rgox %.9g", spec.gox_resistance);
  canon += buffer;
  // The technology id plus its backend parameters: a cached SRAM-6T
  // database can never satisfy an STT-MRAM (or undervolt) spec, and a
  // parameter tweak inside one backend re-characterizes just like an axis
  // change would.
  canon += "|tech ";
  canon += tech::technology_name(spec.technology);
  tech::model_for(spec.technology).append_fingerprint(spec, canon);
  return checkpoint::crc32_hex(canon);
}

namespace {

/// CRC32 over the canonical grid description: a checkpoint written for one
/// grid never resumes a different one. The technology id and its backend
/// parameters participate — the same grid evaluated under different physics
/// must not share snapshots.
std::string grid_fingerprint(const CharacterizeSpec& spec,
                             const std::vector<GridPoint>& grid) {
  std::string canon = spec.test.to_string() + "|" +
                      std::to_string(spec.block.rows) + "x" +
                      std::to_string(spec.block.cols) + "|spc" +
                      std::to_string(spec.ate.steps_per_cycle) + "|tech " +
                      tech::technology_name(spec.technology);
  tech::model_for(spec.technology).append_fingerprint(spec, canon);
  char buffer[160];
  for (const GridPoint& t : grid) {
    std::snprintf(buffer, sizeof buffer, "|%d %d %.9g %.9g %.9g %.9g",
                  static_cast<int>(t.entry.kind), t.entry.category,
                  t.entry.resistance, t.entry.vbd, t.entry.vdd,
                  t.entry.period);
    canon += buffer;
  }
  return checkpoint::crc32_hex(canon);
}

/// Execute the grid points of the record's range that are still pending —
/// the sweep body behind characterize() (full grid) and
/// characterize_range() (one distributed shard). Each verdict is committed
/// into the record at its *global* index of the context's grid, and chaos
/// sites key on that index too, so no shard layout can change an injected
/// failure schedule.
void sweep_tasks(const CharacterizeSpec& spec, tech::SweepContext& ctx,
                 JobRecord& record, const ProgressFn& progress) {
  require(spec.max_attempts >= 1, "characterize: max_attempts must be >= 1");
  static metrics::Counter& retries = metrics::counter("robust.retries");
  static metrics::Counter& points =
      metrics::counter("estimator.characterize_points");
  const std::size_t begin = record.begin();
  const std::size_t end = record.end();
  points.add(static_cast<long long>(end - begin));
  const std::vector<GridPoint>& grid = ctx.grid();

  // Progress lines are serialized here, so the callee needs no lock.
  std::mutex progress_mutex;
  const auto report = [&](std::size_t i, const char* verdict) {
    if (!progress) return;
    std::lock_guard<std::mutex> lock(progress_mutex);
    progress(grid[i].defect.tag() + " @ " + fmt_fixed(grid[i].entry.vdd, 2) +
             " V / " + fmt_time(grid[i].entry.period) + verdict);
  };
  const auto commit = [&](std::size_t i, bool detected) {
    record.commit(i, detected ? 1 : 0);
    report(i, detected ? " -> DETECTED" : " -> escape");
  };

  /// Scalar rescue ladder for point i after a failed attempt 1 (`reason`):
  /// attempt k runs at rescue_level k-1 until one succeeds or the attempts
  /// run out and the point is quarantined.
  const auto run_point = [&](std::size_t i, std::string reason) {
    for (int attempt = 2; attempt <= spec.max_attempts; ++attempt) {
      retries.add(1);
      try {
        chaos::maybe_fail("characterize.point", i, attempt);
        commit(i, ctx.simulate_point(i, attempt - 1));
        return;
      } catch (const analog::SolverError& e) {
        reason = e.reason();
      } catch (const chaos::ChaosError& e) {
        reason = e.what();
      }
    }
    record.quarantine(i, spec.max_attempts, std::move(reason));
    report(i, " -> QUARANTINED");
  };

  // One work item per (kind, category, vdd, period) cell, carrying that
  // cell's whole swept axis as lanes. Groups are formed in first-seen task
  // order and each task belongs to exactly one group, so commits stay
  // indexed by task and the CSV stays byte-identical at every thread count.
  // A shard boundary that splits a cell's axis across two ranges merely
  // shrinks the cell — the lockstep kernel is verdict-identical at any lane
  // subset.
  std::vector<std::vector<std::size_t>> groups;
  std::map<std::tuple<int, int, double, double>, std::size_t> group_of;
  for (std::size_t i = begin; i < end; ++i) {
    const DbEntry& e = grid[i].entry;
    const auto key = std::make_tuple(static_cast<int>(e.kind), e.category,
                                     e.vdd, e.period);
    const auto [it, added] = group_of.emplace(key, groups.size());
    if (added) groups.emplace_back();
    groups[it->second].push_back(i);
  }

  // Attempt 1 of every pending point runs through its cell's
  // SweepContext::simulate_batch, so the technology alone decides how a
  // cell runs (sram6t: the lockstep kernel when batched, one scalar solve
  // per lane when exact). Only the lanes that fail attempt 1 go on to the
  // scalar rescue ladder (attempts >= 2). The verdicts, and so the CSV, are
  // identical in both solver modes.
  const auto group_body = [&](std::size_t g) {
    // Attempt-1 chaos hook per pending lane (a resumed run already has
    // verdicts for the rest): a lane the chaos harness fails here skips the
    // cell run and goes straight to its attempt-2 rescue, preserving the
    // per-point failure schedule.
    std::vector<std::size_t> lanes;
    std::vector<std::pair<std::size_t, std::string>> failed;
    for (const std::size_t i : groups[g]) {
      if (record.done(i)) continue;
      try {
        chaos::maybe_fail("characterize.point", i, 1);
        lanes.push_back(i);
      } catch (const chaos::ChaosError& e) {
        failed.emplace_back(i, e.what());
      }
    }

    if (!lanes.empty()) {
      const std::vector<tech::LaneResult> runs = ctx.simulate_batch(lanes);
      for (std::size_t k = 0; k < lanes.size(); ++k) {
        if (runs[k].ok)
          commit(lanes[k], runs[k].detected);
        else
          failed.emplace_back(lanes[k], runs[k].error);
      }
    }

    for (auto& [i, why] : failed) run_point(i, std::move(why));
  };

  parallel_for(groups.size(), group_body, spec.threads, spec.cancel);
}

}  // namespace

DetectabilityDb characterize(const CharacterizeSpec& spec,
                             const ProgressFn& progress) {
  trace::Span span("estimator.characterize");
  const std::unique_ptr<tech::SweepContext> ctx =
      tech::model_for(spec.technology).make_context(spec, spec.solver);
  const std::vector<GridPoint>& grid = ctx->grid();
  // Every grid point is an independent transient simulation; fan them out.
  // Verdicts land in the record by grid index, so completion order never
  // matters.
  JobRecord record(kCharacterizeJob, 0, grid.size());
  record.attach_checkpoint(spec.checkpoint_path, spec.checkpoint_interval, 32,
                           [&] { return grid_fingerprint(spec, grid); });
  record.run([&] { sweep_tasks(spec, *ctx, record, progress); });
  return assemble_db(spec, grid, record);
}

DetectabilityDb assemble_db(const CharacterizeSpec& spec,
                            const std::vector<GridPoint>& grid,
                            const JobRecord& record) {
  std::vector<DbEntry> entries;
  std::vector<QuarantineEntry> quarantine;
  static metrics::Counter& quarantined =
      metrics::counter("robust.quarantined_points");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    require(record.done(i), "assemble_db: grid point " + std::to_string(i) +
                                " was never resolved");
    const std::optional<Quarantine> failure = record.quarantine(i);
    if (!failure) {
      DbEntry e = grid[i].entry;
      e.detected = record.code(i) == 1;
      entries.push_back(e);
      continue;
    }
    const DbEntry& e = grid[i].entry;
    QuarantineEntry q{grid[i].defect.tag(), e.kind, e.category, e.resistance,
                      e.vbd, e.vdd, e.period, failure->reason,
                      failure->attempts};
    quarantined.add(1);
    metrics::note("robust.quarantine: " + q.describe());
    log_warn("characterize: quarantined ", q.describe());
    quarantine.push_back(std::move(q));
  }
  return DetectabilityDb(std::move(entries), std::move(quarantine),
                         spec_fingerprint(spec), spec.technology);
}

std::vector<GridPoint> characterize_grid(const CharacterizeSpec& spec) {
  return tech::model_for(spec.technology).build_grid(spec);
}

std::vector<PointVerdict> characterize_range(const CharacterizeSpec& spec,
                                             std::size_t begin, std::size_t end,
                                             const ProgressFn& progress) {
  trace::Span span("estimator.characterize_range");
  const std::unique_ptr<tech::SweepContext> ctx =
      tech::model_for(spec.technology).make_context(spec, spec.solver);
  const std::size_t points = ctx->grid().size();
  require(begin <= end && end <= points,
          "characterize_range: shard [" + std::to_string(begin) + ", " +
              std::to_string(end) + ") out of bounds for a grid of " +
              std::to_string(points) + " points");
  JobRecord record(kCharacterizeJob, begin, end);
  sweep_tasks(spec, *ctx, record, progress);
  std::vector<PointVerdict> verdicts;
  for (std::size_t i = begin; i < end; ++i) {
    const std::optional<Quarantine> failure = record.quarantine(i);
    verdicts.push_back({i, failure.has_value(), record.code(i) == 1,
                        failure ? failure->attempts : 0,
                        failure ? failure->reason : ""});
  }
  return verdicts;
}

CornerOutcomes corner_outcomes(const DetectabilityDb& db, const Defect& defect,
                               double vlv_period, double production_period,
                               double fast_period) {
  const sram::StressPoint corners[] = {{1.0, vlv_period},
                                       {1.65, production_period},
                                       {1.8, production_period},
                                       {1.95, production_period},
                                       {1.8, fast_period}};
  const std::uint32_t mask = db.detected_mask(defect, corners);
  CornerOutcomes out;
  out.vlv = mask & 1;
  out.vmin = mask & 2;
  out.vnom = mask & 4;
  out.vmax = mask & 8;
  out.at_speed = mask & 16;
  return out;
}

}  // namespace memstress::estimator
