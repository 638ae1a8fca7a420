// The commit/resume record of a ranged batch job — the characterization
// grid sweep or the Monte-Carlo study — whether it runs in one process,
// resumes from a checkpoint, or is sharded across a coordinator's workers.
//
//   * One outcome slot per global index in [begin, end): a code in
//     [0, max_code] (a database verdict, a study outcome mask) in one byte.
//     The task that owns an index writes its slot once, without a lock.
//     Attempts and reason exist only for quarantined indices.
//   * An atomic completion count drives the snapshot cadence, only when a
//     checkpoint is attached: exactly one commit reaches each multiple of
//     the interval, so the number of snapshots (robust.checkpoints_written)
//     is scheduling-free. With no checkpoint (the default) a commit is one
//     slot store and touches no shared counter.
//   * The one checkpoint codec: a "<kind> 1 <fingerprint> <count>" header,
//     then one row per finished index in index order, "<i> <code>" or
//     "<i> Q <attempts> <reason>".
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace memstress {

/// What a record holds: `name` is the checkpoint header kind, the log
/// prefix and the "<name>.checkpoint" crash site; `unit` names one index in
/// log lines; `max_code` is the largest outcome code.
struct JobKind {
  const char* name;
  const char* unit;
  int max_code;
};

/// An index that could not be computed: its attempts and last failure.
struct Quarantine {
  int attempts = 0;
  std::string reason;
};

class JobRecord {
 public:
  JobRecord(const JobKind& kind, std::size_t begin, std::size_t end);

  std::size_t begin() const { return begin_; }
  std::size_t end() const { return end_; }
  bool done(std::size_t i) const { return load(i) != kPending; }
  /// The code committed for index i; -1 while pending or when quarantined.
  int code(std::size_t i) const;
  std::optional<Quarantine> quarantine(std::size_t i) const;
  /// code(i) for every index in [begin, end).
  std::vector<int> codes() const;

  /// Record index i's outcome; only the task that owns i calls these, once.
  /// With checkpointing on, the commit due for a snapshot writes it.
  void commit(std::size_t i, int code);
  void quarantine(std::size_t i, int attempts, std::string reason);

  /// Checkpoint to `path`, or to MEMSTRESS_CHECKPOINT_DIR/<kind>-<fp>.ckpt
  /// when `path` is empty; off (and `fingerprint` never called) when both
  /// are unset. Restores a valid snapshot found there, then snapshots every
  /// `interval` commits; an `interval` of 0 takes
  /// MEMSTRESS_CHECKPOINT_INTERVAL, or `default_interval` when that is unset.
  void attach_checkpoint(std::string path, long interval,
                         long default_interval,
                         const std::function<std::string()>& fingerprint);

  /// Run `body`, which commits into this record. On CancelledError flush a
  /// final snapshot, warn and rethrow; on success delete the checkpoint.
  void run(const std::function<void()>& body);

  /// The checkpoint payload of the indices finished so far.
  std::string serialize(const std::string& fingerprint) const;
  /// Load a payload into this fresh record and return the rows restored.
  /// A payload for another job, or with any malformed row, is rejected
  /// whole: 0, the record untouched, one warning naming `source` and the
  /// row.
  std::size_t restore(const std::string& payload,
                      const std::string& fingerprint,
                      const std::string& source);

 private:
  static constexpr std::uint8_t kPending = 0xff;
  static constexpr std::uint8_t kQuarantined = 0xfe;

  std::uint8_t load(std::size_t i) const {
    return slots_[i - begin_].load(std::memory_order_acquire);
  }
  std::string header(const std::string& fingerprint) const;
  void count_commit();
  void snapshot();

  JobKind kind_;
  std::size_t begin_;
  std::size_t end_;
  std::vector<std::atomic<std::uint8_t>> slots_;
  mutable std::mutex quarantine_mutex_;
  std::map<std::size_t, Quarantine> quarantined_;
  /// Commits made by this run; counted only with a checkpoint attached.
  std::atomic<std::size_t> completed_{0};
  std::string path_;                       ///< empty = checkpointing off
  std::string fingerprint_;
  std::size_t interval_ = 0;    ///< snapshot cadence; 0 = no checkpoint
  std::mutex snapshot_mutex_;  ///< one snapshot writes the file at a time
};

}  // namespace memstress
