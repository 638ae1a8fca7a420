#include "util/job_record.hpp"

#include <charconv>
#include <sstream>

#include "util/cancel.hpp"
#include "util/chaos.hpp"
#include "util/checkpoint.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"

namespace memstress {

JobRecord::JobRecord(const JobKind& kind, std::size_t begin, std::size_t end)
    : kind_(kind), begin_(begin), end_(end), slots_(end - begin) {
  for (auto& slot : slots_) slot.store(kPending, std::memory_order_relaxed);
}

int JobRecord::code(std::size_t i) const {
  const std::uint8_t c = load(i);
  return c == kPending || c == kQuarantined ? -1 : c;
}

std::optional<Quarantine> JobRecord::quarantine(std::size_t i) const {
  if (load(i) != kQuarantined) return std::nullopt;
  std::lock_guard<std::mutex> lock(quarantine_mutex_);
  return quarantined_.at(i);
}

std::vector<int> JobRecord::codes() const {
  std::vector<int> out(end_ - begin_);
  for (std::size_t i = begin_; i < end_; ++i) out[i - begin_] = code(i);
  return out;
}

void JobRecord::commit(std::size_t i, int code) {
  if (code < 0 || code > kind_.max_code)
    throw Error(std::string(kind_.name) + ": outcome code " +
                std::to_string(code) + " out of range");
  slots_[i - begin_].store(static_cast<std::uint8_t>(code),
                           std::memory_order_release);
  count_commit();
}

void JobRecord::quarantine(std::size_t i, int attempts, std::string reason) {
  {
    std::lock_guard<std::mutex> lock(quarantine_mutex_);
    quarantined_[i] = Quarantine{attempts, std::move(reason)};
    slots_[i - begin_].store(kQuarantined, std::memory_order_release);
  }
  count_commit();
}

void JobRecord::count_commit() {
  // No checkpoint attached: nothing reads the count, so no commit touches
  // the shared line (run()'s cancel warning counts the slots instead).
  if (interval_ == 0) return;
  // acq_rel: the commit that reaches a multiple of the interval sees every
  // slot committed before it, so its snapshot holds at least that many.
  const std::size_t n = completed_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (n % interval_ == 0) snapshot();
}

void JobRecord::snapshot() {
  if (path_.empty()) return;
  static metrics::Counter& written =
      metrics::counter("robust.checkpoints_written");
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  checkpoint::save(path_, serialize(fingerprint_));
  written.add(1);
  // Simulated-crash hook: death tests kill the run right after a snapshot
  // lands, then assert that a resumed run completes byte-identically.
  chaos::crash_point((std::string(kind_.name) + ".checkpoint").c_str());
}

std::string JobRecord::header(const std::string& fingerprint) const {
  return std::string(kind_.name) + " 1 " + fingerprint + " " +
         std::to_string(end_ - begin_);
}

std::string JobRecord::serialize(const std::string& fingerprint) const {
  std::string payload = header(fingerprint) + "\n";
  std::lock_guard<std::mutex> lock(quarantine_mutex_);
  for (std::size_t i = begin_; i < end_; ++i) {
    const std::uint8_t c = load(i);
    if (c == kPending) continue;
    payload += std::to_string(i);
    if (c != kQuarantined) {
      payload += " " + std::to_string(c) + "\n";
      continue;
    }
    const Quarantine& q = quarantined_.at(i);
    std::string reason = q.reason;
    for (char& ch : reason)
      if (ch == '\n' || ch == '\r') ch = ' ';
    payload += " Q " + std::to_string(q.attempts) + " " + reason + "\n";
  }
  return payload;
}

std::size_t JobRecord::restore(const std::string& payload,
                               const std::string& fingerprint,
                               const std::string& source) {
  std::istringstream in(payload);
  std::string line;
  std::size_t row = 1;
  const auto reject = [&](const std::string& what) -> std::size_t {
    for (auto& slot : slots_) slot.store(kPending, std::memory_order_relaxed);
    quarantined_.clear();
    log_warn(kind_.name, ": checkpoint ", source, ": row ", row, ": ", what,
             "; restarting from scratch");
    return 0;
  };
  if (!std::getline(in, line) || line != header(fingerprint))
    return reject("header \"" + line + "\" does not match this " +
                  kind_.name + " job (stale or foreign snapshot)");
  std::size_t count = 0;
  for (row = 2; std::getline(in, line); ++count, ++row) {
    std::istringstream fields(line);
    std::size_t i = 0;
    std::string verdict, rest;
    int value = -1;
    bool ok = static_cast<bool>(fields >> i >> verdict) && i >= begin_ &&
              i < end_ && !done(i);
    const bool quarantined = verdict == "Q";
    if (quarantined) {
      // "<i> Q <attempts> <reason>": the reason runs to the end of the line.
      ok = ok && fields >> value && value >= 1;
      std::getline(fields, rest);
      ok = ok && (rest.empty() || rest[0] == ' ');
    } else {
      const char* last = verdict.data() + verdict.size();
      const auto parsed = std::from_chars(verdict.data(), last, value);
      ok = ok && parsed.ec == std::errc() && parsed.ptr == last &&
           value >= 0 && value <= kind_.max_code && !(fields >> rest);
    }
    if (!ok) return reject("bad record \"" + line + "\"");
    if (quarantined)
      quarantined_[i] = {value, rest.empty() ? "unknown" : rest.substr(1)};
    slots_[i - begin_].store(
        quarantined ? kQuarantined : static_cast<std::uint8_t>(value),
        std::memory_order_relaxed);
  }
  return count;
}

void JobRecord::attach_checkpoint(
    std::string path, long interval, long default_interval,
    const std::function<std::string()>& fingerprint) {
  // No explicit path and MEMSTRESS_CHECKPOINT_DIR unset: checkpointing off.
  if (path.empty() && checkpoint::default_path(kind_.name).empty()) return;
  fingerprint_ = fingerprint();
  path_ = path.empty() ? checkpoint::default_path(std::string(kind_.name) +
                                                  "-" + fingerprint_)
                       : std::move(path);
  interval_ = static_cast<std::size_t>(
      interval > 0 ? interval : checkpoint::default_interval(default_interval));
  const std::optional<std::string> payload = checkpoint::load(path_);
  const std::size_t restored =
      payload ? restore(*payload, fingerprint_, path_) : 0;
  if (restored == 0) return;
  static metrics::Counter& resumed =
      metrics::counter("robust.checkpoints_resumed");
  resumed.add(1);
  log_info(kind_.name, ": resumed ", restored, "/", end_ - begin_, " ",
           kind_.unit, " from ", path_);
}

void JobRecord::run(const std::function<void()>& body) {
  try {
    body();
  } catch (const CancelledError&) {
    // Cooperative shutdown (SIGINT or an explicit token): flush a final
    // snapshot so the job resumes exactly where it stopped, then unwind.
    snapshot();
    // Without a checkpoint no commit counted itself: count finished slots.
    std::size_t finished = 0;
    if (interval_ > 0)
      finished = completed_.load();
    else
      for (std::size_t i = begin_; i < end_; ++i) finished += done(i);
    log_warn(kind_.name, ": cancelled after ", finished, " ",
             kind_.unit, "; ",
             path_.empty() ? "no checkpoint configured"
                           : "checkpoint flushed to " + path_);
    throw;
  }
  if (!path_.empty()) checkpoint::remove(path_);
}

}  // namespace memstress
