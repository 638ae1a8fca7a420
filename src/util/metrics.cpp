#include "util/metrics.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "util/env.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/trace.hpp"

namespace memstress::metrics {

namespace detail {

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{env_bool_or("MEMSTRESS_METRICS", false)};
  return flag;
}

}  // namespace detail

void set_enabled(bool on) {
  detail::enabled_flag().store(on, std::memory_order_relaxed);
}

namespace {

/// Bucket index for a recorded value: 8 log buckets per decade starting at
/// 1e-12. Non-positive values land in bucket 0 (latencies and sizes are
/// positive; a zero must still be counted somewhere).
int bucket_index(double value) {
  if (!(value > Histogram::kBucketFloor)) return 0;
  const double position =
      (std::log10(value) + 12.0) * Histogram::kBucketsPerDecade;
  const int index = static_cast<int>(position);
  return std::clamp(index, 0, Histogram::kBucketCount - 1);
}

/// Geometric midpoint of a bucket — the representative value quantile()
/// reports for samples that landed in it.
double bucket_mid(int index) {
  const double decades =
      (index + 0.5) / Histogram::kBucketsPerDecade - 12.0;
  return std::pow(10.0, decades);
}

}  // namespace

void Histogram::record(double value) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (stats_.count == 0) {
    stats_.min = value;
    stats_.max = value;
  } else {
    stats_.min = std::min(stats_.min, value);
    stats_.max = std::max(stats_.max, value);
  }
  ++stats_.count;
  stats_.sum += value;
  ++stats_.buckets[static_cast<std::size_t>(bucket_index(value))];
}

double Histogram::Snapshot::quantile(double q) const {
  if (count <= 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // The endpoints are tracked exactly — answer them without bucket error.
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  // Rank of the q-th sample (1-based, ceil) — p999 of 1000 samples is the
  // 1000th, not an extrapolation past the data.
  const long long rank = std::max<long long>(
      1, static_cast<long long>(std::ceil(q * static_cast<double>(count))));
  long long seen = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    seen += buckets[static_cast<std::size_t>(i)];
    if (seen >= rank)
      return std::clamp(bucket_mid(i), min, max);
  }
  return max;
}

Histogram::Snapshot Histogram::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void Histogram::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = Snapshot{};
}

namespace {

/// Name -> handle maps. Nodes are heap-allocated and never freed so handles
/// cached in function-local statics at call sites outlive any reset().
struct Registry {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
  std::vector<std::string> notes;
};

constexpr std::size_t kMaxNotes = 4096;

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

Registry& registry() {
  static Registry r;
  return r;
}

std::string json_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.9g", value);
  return buffer;
}

void append_span_json(const SpanValue& span, std::string& out) {
  out += "{\"name\":\"" + span.name + "\",\"count\":" +
         std::to_string(span.count) + ",\"total_s\":" +
         json_number(span.total_s) + (span.fanout ? ",\"fanout\":true" : "") +
         ",\"children\":[";
  for (std::size_t i = 0; i < span.children.size(); ++i) {
    if (i) out += ",";
    append_span_json(span.children[i], out);
  }
  out += "]}";
}

double spans_total(const std::vector<SpanValue>& spans) {
  double total = 0.0;
  for (const auto& span : spans)
    if (!span.fanout) total += span.total_s;
  return total;
}

void add_span_rows(const SpanValue& span, int depth, double root_total,
                   TextTable& table) {
  const std::string name =
      std::string(static_cast<std::size_t>(2 * depth), ' ') + span.name;
  const std::string seconds = fmt_fixed(span.total_s, 3);
  if (span.fanout) {
    table.add_row({name, std::to_string(span.count), "", seconds, "", ""});
  } else {
    const double share = root_total > 0.0 ? span.total_s / root_total : 0.0;
    const int bar_width = static_cast<int>(share * 20.0 + 0.5);
    table.add_row({name, std::to_string(span.count), seconds, "",
                   fmt_percent(share) + "%",
                   std::string(static_cast<std::size_t>(bar_width), '#')});
  }
  for (const auto& child : span.children)
    add_span_rows(child, depth + 1, root_total, table);
}

/// The calling thread's shard: handed out round-robin on its first add.
std::size_t shard_of_this_thread() {
  static std::atomic<std::size_t> next{0};
  constexpr std::size_t kUnassigned = ~std::size_t{0};
  thread_local std::size_t shard = kUnassigned;
  if (shard == kUnassigned)
    shard = next.fetch_add(1, std::memory_order_relaxed) % Counter::kShards;
  return shard;
}

}  // namespace

void Counter::add_to_shard(long long delta) {
  shards_[shard_of_this_thread()].value.fetch_add(delta,
                                                  std::memory_order_relaxed);
}

long long Counter::value() const {
  long long total = 0;
  for (const Shard& shard : shards_)
    total += shard.value.load(std::memory_order_relaxed);
  return total;
}

Counter& counter(const std::string& name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  auto& slot = reg.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& histogram(const std::string& name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  auto& slot = reg.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void reset() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (auto& [name, c] : reg.counters)
    for (Counter::Shard& shard : c->shards_)
      shard.value.store(0, std::memory_order_relaxed);
  for (auto& [name, h] : reg.histograms) h->clear();
  reg.notes.clear();
  trace::reset();
}

void note(const std::string& text) {
  if (!enabled()) return;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  if (reg.notes.size() < kMaxNotes) reg.notes.push_back(text);
}

RunReport collect() {
  RunReport report;
  Registry& reg = registry();
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto& [name, c] : reg.counters) {
      const long long value = c->value();
      if (value != 0) report.counters.push_back({name, value});
    }
    for (const auto& [name, h] : reg.histograms) {
      const Histogram::Snapshot stats = h->snapshot();
      if (stats.count != 0) report.histograms.push_back({name, stats});
    }
    report.notes = reg.notes;
  }
  report.spans = trace::snapshot();
  return report;
}

std::string RunReport::to_json() const {
  std::string out = "{\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i) out += ",";
    out += "\"" + counters[i].name +
           "\":" + std::to_string(counters[i].value);
  }
  out += "},\"histograms\":{";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    if (i) out += ",";
    const auto& h = histograms[i];
    out += "\"" + h.name + "\":{\"count\":" + std::to_string(h.stats.count) +
           ",\"sum\":" + json_number(h.stats.sum) +
           ",\"min\":" + json_number(h.stats.min) +
           ",\"max\":" + json_number(h.stats.max) +
           ",\"mean\":" + json_number(h.stats.mean()) +
           ",\"p50\":" + json_number(h.stats.quantile(0.50)) +
           ",\"p99\":" + json_number(h.stats.quantile(0.99)) +
           ",\"p999\":" + json_number(h.stats.quantile(0.999)) + "}";
  }
  out += "},\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i) out += ",";
    append_span_json(spans[i], out);
  }
  out += "],\"notes\":[";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    if (i) out += ",";
    out += json_string(notes[i]);
  }
  out += "]}";
  return out;
}

std::string RunReport::to_table() const {
  std::string out = "== RunReport ==\n";
  if (counters.empty() && histograms.empty() && spans.empty() &&
      notes.empty())
    return out + "(no metrics recorded; set MEMSTRESS_METRICS=1 or "
                 "metrics::set_enabled(true))\n";

  if (!counters.empty()) {
    TextTable table({"counter", "value"});
    for (const auto& c : counters)
      table.add_row({c.name, std::to_string(c.value)});
    out += "\n" + table.to_string();
  }
  if (!histograms.empty()) {
    TextTable table({"histogram", "count", "mean", "min", "max"});
    for (const auto& h : histograms)
      table.add_row({h.name, std::to_string(h.stats.count),
                     fmt_fixed(h.stats.mean(), 3), fmt_fixed(h.stats.min, 3),
                     fmt_fixed(h.stats.max, 3)});
    out += "\n" + table.to_string();
  }
  if (!spans.empty()) {
    TextTable table({"span", "count", "total s", "busy s", "share", ""});
    const double total = spans_total(spans);
    for (const auto& span : spans) add_span_rows(span, 0, total, table);
    out += "\n" + table.to_string();
  }
  if (!notes.empty()) {
    out += "\nnotes:\n";
    for (const auto& line : notes) out += "  " + line + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// NDJSON stream.

namespace {

bool all_digits(const std::string& text) {
  if (text.empty()) return false;
  for (const char c : text)
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  return true;
}

bool write_line(int fd, const std::string& line) {
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = ::write(fd, line.data() + sent, line.size() - sent);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

struct SnapshotStreamer::Impl {
  std::string target;  // as given, for diagnostics
  int fd = -1;
  bool owned = false;  // close() is ours for paths, not for inherited fds
  std::string label;
  // Touched only by the emitting thread, then by the destructor after join.
  long long seq = 0;  // lines are numbered per streamer, starting at 1
  bool write_failed_warned = false;
  const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();

  std::mutex mutex;
  std::condition_variable wake;
  bool stop = false;
  std::thread thread;

  ~Impl() {
    if (owned) ::close(fd);
  }

  /// Append one snapshot line. collect() takes the registry lock, and no
  /// lock of ours is held while collecting or writing, so instrumented code
  /// never waits on a slow stream write.
  void emit() {
    const std::string report = collect().to_json();
    const long long uptime_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    std::string line = "{\"stream\":\"metrics\",\"seq\":" +
                       std::to_string(++seq) +
                       ",\"uptime_ms\":" + std::to_string(uptime_ms);
    if (!label.empty()) line += ",\"label\":" + json_string(label);
    line += ",\"report\":" + report + "}\n";
    if (!write_line(fd, line) && !write_failed_warned) {
      write_failed_warned = true;
      log_warn("metrics: write to stream target \"", target,
               "\" failed; further failures are silent");
    }
  }
};

SnapshotStreamer::SnapshotStreamer(const std::string& target, int interval_ms,
                                   std::string label) {
  if (target.empty()) return;  // no target: spawn nothing
  auto impl = std::make_unique<Impl>();
  if (all_digits(target) && target.size() <= 9) {
    impl->fd = std::stoi(target);
  } else {
    impl->fd = ::open(target.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    // Observability must never take the process down: warn, stream nothing.
    if (impl->fd < 0) {
      log_warn("metrics: cannot open stream target \"", target,
               "\"; stream disabled");
      return;
    }
    impl->owned = true;
  }
  impl->target = target;
  impl->label = std::move(label);
  // A live stream means the host wants live numbers: the env toggle alone
  // would leave every snapshot empty.
  set_enabled(true);
  const auto interval =
      std::chrono::milliseconds(std::max(interval_ms, 10));
  impl->thread = std::thread([impl = impl.get(), interval] {
    std::unique_lock<std::mutex> lock(impl->mutex);
    for (;;) {
      if (impl->wake.wait_for(lock, interval, [impl] { return impl->stop; }))
        return;
      lock.unlock();
      impl->emit();
      lock.lock();
    }
  });
  impl_ = std::move(impl);
}

SnapshotStreamer::~SnapshotStreamer() {
  if (!impl_) return;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->wake.notify_all();
  impl_->thread.join();
  // Final frame so a consumer always sees the end-of-run totals.
  impl_->emit();
}

}  // namespace memstress::metrics
