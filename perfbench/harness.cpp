#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>

#include "layout/critical_area.hpp"
#include "layout/sram_layout.hpp"
#include "march/library.hpp"
#include "tech/model.hpp"
#include "util/checkpoint.hpp"

namespace memstress::perfbench {

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(rank);
  if (below + 1 >= values.size()) return values.back();
  const double frac = rank - static_cast<double>(below);
  return values[below] + frac * (values[below + 1] - values[below]);
}

std::string join(const std::vector<double>& values) {
  std::string out;
  char buffer[32];
  for (const double v : values) {
    std::snprintf(buffer, sizeof buffer, "%s%.4g", out.empty() ? "" : " ", v);
    out += buffer;
  }
  return out;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of (seed, stream): distinct streams never collide for one seed.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
                    0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  // 53 bits: seeds travel as JSON numbers in shard requests.
  return (z ^ (z >> 31)) & ((1ULL << 53) - 1);
}

// ---------------------------------------------------------------------------

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& m : metrics_)
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  metrics_.push_back({name, value, unit});
}

void Result::digest(const std::string& name, const std::string& value,
                    bool per_seed) {
  (per_seed ? seed_digests_ : fixed_digests_).set(name, server::Json(value));
}

void Result::check(const std::string& name, bool ok, const std::string& detail) {
  checks_.push_back({name, ok, detail});
  if (!ok)
    std::fprintf(stderr, "perfbench: check FAILED: %s %s\n", name.c_str(),
                 detail.c_str());
}

void Result::info(const std::string& name, const std::string& value) {
  info_.set(name, server::Json(value));
}

void Result::info(const std::string& name, double value) {
  info_.set(name, server::Json(value));
}

bool Result::correct() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.ok; });
}

std::string Result::to_json() const {
  using server::Json;
  Json metrics = Json::object();
  for (const auto& m : metrics_) {
    Json entry = Json::object();
    entry.set("value", Json(m.value));
    entry.set("unit", Json(m.unit));
    metrics.set(m.name, std::move(entry));
  }
  Json digests = Json::object();
  digests.set("seed", seed_digests_);
  digests.set("fixed", fixed_digests_);
  Json checks = Json::array();
  for (const auto& c : checks_) {
    Json entry = Json::object();
    entry.set("name", Json(c.name));
    entry.set("ok", Json(c.ok));
    if (!c.detail.empty()) entry.set("detail", Json(c.detail));
    checks.push_back(std::move(entry));
  }
  Json out = Json::object();
  out.set("correct", Json(correct()));
  out.set("attempted", Json(attempted));
  out.set("failed", Json(failed));
  out.set("metrics", std::move(metrics));
  out.set("digests", std::move(digests));
  out.set("checks", std::move(checks));
  out.set("info", info_);
  return out.dump();
}

// ---------------------------------------------------------------------------

struct Tracer::Impl {
  std::mutex mutex;
  std::vector<SpanRecord> spans;
  std::atomic<long long> next{0};
};

namespace {
thread_local long long current_span = -1;
}

Tracer::Tracer() : epoch_(Clock::now()), impl_(std::make_shared<Impl>()) {}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

long long Tracer::next_id() { return impl_->next.fetch_add(1); }

void Tracer::push(SpanRecord record) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->spans.push_back(std::move(record));
}

Tracer::Scope::Scope(const char* name) : name_(name) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  id_ = tracer.next_id();
  parent_ = current_span;
  current_span = id_;
  start_ = Clock::now();
}

Tracer::Scope::~Scope() {
  if (id_ < 0) return;
  const Clock::time_point end = Clock::now();
  current_span = parent_;
  Tracer& tracer = Tracer::instance();
  SpanRecord record;
  record.id = id_;
  record.parent = parent_;
  record.name = name_;
  record.start_s = seconds_between(tracer.epoch_, start_);
  record.end_s = seconds_between(tracer.epoch_, end);
  tracer.push(std::move(record));
}

void Tracer::record(const std::string& name, Clock::time_point start,
                    Clock::time_point end, long long request_id) {
  if (!enabled_) return;
  SpanRecord record;
  record.id = next_id();
  record.parent = current_span;
  record.request_id = request_id;
  record.name = name;
  record.start_s = seconds_between(epoch_, start);
  record.end_s = seconds_between(epoch_, end);
  push(std::move(record));
}

std::map<std::string, double> Tracer::layer_self_s() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::map<long long, std::vector<const SpanRecord*>> children;
  for (const auto& s : impl_->spans) children[s.parent].push_back(&s);
  std::map<std::string, double> self;
  for (const auto& s : impl_->spans) {
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<double, double>> covered;
    for (const SpanRecord* c : children[s.id])
      covered.emplace_back(std::max(c->start_s, s.start_s),
                           std::min(c->end_s, s.end_s));
    std::sort(covered.begin(), covered.end());
    double busy = 0.0, reach = s.start_s;
    for (const auto& [from, to] : covered) {
      const double begin = std::max(from, reach);
      if (to > begin) {
        busy += to - begin;
        reach = to;
      }
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] += std::max(0.0, (s.end_s - s.start_s) - busy);
  }
  return self;
}

void Tracer::write(const std::string& path) const {
  using server::Json;
  Json spans = Json::array();
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    for (const auto& s : impl_->spans) {
      Json entry = Json::object();
      entry.set("id", Json(s.id));
      entry.set("parent", Json(s.parent));
      if (s.request_id >= 0) entry.set("request_id", Json(s.request_id));
      entry.set("name", Json(s.name));
      entry.set("start_s", Json(s.start_s));
      entry.set("end_s", Json(s.end_s));
      spans.push_back(std::move(entry));
    }
  }
  Json self = Json::object();
  for (const auto& [layer, seconds] : layer_self_s()) self.set(layer, Json(seconds));
  Json out = Json::object();
  out.set("spans", std::move(spans));
  out.set("layer_self_s", std::move(self));
  std::ofstream file(path);
  file << out.dump() << "\n";
}

// ---------------------------------------------------------------------------

double self_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

double pid_cpu_s(pid_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const auto close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i)
    if (i >= 14) ticks += std::stod(field);
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

namespace {
double vm_hwm_mb(const std::string& status_path) {
  std::ifstream status(status_path);
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
  return 0.0;
}
}  // namespace

double self_peak_rss_mb() { return vm_hwm_mb("/proc/self/status"); }
double pid_peak_rss_mb(pid_t pid) {
  return vm_hwm_mb("/proc/" + std::to_string(pid) + "/status");
}

double calibration_ms() {
  const auto start = Clock::now();
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  double acc = 0.0;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += static_cast<double>(x & 0xffff) * 1e-9;
  }
  // Keep the loop observable so it cannot be folded away.
  if (acc < 0.0) std::fprintf(stderr, "%f\n", acc);
  return 1e3 * seconds_since(start);
}

CpuMeter::CpuMeter(std::vector<pid_t> children)
    : children_(std::move(children)), self_start_(self_cpu_s()) {
  for (const pid_t pid : children_) child_start_.push_back(pid_cpu_s(pid));
}

double CpuMeter::elapsed_s() const {
  double total = self_cpu_s() - self_start_;
  for (std::size_t i = 0; i < children_.size(); ++i)
    total += pid_cpu_s(children_[i]) - child_start_[i];
  return total;
}

// ---------------------------------------------------------------------------

sram::BlockSpec standard_block() {
  sram::BlockSpec spec;
  spec.rows = 2;
  spec.cols = 1;
  return spec;
}

estimator::CharacterizeSpec paper_spec() {
  estimator::CharacterizeSpec spec =
      tech::default_characterize_spec(tech::Technology::Sram6T);
  spec.block = standard_block();
  spec.threads = kThreads;
  spec.solver = analog::SolverMode::Batched;
  return spec;
}

estimator::CharacterizeSpec undervolt_spec() {
  estimator::CharacterizeSpec spec =
      tech::default_characterize_spec(tech::Technology::Undervolt);
  spec.block = standard_block();
  spec.threads = kThreads;
  spec.solver = analog::SolverMode::Batched;
  return spec;
}

defects::DefectSampler make_sampler() {
  const auto model = layout::generate_sram_layout(8, 8);
  return defects::DefectSampler(
      defects::aggregate_sites(layout::extract_bridges(model),
                               layout::extract_opens(model)),
      defects::FabModel{}, standard_block());
}

std::shared_ptr<const estimator::DetectabilityDb> build_undervolt_db() {
  return std::make_shared<const estimator::DetectabilityDb>(
      estimator::characterize(undervolt_spec()));
}

std::shared_ptr<const server::MemstressService> make_service(
    std::shared_ptr<const estimator::DetectabilityDb> db,
    server::ServiceInfo info) {
  return std::make_shared<const server::MemstressService>(
      std::move(db), estimator::PopulationModel::calibrate(),
      defects::FabModel{}, make_sampler(), info);
}

std::string crc_hex(const std::string& text) {
  char out[16];
  std::snprintf(out, sizeof out, "%08x", checkpoint::crc32(text));
  return out;
}

long long counter_of(const metrics::RunReport& report, const std::string& name) {
  for (const auto& c : report.counters)
    if (c.name == name) return c.value;
  return 0;
}

namespace {
double span_total(const std::vector<metrics::SpanValue>& spans,
                  const std::string& name) {
  double total = 0.0;
  for (const auto& s : spans)
    total += (s.name == name ? s.total_s : 0.0) + span_total(s.children, name);
  return total;
}
}  // namespace

double lib_span_total_s(const metrics::RunReport& report,
                        const std::string& name) {
  return span_total(report.spans, name);
}

}  // namespace memstress::perfbench
