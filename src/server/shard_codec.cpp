#include "server/shard_codec.hpp"

#include <cmath>
#include <string>
#include <vector>

#include "analog/batch.hpp"
#include "march/march.hpp"
#include "tech/technology.hpp"

namespace memstress::server {

namespace {

/// Largest accepted grid-axis length. The default spec's axes are all well
/// under this; the cap exists so a malicious or corrupted frame cannot ask
/// a worker for a billion-point sweep.
constexpr std::size_t kMaxAxisValues = 10000;

Json axis_to_json(const std::vector<double>& values) {
  Json out = Json::array();
  for (const double v : values) out.push_back(Json(v));
  return out;
}

std::vector<double> axis_from_json(const Json& json, const char* name,
                                   bool require_positive) {
  const Json& axis = json.at(name);
  const std::vector<Json>& items = axis.items();
  if (items.empty())
    throw ProtocolError(std::string("\"") + name + "\" must be non-empty");
  if (items.size() > kMaxAxisValues)
    throw ProtocolError(std::string("\"") + name + "\" has " +
                        std::to_string(items.size()) +
                        " values (limit " + std::to_string(kMaxAxisValues) +
                        ")");
  std::vector<double> values;
  values.reserve(items.size());
  for (const Json& item : items) {
    const double v = item.as_number();
    if (!std::isfinite(v) || (require_positive && v <= 0.0))
      throw ProtocolError(std::string("\"") + name +
                          "\" values must be finite" +
                          (require_positive ? " and positive" : ""));
    values.push_back(v);
  }
  return values;
}

/// A finite, strictly positive number field (required when its enclosing
/// object is present — the sub-objects carry full parameter sets so a spec
/// round-trips without relying on both sides compiling the same defaults).
double positive_field(const Json& json, const char* name) {
  const double value = json.at(name).as_number();
  if (!std::isfinite(value) || value <= 0.0)
    throw ProtocolError(std::string("\"") + name +
                        "\" must be finite and positive");
  return value;
}

Json mtj_to_json(const tech::SttMramSpec& mtj) {
  Json out = Json::object();
  out.set("r_parallel", Json(mtj.r_parallel));
  out.set("tmr", Json(mtj.tmr));
  out.set("delta_nominal", Json(mtj.delta_nominal));
  out.set("v_c0", Json(mtj.v_c0));
  out.set("access_resistance", Json(mtj.access_resistance));
  out.set("pulse_fraction", Json(mtj.pulse_fraction));
  out.set("read_fraction", Json(mtj.read_fraction));
  out.set("retention_time", Json(mtj.retention_time));
  out.set("attempt_time", Json(mtj.attempt_time));
  out.set("resistances", axis_to_json(mtj.resistances));
  return out;
}

tech::SttMramSpec mtj_from_json(const Json& json) {
  tech::SttMramSpec mtj;
  mtj.r_parallel = positive_field(json, "r_parallel");
  mtj.tmr = positive_field(json, "tmr");
  mtj.delta_nominal = positive_field(json, "delta_nominal");
  mtj.v_c0 = positive_field(json, "v_c0");
  mtj.access_resistance = positive_field(json, "access_resistance");
  mtj.pulse_fraction = positive_field(json, "pulse_fraction");
  mtj.read_fraction = positive_field(json, "read_fraction");
  mtj.retention_time = positive_field(json, "retention_time");
  mtj.attempt_time = positive_field(json, "attempt_time");
  mtj.resistances =
      axis_from_json(json, "resistances", /*require_positive=*/true);
  return mtj;
}

Json undervolt_to_json(const tech::UndervoltSpec& uv) {
  Json out = Json::object();
  out.set("v_safe", Json(uv.v_safe));
  out.set("v_cliff", Json(uv.v_cliff));
  out.set("margin_nominal", Json(uv.margin_nominal));
  out.set("sigma", Json(uv.sigma));
  out.set("r_char_bridge", Json(uv.r_char_bridge));
  out.set("r_char_open", Json(uv.r_char_open));
  return out;
}

tech::UndervoltSpec undervolt_from_json(const Json& json) {
  tech::UndervoltSpec uv;
  uv.v_safe = positive_field(json, "v_safe");
  uv.v_cliff = positive_field(json, "v_cliff");
  uv.margin_nominal = positive_field(json, "margin_nominal");
  uv.sigma = positive_field(json, "sigma");
  uv.r_char_bridge = positive_field(json, "r_char_bridge");
  uv.r_char_open = positive_field(json, "r_char_open");
  if (uv.v_cliff >= uv.v_safe)
    throw ProtocolError("\"v_cliff\" must be below \"v_safe\"");
  return uv;
}

}  // namespace

Json characterize_spec_to_json(const estimator::CharacterizeSpec& spec) {
  Json out = Json::object();
  out.set("test_name", Json(spec.test.name));
  out.set("test_notation", Json(spec.test.to_string()));
  out.set("rows", Json(spec.block.rows));
  out.set("cols", Json(spec.block.cols));
  out.set("steps_per_cycle", Json(spec.ate.steps_per_cycle));
  out.set("vdds", axis_to_json(spec.vdds));
  out.set("periods", axis_to_json(spec.periods));
  out.set("bridge_resistances", axis_to_json(spec.bridge_resistances));
  out.set("open_resistances", axis_to_json(spec.open_resistances));
  out.set("gox_vbds", axis_to_json(spec.gox_vbds));
  out.set("gox_resistance", Json(spec.gox_resistance));
  out.set("max_attempts", Json(spec.max_attempts));
  out.set("threads", Json(spec.threads));
  out.set("solver", Json(analog::solver_mode_name(spec.solver)));
  out.set("technology", Json(tech::technology_name(spec.technology)));
  // Backend parameter packs travel only for the technology that reads them,
  // keeping sram6t frames byte-identical to the pre-technology protocol
  // (plus the one "technology" field).
  if (spec.technology == tech::Technology::SttMram)
    out.set("mtj", mtj_to_json(spec.mtj));
  if (spec.technology == tech::Technology::Undervolt)
    out.set("undervolt", undervolt_to_json(spec.undervolt));
  return out;
}

estimator::CharacterizeSpec characterize_spec_from_json(const Json& json) {
  estimator::CharacterizeSpec spec;
  const std::string name = json.at("test_name").as_string();
  const std::string notation = json.at("test_notation").as_string();
  if (name.empty() || name.size() > 256)
    throw ProtocolError("\"test_name\" must be 1..256 characters");
  if (notation.size() > 4096)
    throw ProtocolError("\"test_notation\" is too long");
  try {
    spec.test = march::parse_march(name, notation);
  } catch (const Error& e) {
    throw ProtocolError(std::string("bad \"test_notation\": ") + e.what());
  }
  spec.block.rows = static_cast<int>(int_field(json, "rows", 2, 4096, 2));
  spec.block.cols = static_cast<int>(int_field(json, "cols", 1, 4096, 1));
  spec.ate.steps_per_cycle =
      static_cast<int>(int_field(json, "steps_per_cycle", 8, 4096,
                                 spec.ate.steps_per_cycle));
  spec.vdds = axis_from_json(json, "vdds", /*require_positive=*/true);
  spec.periods = axis_from_json(json, "periods", /*require_positive=*/true);
  spec.bridge_resistances =
      axis_from_json(json, "bridge_resistances", /*require_positive=*/true);
  spec.open_resistances =
      axis_from_json(json, "open_resistances", /*require_positive=*/true);
  spec.gox_vbds = axis_from_json(json, "gox_vbds", /*require_positive=*/true);
  spec.gox_resistance = json.at("gox_resistance").as_number();
  if (!std::isfinite(spec.gox_resistance) || spec.gox_resistance <= 0.0)
    throw ProtocolError("\"gox_resistance\" must be finite and positive");
  spec.max_attempts =
      static_cast<int>(int_field(json, "max_attempts", 1, 10, 3));
  spec.threads = static_cast<int>(int_field(json, "threads", 0, 256, 1));
  // Absent field = batched, so frames that omit it keep their meaning.
  if (const Json* solver = json.find("solver")) {
    try {
      spec.solver = analog::parse_solver_mode(solver->as_string());
    } catch (const Error& e) {
      throw ProtocolError(std::string("bad \"solver\": ") + e.what());
    }
  }
  // Absent field = sram6t: pre-technology coordinators keep working against
  // new workers, and their shards land on the backend they always meant.
  if (const Json* technology = json.find("technology")) {
    try {
      spec.technology = tech::parse_technology(technology->as_string());
    } catch (const Error& e) {
      throw ProtocolError(std::string("bad \"technology\": ") + e.what());
    }
  }
  if (const Json* mtj = json.find("mtj")) {
    if (spec.technology != tech::Technology::SttMram)
      throw ProtocolError(
          "\"mtj\" parameters require \"technology\": \"stt_mram\"");
    spec.mtj = mtj_from_json(*mtj);
  }
  if (const Json* undervolt = json.find("undervolt")) {
    if (spec.technology != tech::Technology::Undervolt)
      throw ProtocolError(
          "\"undervolt\" parameters require \"technology\": \"undervolt\"");
    spec.undervolt = undervolt_from_json(*undervolt);
  }
  return spec;
}

Json study_config_to_json(const study::StudyConfig& config) {
  Json out = Json::object();
  out.set("device_count", Json(config.device_count));
  out.set("instances_per_chip", Json(config.instances_per_chip));
  out.set("bits_per_instance", Json(config.bits_per_instance));
  out.set("area_per_cell_um2", Json(config.area_per_cell_um2));
  out.set("slow_period", Json(config.slow_period));
  out.set("vlv_period", Json(config.vlv_period));
  out.set("fast_period", Json(config.fast_period));
  out.set("seed", Json(static_cast<long long>(config.seed)));
  out.set("threads", Json(config.threads));
  return out;
}

study::StudyConfig study_config_from_json(const Json& json) {
  study::StudyConfig config;
  config.device_count = int_field(json, "device_count", 1, 100000000,
                                  config.device_count);
  config.instances_per_chip = static_cast<int>(
      int_field(json, "instances_per_chip", 1, 1024, config.instances_per_chip));
  config.bits_per_instance = int_field(json, "bits_per_instance", 1,
                                       1LL << 40, config.bits_per_instance);
  config.area_per_cell_um2 = json.at("area_per_cell_um2").as_number();
  config.slow_period = json.at("slow_period").as_number();
  config.vlv_period = json.at("vlv_period").as_number();
  config.fast_period = json.at("fast_period").as_number();
  if (!std::isfinite(config.area_per_cell_um2) ||
      config.area_per_cell_um2 <= 0.0)
    throw ProtocolError("\"area_per_cell_um2\" must be finite and positive");
  for (const auto& [value, name] :
       {std::pair<double, const char*>{config.slow_period, "slow_period"},
        {config.vlv_period, "vlv_period"},
        {config.fast_period, "fast_period"}}) {
    if (!std::isfinite(value) || value <= 0.0)
      throw ProtocolError(std::string("\"") + name +
                          "\" must be finite and positive");
  }
  // Json numbers are doubles; a seed above 2^53 would not round-trip.
  const long long seed = int_field(json, "seed", 0, 1LL << 53, 2005);
  config.seed = static_cast<std::uint64_t>(seed);
  config.threads = static_cast<int>(int_field(json, "threads", 0, 256, 1));
  return config;
}

}  // namespace memstress::server
