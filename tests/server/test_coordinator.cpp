// Distributed building blocks below the chaos suite: the shard codecs, the
// `characterize_range` / `study_shard` handlers against direct library
// calls, the db_crc guard and the coordinator's configuration validation.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "march/library.hpp"
#include "server/coordinator.hpp"
#include "server/shard_codec.hpp"
#include "server_test_util.hpp"
#include "study/study.hpp"
#include "util/checkpoint.hpp"

namespace memstress::server {
namespace {

estimator::CharacterizeSpec tiny_spec() {
  estimator::CharacterizeSpec spec;
  spec.block.rows = 2;
  spec.block.cols = 1;
  spec.test = march::test_11n();
  spec.vdds = {1.0, 1.8};
  spec.periods = {100e-9};
  spec.bridge_resistances = {1e3};
  spec.open_resistances = {1e6};
  spec.gox_vbds = {1.7};
  spec.threads = 1;
  return spec;
}

TEST(ShardCodec, CharacterizeSpecRoundTripsWithEqualFingerprint) {
  estimator::CharacterizeSpec spec = tiny_spec();
  spec.solver = analog::SolverMode::Exact;
  spec.max_attempts = 5;
  const Json json = characterize_spec_to_json(spec);
  // Through the real wire representation, not just the document model.
  const estimator::CharacterizeSpec back =
      characterize_spec_from_json(Json::parse(json.dump()));
  EXPECT_EQ(estimator::spec_fingerprint(back),
            estimator::spec_fingerprint(spec));
  EXPECT_EQ(back.test.name, spec.test.name);
  EXPECT_EQ(back.vdds, spec.vdds);
  EXPECT_EQ(back.open_resistances, spec.open_resistances);
  EXPECT_EQ(back.max_attempts, spec.max_attempts);
  EXPECT_EQ(back.threads, spec.threads);
  EXPECT_EQ(back.solver, analog::SolverMode::Exact);
  EXPECT_TRUE(back.checkpoint_path.empty());
}

TEST(ShardCodec, StudyConfigRoundTrips) {
  study::StudyConfig config;
  config.device_count = 1234;
  config.seed = 424242;
  config.threads = 2;
  config.area_per_cell_um2 = 0.9;
  const study::StudyConfig back =
      study_config_from_json(Json::parse(study_config_to_json(config).dump()));
  EXPECT_EQ(back.device_count, config.device_count);
  EXPECT_EQ(back.seed, config.seed);
  EXPECT_EQ(back.threads, config.threads);
  EXPECT_EQ(back.area_per_cell_um2, config.area_per_cell_um2);
  EXPECT_EQ(back.slow_period, config.slow_period);
  EXPECT_TRUE(back.checkpoint_path.empty());
}

TEST(ShardCodec, RejectsMissingAndOutOfRangeFields) {
  const Json good = characterize_spec_to_json(tiny_spec());
  EXPECT_THROW(characterize_spec_from_json(Json::object()), ProtocolError);

  Json bad_rows = Json::parse(good.dump());
  bad_rows.set("rows", Json(100000));
  EXPECT_THROW(characterize_spec_from_json(bad_rows), ProtocolError);

  Json empty_axis = Json::parse(good.dump());
  empty_axis.set("vdds", Json::array());
  EXPECT_THROW(characterize_spec_from_json(empty_axis), ProtocolError);

  Json retired_solver = Json::parse(good.dump());
  retired_solver.set("solver", Json("incremental"));
  try {
    characterize_spec_from_json(retired_solver);
    ADD_FAILURE() << "\"solver\":\"incremental\" was accepted";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("bad \"solver\""), std::string::npos)
        << e.what();
  }

  Json bad_study = study_config_to_json(study::StudyConfig{});
  bad_study.set("device_count", Json(0));
  EXPECT_THROW(study_config_from_json(bad_study), ProtocolError);
}

TEST(ShardHandlers, CharacterizeRangeMatchesTheLibrary) {
  const auto service = make_test_service();
  const estimator::CharacterizeSpec spec = tiny_spec();
  const std::size_t points = estimator::characterize_grid(spec).size();
  ASSERT_GT(points, 2u);

  // Two shards covering the grid, executed by the handler; the direct
  // library sweep is the oracle.
  const std::vector<estimator::PointVerdict> direct =
      estimator::characterize_range(spec, 0, points);
  std::vector<long long> codes;
  for (const std::size_t begin : {std::size_t{0}, points / 2}) {
    const std::size_t end = begin == 0 ? points / 2 : points;
    Json params = Json::object();
    params.set("spec", characterize_spec_to_json(spec));
    params.set("begin", Json(begin));
    params.set("end", Json(end));
    const Json result = service->characterize_range(params, {});
    EXPECT_EQ(result.int_or("begin", -1), static_cast<long long>(begin));
    EXPECT_EQ(result.int_or("end", -1), static_cast<long long>(end));
    EXPECT_EQ(result.int_or("grid", 0), static_cast<long long>(points));
    for (const Json& v : result.at("verdicts").items())
      codes.push_back(static_cast<long long>(v.as_number()));
  }
  ASSERT_EQ(codes.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i)
    EXPECT_EQ(codes[i], direct[i].quarantined ? 2
                        : direct[i].detected  ? 1
                                              : 0)
        << "verdict mismatch at grid point " << i;
}

TEST(ShardHandlers, StudyShardMatchesTheLibraryAndGuardsTheDb) {
  const auto service = make_test_service();
  study::StudyConfig config;
  config.device_count = 64;
  config.seed = 7;
  config.threads = 1;
  const Json config_json = study_config_to_json(config);

  char crc[16];
  std::snprintf(crc, sizeof crc, "%08x",
                checkpoint::crc32(synthetic_server_db().to_csv()));

  Json params = Json::object();
  params.set("config", config_json);
  params.set("begin", Json(16));
  params.set("end", Json(48));
  params.set("db_crc", Json(std::string(crc)));
  const Json result = service->study_shard(params, {});
  const std::vector<Json>& masks = result.at("masks").items();
  ASSERT_EQ(masks.size(), 32u);

  // The same range straight from the library, with an identically
  // constructed sampler (make_test_service's construction is
  // deterministic).
  const auto model = layout::generate_sram_layout(8, 8);
  sram::BlockSpec block;
  block.rows = 2;
  block.cols = 1;
  defects::DefectSampler sampler(
      defects::aggregate_sites(layout::extract_bridges(model),
                               layout::extract_opens(model)),
      defects::FabModel{}, block);
  const std::vector<int> direct =
      study::run_study_range(config, synthetic_server_db(), sampler, 16, 48);
  for (std::size_t i = 0; i < direct.size(); ++i)
    EXPECT_EQ(static_cast<int>(masks[i].as_number()), direct[i]);

  // Wrong database fingerprint: structured rejection, not wrong numbers.
  params.set("db_crc", Json(std::string("00000000")));
  EXPECT_THROW(service->study_shard(params, {}), ProtocolError);
}

TEST(ShardHandlers, RejectsBadShardBounds) {
  const auto service = make_test_service();
  Json params = Json::object();
  params.set("config", study_config_to_json(study::StudyConfig{}));
  params.set("begin", Json(10));
  params.set("end", Json(5));
  EXPECT_THROW(service->study_shard(params, {}), ProtocolError);
  params.set("begin", Json(0));
  params.set("end", Json(10 * 1000 * 1000));
  EXPECT_THROW(service->study_shard(params, {}), ProtocolError);
}

TEST(Coordinator, ValidatesItsConfiguration) {
  EXPECT_THROW(Coordinator(CoordinatorConfig{}), Error);  // no workers

  CoordinatorConfig bad_port;
  bad_port.workers.push_back(WorkerEndpoint{"127.0.0.1", 0});
  EXPECT_THROW(Coordinator{bad_port}, Error);

  CoordinatorConfig bad_shards;
  bad_shards.workers.push_back(WorkerEndpoint{"127.0.0.1", 1234});
  bad_shards.characterize_shard_points = 0;
  EXPECT_THROW(Coordinator{bad_shards}, Error);

  CoordinatorConfig ok;
  ok.workers.push_back(WorkerEndpoint{"127.0.0.1", 1234});
  EXPECT_NO_THROW(Coordinator{ok});
}

}  // namespace
}  // namespace memstress::server
