#include "defects/sampler.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "layout/sram_layout.hpp"
#include "util/error.hpp"

namespace memstress::defects {
namespace {

using layout::BridgeCategory;
using layout::OpenCategory;

sram::BlockSpec block_2x1() {
  sram::BlockSpec spec;
  spec.rows = 2;
  spec.cols = 1;
  return spec;
}

SitePopulation extracted_population() {
  const auto model = layout::generate_sram_layout(8, 8);
  return aggregate_sites(layout::extract_bridges(model),
                         layout::extract_opens(model));
}

/// DefectSampler::sample as it was before the sampler kept templates: the
/// same draws in the same order, each defect built by representative_*.
struct ReferenceSampler {
  const DefectSampler& sampler;
  sram::BlockSpec spec;

  Defect sample(Rng& rng) const {
    const SitePopulation& population = sampler.population();
    const FabModel& fab = sampler.fab();
    std::vector<double> bridge_weights, open_weights;
    for (const auto& [cat, w] : population.bridges) bridge_weights.push_back(w);
    for (const auto& [cat, w] : population.opens) open_weights.push_back(w);
    const bool is_bridge =
        !bridge_weights.empty() &&
        (open_weights.empty() || rng.chance(fab.bridge_fraction));
    if (is_bridge) {
      const BridgeCategory category =
          population.bridges[rng.weighted_index(bridge_weights)].first;
      if (category == BridgeCategory::CellGateOxide) {
        Defect defect = representative_bridge(category, spec,
                                              fab.sample_gox_resistance(rng));
        defect.breakdown_v = fab.sample_gox_vbd(rng);
        return defect;
      }
      return representative_bridge(category, spec,
                                   fab.sample_bridge_resistance(rng));
    }
    const OpenCategory category =
        population.opens[rng.weighted_index(open_weights)].first;
    return representative_open(category, spec, fab.sample_open_resistance(rng));
  }

  Defect sample_mtj(Rng& rng) const {
    const double resistance = sampler.mtj_fab().sample_resistance(rng);
    return representative_mtj(sampler.mtj_fab().sample_category(rng), spec,
                              resistance);
  }
};

bool same_defect(const Defect& a, const Defect& b) {
  return a.kind == b.kind && a.net_a == b.net_a && a.net_b == b.net_b &&
         a.resistance == b.resistance && a.breakdown_v == b.breakdown_v &&
         a.bridge_category == b.bridge_category &&
         a.open_category == b.open_category &&
         a.mtj_category == b.mtj_category;
}

TEST(AggregateSites, SumsWeightsPerCategory) {
  std::vector<layout::BridgeSite> bridges(2);
  bridges[0].category = BridgeCategory::CellTrueFalse;
  bridges[0].weight = 1.0;
  bridges[1].category = BridgeCategory::CellTrueFalse;
  bridges[1].weight = 2.0;
  std::vector<layout::OpenSite> opens(1);
  opens[0].category = OpenCategory::Wordline;
  opens[0].weight = 0.5;
  const SitePopulation pop = aggregate_sites(bridges, opens);
  ASSERT_EQ(pop.bridges.size(), 1u);
  EXPECT_DOUBLE_EQ(pop.bridges[0].second, 3.0);
  EXPECT_DOUBLE_EQ(pop.bridge_weight_total(), 3.0);
  EXPECT_DOUBLE_EQ(pop.open_weight_total(), 0.5);
}

TEST(DefectSampler, DrawsEqualTheRepresentativeReference) {
  // A 2x1 block drops the bitline-bitline and address-address bridges; a
  // 4x2 block hosts every bridge category. Each draw must equal the
  // reference field by field, net names included, over one stream.
  sram::BlockSpec wide;
  wide.rows = 4;
  wide.cols = 2;
  for (const sram::BlockSpec& spec : {block_2x1(), wide}) {
    const DefectSampler sampler(extracted_population(), FabModel{}, spec);
    const ReferenceSampler reference{sampler, spec};
    Rng drawn(41), expected(41);
    for (int i = 0; i < 100000; ++i) {
      const Defect got = sampler.sample(drawn);
      const Defect want = reference.sample(expected);
      ASSERT_TRUE(same_defect(got, want))
          << "draw " << i << ": " << got.tag() << " vs " << want.tag();
    }
    EXPECT_EQ(drawn(), expected());
  }
}

TEST(DefectSampler, MtjDrawsEqualTheRepresentativeReference) {
  const DefectSampler sampler(MtjFabModel{}, block_2x1());
  const ReferenceSampler reference{sampler, block_2x1()};
  Rng drawn(43), expected(43);
  for (int i = 0; i < 100000; ++i) {
    const Defect got = sampler.sample(drawn);
    const Defect want = reference.sample_mtj(expected);
    ASSERT_TRUE(same_defect(got, want))
        << "draw " << i << ": " << got.tag() << " vs " << want.tag();
  }
  EXPECT_EQ(drawn(), expected());
}

TEST(DefectSampler, OpenWithoutARepresentativeThrowsOnlyWhenDrawn) {
  // An Other open has no representative site. A population holding one
  // still builds a sampler; only a draw that lands on it throws.
  SitePopulation population;
  population.bridges = {{BridgeCategory::CellTrueFalse, 1.0}};
  population.opens = {{OpenCategory::Other, 1.0}};
  const DefectSampler mixed(population, FabModel{}, block_2x1());
  Rng rng(31);
  int drawn = 0, thrown = 0;
  for (int i = 0; i < 200; ++i) {
    try {
      EXPECT_EQ(mixed.sample(rng).kind, DefectKind::Bridge);
      ++drawn;
    } catch (const Error&) {
      ++thrown;
    }
  }
  EXPECT_GT(drawn, 0);
  EXPECT_GT(thrown, 0);

  population.bridges.clear();
  const DefectSampler only_other(population, FabModel{}, block_2x1());
  EXPECT_THROW(only_other.sample(rng), Error);
}

TEST(DefectSampler, RejectsEmptyPopulation) {
  EXPECT_THROW(DefectSampler({}, FabModel{}, block_2x1()), Error);
}

TEST(DefectSampler, SamplesAreAlwaysInjectable) {
  DefectSampler sampler(extracted_population(), FabModel{}, block_2x1());
  const analog::Netlist golden = sram::build_block(block_2x1());
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    analog::Netlist nl = golden;
    const Defect d = sampler.sample(rng);
    EXPECT_NO_THROW(inject(nl, d)) << d.tag();
  }
}

TEST(DefectSampler, MixFollowsBridgeFraction) {
  FabModel fab;
  fab.bridge_fraction = 0.8;
  DefectSampler sampler(extracted_population(), fab, block_2x1());
  Rng rng(11);
  int bridges = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i)
    if (sampler.sample(rng).kind == DefectKind::Bridge) ++bridges;
  EXPECT_NEAR(bridges / static_cast<double>(n), 0.8, 0.03);
}

TEST(DefectSampler, GateOxideDefectsGetBreakdownVoltage) {
  DefectSampler sampler(extracted_population(), FabModel{}, block_2x1());
  Rng rng(13);
  bool saw_gox = false;
  for (int i = 0; i < 5000 && !saw_gox; ++i) {
    const Defect d = sampler.sample(rng);
    if (d.kind == DefectKind::Bridge &&
        d.bridge_category == BridgeCategory::CellGateOxide) {
      saw_gox = true;
      EXPECT_GT(d.breakdown_v, 0.0);
    } else if (d.kind == DefectKind::Bridge) {
      EXPECT_DOUBLE_EQ(d.breakdown_v, 0.0);
    }
  }
  EXPECT_TRUE(saw_gox);
}

TEST(DefectSampler, DropsCategoriesTheBlockCannotHost) {
  // 2x1 block with 1 address bit cannot host BitlineBitline or
  // AddressAddress bridges; the sampler must never produce them.
  DefectSampler sampler(extracted_population(), FabModel{}, block_2x1());
  Rng rng(17);
  for (int i = 0; i < 3000; ++i) {
    const Defect d = sampler.sample(rng);
    if (d.kind != DefectKind::Bridge) continue;
    EXPECT_NE(d.bridge_category, BridgeCategory::BitlineBitline);
    EXPECT_NE(d.bridge_category, BridgeCategory::AddressAddress);
  }
}

TEST(DefectSampler, DeterministicForSameSeed) {
  DefectSampler sampler(extracted_population(), FabModel{}, block_2x1());
  Rng a(23), b(23);
  for (int i = 0; i < 50; ++i) {
    const Defect da = sampler.sample(a);
    const Defect db = sampler.sample(b);
    EXPECT_EQ(da.tag(), db.tag());
  }
}

TEST(DefectSampler, CellCategoriesDominateTheMix) {
  // Per-cell sites outnumber per-row/column sites by construction; the
  // sampled population must reflect that.
  DefectSampler sampler(extracted_population(), FabModel{}, block_2x1());
  Rng rng(29);
  int cell_local = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const Defect d = sampler.sample(rng);
    const bool is_cell =
        (d.kind == DefectKind::Bridge &&
         (d.bridge_category == BridgeCategory::CellTrueFalse ||
          d.bridge_category == BridgeCategory::CellNodeBitline ||
          d.bridge_category == BridgeCategory::CellNodeVdd ||
          d.bridge_category == BridgeCategory::CellNodeGnd ||
          d.bridge_category == BridgeCategory::CellGateOxide)) ||
        (d.kind == DefectKind::Open &&
         d.open_category == OpenCategory::CellAccess);
    if (is_cell) ++cell_local;
  }
  EXPECT_GT(cell_local, n / 2);
}

}  // namespace
}  // namespace memstress::defects
