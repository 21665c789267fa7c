// Tests for the invariant-oracle subsystem: clean runs stay clean, planted
// bugs are caught and attributed, the shrinker minimizes reproducers, and
// scenario specs round-trip exactly.
#include <gtest/gtest.h>

#include <string>

#include "check/oracle.h"
#include "check/scenario.h"
#include "check/shrink.h"

namespace presto::check {
namespace {

TEST(CheckScenario, CleanRunHasNoViolations) {
  Scenario sc = Scenario::generate(7);
  RunOutcome out = run_scenario(sc);
  EXPECT_TRUE(out.ok) << out.report;
  EXPECT_TRUE(out.drained);
  EXPECT_GT(out.frames_delivered, 0u);
}

TEST(CheckScenario, CleanRunWithFaultsHasNoViolations) {
  // A fault plan exercises the drop-attribution half of conservation and
  // the degraded topology checks; the run must still audit clean.
  Scenario sc;
  sc.seed = 11;
  sc.scheme = harness::Scheme::kPresto;
  sc.edge_suspicion = true;
  sc.flows = {{0, 2, 400'000}, {1, 3, 250'000}};
  sc.rpcs = {{2, 0, 4'096, 2}};
  sc.fault_units = {"down@10ms leaf=2 spine=0; up@40ms leaf=2 spine=0",
                    "degrade@5ms leaf=3 spine=1 loss_bad=0.3; "
                    "heal@60ms leaf=3 spine=1"};
  RunOutcome out = run_scenario(sc);
  EXPECT_TRUE(out.ok) << out.report;
  EXPECT_TRUE(out.drained);
}

TEST(CheckOracle, PlantedFrameEaterTripsConservation) {
  Scenario sc = Scenario::generate(0);
  sc.bug = "eat:40";
  RunOutcome out = run_scenario(sc);
  ASSERT_FALSE(out.ok);
  EXPECT_TRUE(out.has_kind(OracleKind::kConservation)) << out.report;
  // The report names the per-flow and per-tree books that went out of
  // balance, so a human can see *where* the frame vanished.
  EXPECT_NE(out.report.find("conservation"), std::string::npos);
}

TEST(CheckOracle, TinyCapReportsLiveness) {
  // One elephant that cannot possibly finish in 100 us: the run does not
  // drain, and the liveness oracle says so instead of a silent pass.
  Scenario sc;
  sc.seed = 3;
  sc.flows = {{0, 2, 10'000'000}};
  sc.cap = 100 * sim::kMicrosecond;
  RunOutcome out = run_scenario(sc);
  ASSERT_FALSE(out.ok);
  EXPECT_FALSE(out.drained);
  EXPECT_TRUE(out.has_kind(OracleKind::kLiveness)) << out.report;
}

TEST(CheckShrink, MinimizesPlantedBugToTinyReproducer) {
  // The shrinker demo: a planted conservation bug on a generated scenario
  // must minimize to at most two workload items and at most one fault
  // unit, and the minimal spec must still reproduce after a serialize/
  // parse round trip. (eat:8 rather than a later frame so a single
  // minimum-size flow still reaches the eaten ordinal.)
  Scenario sc = Scenario::generate(0);
  sc.bug = "eat:8";
  RunOutcome out = run_scenario(sc);
  ASSERT_FALSE(out.ok);

  ShrinkResult res = shrink(sc, out.first_kind);
  EXPECT_TRUE(res.shrunk);
  EXPECT_FALSE(res.outcome.ok);
  EXPECT_TRUE(res.outcome.has_kind(OracleKind::kConservation));
  EXPECT_LE(res.minimal.flows.size() + res.minimal.rpcs.size(), 2u);
  EXPECT_LE(res.minimal.fault_units.size(), 1u);

  Scenario replayed;
  std::string err;
  ASSERT_TRUE(Scenario::parse(res.minimal.to_string(), &replayed, &err))
      << err;
  RunOutcome again = run_scenario(replayed);
  EXPECT_FALSE(again.ok);
  EXPECT_TRUE(again.has_kind(OracleKind::kConservation));
}

TEST(CheckScenario, SpecRoundTripsExactly) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Scenario sc = Scenario::generate(seed);
    const std::string spec = sc.to_string();
    Scenario back;
    std::string err;
    ASSERT_TRUE(Scenario::parse(spec, &back, &err))
        << "seed " << seed << ": " << err;
    EXPECT_EQ(back.to_string(), spec) << "seed " << seed;
  }
}

TEST(CheckScenario, ParseRejectsGarbage) {
  Scenario out;
  std::string err;
  EXPECT_FALSE(Scenario::parse("seed=1 scheme=warp", &out, &err));
  EXPECT_FALSE(Scenario::parse("seed=1 topo=torus", &out, &err));
  EXPECT_FALSE(Scenario::parse("flows=9-9:100", &out, &err));
  EXPECT_FALSE(Scenario::parse("seed=", &out, &err));
}

TEST(CheckScenario, TopoAndRivalSchemesRoundTripThroughTheSpec) {
  Scenario sc;
  sc.seed = 21;
  sc.scheme = harness::Scheme::kSprinklers;
  sc.topo = net::TopologyKind::kAsymClos;
  sc.flows = {{0, 2, 500'000}};
  const std::string spec = sc.to_string();
  EXPECT_NE(spec.find("scheme=sprinklers"), std::string::npos) << spec;
  EXPECT_NE(spec.find("topo=asym"), std::string::npos) << spec;

  Scenario back;
  std::string err;
  ASSERT_TRUE(Scenario::parse(spec, &back, &err)) << err;
  EXPECT_EQ(back.scheme, harness::Scheme::kSprinklers);
  EXPECT_EQ(back.topo, net::TopologyKind::kAsymClos);
  EXPECT_EQ(back.to_string(), spec);

  // Clos specs omit the topo key entirely, so pre-registry reproducer
  // lines keep replaying verbatim.
  sc.topo = net::TopologyKind::kClos;
  EXPECT_EQ(sc.to_string().find("topo="), std::string::npos);
}

TEST(CheckScenario, GeneratorDrawsRivalSchemesAndTopologies) {
  // The fuzzer's scheme/topology coverage: within a modest seed range every
  // rival scheme and every non-Clos topology kind must appear at least once.
  bool flowdyn = false, diffflow = false, sprinklers = false;
  bool asym = false, oversub = false, mesh = false;
  for (std::uint64_t seed = 0; seed < 128; ++seed) {
    const Scenario sc = Scenario::generate(seed);
    flowdyn = flowdyn || sc.scheme == harness::Scheme::kFlowDyn;
    diffflow = diffflow || sc.scheme == harness::Scheme::kDiffFlow;
    sprinklers = sprinklers || sc.scheme == harness::Scheme::kSprinklers;
    asym = asym || sc.topo == net::TopologyKind::kAsymClos;
    oversub = oversub || sc.topo == net::TopologyKind::kOversubClos;
    mesh = mesh || sc.topo == net::TopologyKind::kLeafMesh;
    if (sc.topo == net::TopologyKind::kLeafMesh) {
      // Fault plans use Clos switch numbering; the mesh generates without.
      EXPECT_TRUE(sc.fault_units.empty()) << "seed " << seed;
    }
  }
  EXPECT_TRUE(flowdyn);
  EXPECT_TRUE(diffflow);
  EXPECT_TRUE(sprinklers);
  EXPECT_TRUE(asym);
  EXPECT_TRUE(oversub);
  EXPECT_TRUE(mesh);
}

}  // namespace
}  // namespace presto::check
