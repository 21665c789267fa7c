// Tests for the non-Clos topology kinds (ISSUE 9): spec-token round-trips,
// the wiring each builder produces (asymmetric spine rates, oversubscribed
// fabric rates, the spineless leaf mesh with mirrored link records), and
// end-to-end delivery through an Experiment on every kind.
#include "net/topology.h"

#include <gtest/gtest.h>

#include <string>

#include "harness/experiment.h"

namespace presto::net {
namespace {

TEST(TopologyKind, SpecTokensRoundTrip) {
  for (TopologyKind k :
       {TopologyKind::kClos, TopologyKind::kAsymClos,
        TopologyKind::kOversubClos, TopologyKind::kLeafMesh}) {
    TopologyKind back = TopologyKind::kClos;
    ASSERT_TRUE(parse_topology_kind(topology_kind_id(k), &back))
        << topology_kind_id(k);
    EXPECT_EQ(back, k);
  }
  TopologyKind out = TopologyKind::kOversubClos;
  EXPECT_FALSE(parse_topology_kind("torus", &out));
  EXPECT_EQ(out, TopologyKind::kOversubClos);
}

TEST(Topology, SpineRateScaleSlowsOnlySelectedSpines) {
  sim::Simulation sim;
  TopoParams params;
  params.spine_rate_scale = {0.4, 1.0};
  auto topo = make_clos(sim, /*num_spines=*/2, /*num_leaves=*/2,
                        /*hosts_per_leaf=*/1, params);
  const double full = params.fabric_link.rate_bps;
  for (const FabricLink& fl : topo->fabric_links()) {
    const double want = fl.spine == topo->spines()[0] ? 0.4 * full : full;
    // Both directions of the cable run at the scaled rate.
    EXPECT_DOUBLE_EQ(
        topo->get_switch(fl.leaf).port(fl.leaf_port).config().rate_bps, want);
    EXPECT_DOUBLE_EQ(
        topo->get_switch(fl.spine).port(fl.spine_port).config().rate_bps,
        want);
  }
}

TEST(Topology, LeafMeshIsSpinelessAndFullyMeshedWithMirroredRecords) {
  sim::Simulation sim;
  TopoParams params;
  params.gamma = 2;
  auto topo = make_leaf_mesh(sim, /*num_leaves=*/4, /*hosts_per_leaf=*/2,
                             params);
  EXPECT_EQ(topo->switch_count(), 4u);
  EXPECT_EQ(topo->leaves().size(), 4u);
  EXPECT_TRUE(topo->spines().empty());
  EXPECT_EQ(topo->host_count(), 8u);
  // C(4,2) pairs x gamma cables, each recorded in both orientations so
  // controller/fault lookups find the link from either side.
  EXPECT_EQ(topo->fabric_links().size(), 6u * 2u * 2u);
  for (const FabricLink& fl : topo->fabric_links()) {
    EXPECT_NE(fl.leaf, fl.spine);
    const FabricLink* mirror =
        topo->find_fabric_link(fl.spine, fl.leaf, fl.group);
    ASSERT_NE(mirror, nullptr);
    // The mirrored record names the same physical ports, swapped.
    EXPECT_EQ(mirror->leaf_port, fl.spine_port);
    EXPECT_EQ(mirror->spine_port, fl.leaf_port);
  }
}

TEST(Experiment, OversubFoldsUplinkRatioIntoFabricRate) {
  harness::ExperimentConfig cfg;
  cfg.topology = TopologyKind::kOversubClos;
  cfg.spines = 2;
  cfg.leaves = 2;
  cfg.hosts_per_leaf = 4;
  harness::Experiment ex(cfg);
  // fabric = link_rate * hosts_per_leaf / (spines * F) = 10G * 4 / 8 = 5G.
  const FabricLink& fl = ex.topo().fabric_links().front();
  EXPECT_DOUBLE_EQ(
      ex.topo().get_switch(fl.leaf).port(fl.leaf_port).config().rate_bps,
      5e9);
}

TEST(Experiment, DeliversEndToEndOnEveryTopologyKind) {
  for (TopologyKind kind :
       {TopologyKind::kClos, TopologyKind::kAsymClos,
        TopologyKind::kOversubClos, TopologyKind::kLeafMesh}) {
    harness::ExperimentConfig cfg;
    cfg.topology = kind;
    cfg.scheme = harness::Scheme::kPresto;
    cfg.spines = 2;
    cfg.leaves = 3;
    cfg.hosts_per_leaf = 2;
    harness::Experiment ex(cfg);
    if (kind == TopologyKind::kLeafMesh) {
      EXPECT_TRUE(ex.topo().spines().empty());
    }
    // One cross-rack elephant; the far rack forces transit hops on the mesh.
    bool done = false;
    ex.add_elephant(0, 4, 300'000,
                    [&done](sim::Time) { done = true; });
    ex.sim().run_until(200 * sim::kMillisecond);
    EXPECT_TRUE(done) << "topology " << topology_kind_id(kind);
  }
}

TEST(Experiment, RivalSchemesDeliverOnTheAsymmetricFabric) {
  // The three rival schemes must complete transfers where path capacities
  // differ (the fabric fig20 sweeps them on).
  for (harness::Scheme s :
       {harness::Scheme::kFlowDyn, harness::Scheme::kDiffFlow,
        harness::Scheme::kSprinklers}) {
    harness::ExperimentConfig cfg;
    cfg.topology = TopologyKind::kAsymClos;
    cfg.scheme = s;
    cfg.spines = 2;
    cfg.leaves = 2;
    cfg.hosts_per_leaf = 2;
    harness::Experiment ex(cfg);
    bool done = false;
    ex.add_elephant(0, 2, 300'000,
                    [&done](sim::Time) { done = true; });
    ex.sim().run_until(200 * sim::kMillisecond);
    EXPECT_TRUE(done) << harness::scheme_name(s);
  }
}

}  // namespace
}  // namespace presto::net
