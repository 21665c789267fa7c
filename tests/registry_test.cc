// Tests pinning the scheme registry (ISSUE 9 tentpole): spec names are the
// stable machine tokens every spec/CLI/manifest uses, capability flags match
// each scheme's contract, and every factory actually builds a sender policy
// whose state the soak digest sees.
#include "lb/registry.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/label_map.h"
#include "harness/experiment.h"
#include "sim/simulation.h"

namespace presto::lb {
namespace {

core::LabelMap make_labels(net::HostId dst, std::uint32_t trees) {
  core::LabelMap map;
  std::vector<net::MacAddr> labels;
  for (std::uint32_t t = 0; t < trees; ++t) {
    labels.push_back(net::shadow_mac(dst, t));
  }
  map.set_schedule(dst, labels);
  return map;
}

TEST(SchemeRegistry, SpecNamesAreUniqueAndRoundTrip) {
  std::set<std::string> names;
  for (const SchemeInfo& s : SchemeRegistry::instance().all()) {
    EXPECT_TRUE(names.insert(s.spec_name).second)
        << "duplicate spec name " << s.spec_name;
    EXPECT_NE(std::string(s.display), "") << s.spec_name;
    EXPECT_STREQ(scheme_spec_id(s.id), s.spec_name);
    EXPECT_STREQ(scheme_display_name(s.id), s.display);
    Scheme back = Scheme::kEcmp;
    ASSERT_TRUE(parse_scheme_id(s.spec_name, &back)) << s.spec_name;
    EXPECT_EQ(back, s.id) << s.spec_name;
  }
}

TEST(SchemeRegistry, EnumIndexesTheTableDirectly) {
  // info() relies on registration order == enum order; a new scheme
  // registered out of order would silently alias every lookup after it.
  const auto& all = SchemeRegistry::instance().all();
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(all[i].id), i) << all[i].spec_name;
  }
}

TEST(SchemeRegistry, UnknownNameFailsWithoutClobberingOutput) {
  EXPECT_EQ(SchemeRegistry::instance().find("warp"), nullptr);
  Scheme out = Scheme::kFlowlet;
  EXPECT_FALSE(parse_scheme_id("warp", &out));
  EXPECT_EQ(out, Scheme::kFlowlet);
}

TEST(SchemeRegistry, DifferentialSetMatchesFlags) {
  const SchemeRegistry& reg = SchemeRegistry::instance();
  const std::vector<Scheme> diff = reg.differential_schemes();
  const std::set<Scheme> got(diff.begin(), diff.end());
  // MPTCP and Optimal model different transport/queue semantics, so they are
  // not byte-for-byte comparable.
  EXPECT_EQ(got.count(Scheme::kMptcp), 0u);
  EXPECT_EQ(got.count(Scheme::kOptimal), 0u);
  // Every rival scheme from this issue participates.
  EXPECT_EQ(got.count(Scheme::kFlowDyn), 1u);
  EXPECT_EQ(got.count(Scheme::kDiffFlow), 1u);
  EXPECT_EQ(got.count(Scheme::kSprinklers), 1u);
  EXPECT_EQ(got.count(Scheme::kPresto), 1u);
  EXPECT_EQ(got.count(Scheme::kEcmp), 1u);
  for (Scheme s : diff) {
    EXPECT_TRUE(reg.info(s).differential_ok) << scheme_spec_id(s);
  }
}

TEST(SchemeRegistry, CapabilityFlagsMatchSchemeContracts) {
  const SchemeRegistry& reg = SchemeRegistry::instance();
  EXPECT_EQ(reg.info(Scheme::kPresto).rx, RxOffload::kPrestoGro);
  EXPECT_EQ(reg.info(Scheme::kDiffFlow).rx, RxOffload::kPrestoGro);
  EXPECT_EQ(reg.info(Scheme::kEcmp).rx, RxOffload::kOfficialGro);
  EXPECT_EQ(reg.info(Scheme::kFlowDyn).rx, RxOffload::kOfficialGro);
  EXPECT_EQ(reg.info(Scheme::kSprinklers).rx, RxOffload::kOfficialGro);
  EXPECT_TRUE(reg.info(Scheme::kMptcp).uses_mptcp_channel);
  EXPECT_TRUE(reg.info(Scheme::kOptimal).single_switch);
  // The fault-free in-order guarantee the kOrdering oracle arms on.
  EXPECT_TRUE(reg.info(Scheme::kEcmp).reordering_free);
  EXPECT_TRUE(reg.info(Scheme::kSprinklers).reordering_free);
  EXPECT_FALSE(reg.info(Scheme::kPresto).reordering_free);
  EXPECT_FALSE(reg.info(Scheme::kFlowDyn).reordering_free);
  EXPECT_FALSE(reg.info(Scheme::kDiffFlow).reordering_free);
}

TEST(SchemeRegistry, FactoriesBuildSenderPolicies) {
  sim::Simulation sim;
  const core::LabelMap labels = make_labels(1, 4);
  LbContext ctx;
  ctx.sim = &sim;
  ctx.labels = &labels;
  ctx.seed = 42;
  for (const SchemeInfo& s : SchemeRegistry::instance().all()) {
    if (s.single_switch) {
      // Plain real-MAC forwarding on the single switch: no policy to build.
      EXPECT_FALSE(static_cast<bool>(s.factory)) << s.spec_name;
      EXPECT_EQ(make_scheme_lb(s.id, ctx), nullptr) << s.spec_name;
      continue;
    }
    std::unique_ptr<SenderLb> policy = make_scheme_lb(s.id, ctx);
    ASSERT_NE(policy, nullptr) << s.spec_name;
    // Every built policy must survive a segment through the common path,
    // and the per-flow state it creates must reach the checkpoint digest.
    sim::Digest before;
    policy->digest_state(before);
    net::Packet p;
    p.flow = net::FlowKey{0, 1, 10000, 80};
    p.src_host = 0;
    p.dst_host = 1;
    p.payload = 1460;
    p.dst_mac = net::real_mac(1);
    policy->on_segment(p);
    sim::Digest after;
    policy->digest_state(after);
    EXPECT_NE(before.value(), after.value()) << s.spec_name;
  }
}

TEST(SchemeRegistry, HarnessNameAndExperimentGoThroughRegistry) {
  EXPECT_STREQ(harness::scheme_name(harness::Scheme::kSprinklers),
               "Sprinklers");
  // Building an experiment per scheme exercises the factory wiring end to
  // end (Experiment::make_lb resolves through make_scheme_lb).
  for (const SchemeInfo& s : SchemeRegistry::instance().all()) {
    harness::ExperimentConfig cfg;
    cfg.scheme = s.id;
    cfg.spines = 2;
    cfg.leaves = 2;
    cfg.hosts_per_leaf = 2;
    harness::Experiment ex(cfg);
    EXPECT_EQ(ex.servers().size(), 4u) << s.spec_name;
  }
}

}  // namespace
}  // namespace presto::lb
