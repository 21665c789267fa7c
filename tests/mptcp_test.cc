// MPTCP tests: coupled controller math, scheduling/reassembly, reinjection.
#include "lb/mptcp.h"

#include <gtest/gtest.h>

#include "sim/rng.h"

#include "test_util.h"

namespace presto::lb {
namespace {

using test::TwoHostRig;

TEST(CoupledGroup, AlphaSingleSubflowIsOne) {
  CoupledGroup g;
  g.add_member(100000);
  g.member(0).srtt_s = 0.001;
  // For one subflow: total * (w/r^2) / (w/r)^2 = total * 1/w = 1.
  EXPECT_NEAR(g.alpha(), 1.0, 1e-9);
}

TEST(CoupledGroup, AlphaCapsAggregateAggression) {
  CoupledGroup g;
  for (int i = 0; i < 8; ++i) {
    g.add_member(100000);
    g.member(i).srtt_s = 0.001;
  }
  // Equal windows and RTTs: alpha = 1/N so the aggregate behaves like one
  // TCP flow (LIA's design goal).
  EXPECT_NEAR(g.alpha(), 1.0 / 8, 1e-9);
}

TEST(CoupledCc, LossHalvesOnlyThatSubflow) {
  auto g = std::make_shared<CoupledGroup>();
  const std::size_t m0 = g->add_member(100000);
  const std::size_t m1 = g->add_member(100000);
  CoupledCc cc0(g, m0);
  CoupledCc cc1(g, m1);
  cc0.on_loss_event(0);
  EXPECT_NEAR(cc0.cwnd_bytes(), 50000, 1);
  EXPECT_NEAR(cc1.cwnd_bytes(), 100000, 1);
}

TEST(Mptcp, TransfersAllBytesInOrder) {
  TwoHostRig rig;
  MptcpConfig cfg;
  MptcpConnection conn(rig.sim, *rig.a, *rig.b, rig.flow(), cfg);
  std::vector<std::uint64_t> progress;
  conn.set_on_delivered([&](std::uint64_t d) { progress.push_back(d); });
  conn.send(5 * 1000 * 1000);
  rig.sim.run_until(100 * sim::kMillisecond);
  EXPECT_EQ(conn.delivered(), 5u * 1000 * 1000);
  // Progress must be monotonic.
  for (std::size_t i = 1; i < progress.size(); ++i) {
    EXPECT_GE(progress[i], progress[i - 1]);
  }
  EXPECT_EQ(conn.subflow_count(), 8u);
}

TEST(Mptcp, UsesMultipleSubflows) {
  TwoHostRig rig;
  MptcpConnection conn(rig.sim, *rig.a, *rig.b, rig.flow());
  conn.send(10 * 1000 * 1000);
  rig.sim.run_until(100 * sim::kMillisecond);
  int active = 0;
  for (std::uint32_t i = 0; i < 8; ++i) {
    net::FlowKey k = rig.flow();
    k.src_port += i;
    auto* snd = rig.a->find_sender(k);
    ASSERT_NE(snd, nullptr);
    if (snd->acked_bytes() > 0) ++active;
  }
  EXPECT_GE(active, 4);
}

TEST(Mptcp, SmallSendsComplete) {
  TwoHostRig rig;
  MptcpConnection conn(rig.sim, *rig.a, *rig.b, rig.flow());
  conn.send(50000);
  rig.sim.run_until(50 * sim::kMillisecond);
  EXPECT_EQ(conn.delivered(), 50000u);
  conn.send(64);
  rig.sim.run_until(100 * sim::kMillisecond);
  EXPECT_EQ(conn.delivered(), 50064u);
}

TEST(Mptcp, ReinjectionUnblocksDeadSubflowChunks) {
  TwoHostRig rig;
  MptcpConfig cfg;
  cfg.reinject_after = 20 * sim::kMillisecond;
  cfg.watchdog_interval = 5 * sim::kMillisecond;
  MptcpConnection conn(rig.sim, *rig.a, *rig.b, rig.flow(), cfg);
  // Kill one subflow's data path entirely: without reinjection the
  // connection-level stream would stall forever at its first chunk.
  const std::uint32_t dead_port = rig.flow().src_port + 3;
  rig.a_to_b->set_filter([dead_port](const net::Packet& p) {
    return p.flow.src_port != dead_port;
  });
  conn.send(3 * 1000 * 1000);
  rig.sim.run_until(2 * sim::kSecond);
  EXPECT_EQ(conn.delivered(), 3u * 1000 * 1000);
}

TEST(Mptcp, StatsAggregateSubflows) {
  TwoHostRig rig;
  MptcpConnection conn(rig.sim, *rig.a, *rig.b, rig.flow());
  // Random 2% loss: some retransmissions must be recorded.
  auto rng = std::make_shared<sim::Rng>(5);
  rig.a_to_b->set_filter([rng](const net::Packet& p) {
    return p.is_ack || rng->below(100) >= 2;
  });
  conn.send(5 * 1000 * 1000);
  rig.sim.run_until(2 * sim::kSecond);
  EXPECT_EQ(conn.delivered(), 5u * 1000 * 1000);
  EXPECT_GT(conn.stats().retransmitted_bytes, 0u);
}

}  // namespace
}  // namespace presto::lb
