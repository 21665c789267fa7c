// Tests pinning the flowcell engine to Algorithm 1 and the label machinery.
#include "core/flowcell_engine.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/label_map.h"
#include "lb/ecmp_lb.h"
#include "lb/flowlet_lb.h"
#include "lb/per_packet_lb.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace presto::core {
namespace {

net::Packet seg(std::uint32_t payload, net::HostId dst = 1,
                std::uint32_t sport = 10000) {
  net::Packet p;
  p.flow = net::FlowKey{0, dst, sport, 80};
  p.src_host = 0;
  p.dst_host = dst;
  p.payload = payload;
  p.dst_mac = net::real_mac(dst);
  return p;
}

LabelMap make_labels(net::HostId dst, std::uint32_t trees) {
  LabelMap map;
  std::vector<net::MacAddr> labels;
  for (std::uint32_t t = 0; t < trees; ++t) {
    labels.push_back(net::shadow_mac(dst, t));
  }
  map.set_schedule(dst, labels);
  return map;
}

TEST(FlowcellEngine, SameLabelUntil64K) {
  LabelMap map = make_labels(1, 4);
  FlowcellEngine lb(map);
  // 64 KB worth of small segments must share one label + flowcell ID.
  net::Packet first = seg(16384);
  lb.on_segment(first);
  for (int i = 0; i < 3; ++i) {
    net::Packet p = seg(16384);
    lb.on_segment(p);
    EXPECT_EQ(p.dst_mac, first.dst_mac);
    EXPECT_EQ(p.flowcell_id, first.flowcell_id);
  }
  // Next segment crosses the 64 KB threshold: new label, next flowcell ID.
  net::Packet next = seg(16384);
  lb.on_segment(next);
  EXPECT_NE(next.dst_mac, first.dst_mac);
  EXPECT_EQ(next.flowcell_id, first.flowcell_id + 1);
}

TEST(FlowcellEngine, FullTsoSegmentPerFlowcell) {
  LabelMap map = make_labels(1, 4);
  FlowcellEngine lb(map);
  std::uint64_t prev_fc = 0;
  for (int i = 0; i < 8; ++i) {
    net::Packet p = seg(65536);
    lb.on_segment(p);
    EXPECT_EQ(p.flowcell_id, prev_fc + 1) << "each 64 KB = one flowcell";
    prev_fc = p.flowcell_id;
  }
}

TEST(FlowcellEngine, RoundRobinCyclesAllLabels) {
  LabelMap map = make_labels(1, 4);
  FlowcellEngine lb(map);
  std::set<net::MacAddr> used;
  for (int i = 0; i < 4; ++i) {
    net::Packet p = seg(65536);
    lb.on_segment(p);
    used.insert(p.dst_mac);
  }
  EXPECT_EQ(used.size(), 4u);  // all four trees visited before repeating
  net::Packet p = seg(65536);
  lb.on_segment(p);
  EXPECT_TRUE(used.count(p.dst_mac));
}

TEST(FlowcellEngine, EvenSpreadOverManyFlowcells) {
  LabelMap map = make_labels(1, 4);
  FlowcellEngine lb(map);
  std::map<net::MacAddr, int> counts;
  for (int i = 0; i < 400; ++i) {
    net::Packet p = seg(65536);
    lb.on_segment(p);
    ++counts[p.dst_mac];
  }
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [mac, n] : counts) EXPECT_EQ(n, 100);
}

TEST(FlowcellEngine, FlowsStartAtDifferentOffsets) {
  LabelMap map = make_labels(1, 4);
  FlowcellConfig cfg;
  cfg.seed = 77;
  FlowcellEngine lb(map, cfg);
  std::set<net::MacAddr> first_labels;
  for (std::uint32_t sport = 0; sport < 32; ++sport) {
    net::Packet p = seg(65536, 1, 20000 + sport);
    lb.on_segment(p);
    first_labels.insert(p.dst_mac);
  }
  EXPECT_GT(first_labels.size(), 1u);  // randomized initial cursor
}

TEST(FlowcellEngine, UnmanagedDestinationKeepsRealMac) {
  LabelMap map = make_labels(1, 4);
  FlowcellEngine lb(map);
  net::Packet p = seg(65536, /*dst=*/9);  // no schedule for host 9
  lb.on_segment(p);
  EXPECT_EQ(p.dst_mac, net::real_mac(9));
  EXPECT_GE(p.flowcell_id, 1u);  // flowcell IDs still assigned
}

TEST(FlowcellEngine, PerHopEcmpModeSetsSaltNotLabel) {
  LabelMap map = make_labels(1, 4);
  FlowcellConfig cfg;
  cfg.per_hop_ecmp = true;
  FlowcellEngine lb(map, cfg);
  net::Packet a = seg(65536);
  lb.on_segment(a);
  net::Packet b = seg(65536);
  lb.on_segment(b);
  EXPECT_EQ(a.dst_mac, net::real_mac(1));
  EXPECT_EQ(b.dst_mac, net::real_mac(1));
  EXPECT_EQ(a.ecmp_extra, a.flowcell_id);
  EXPECT_NE(a.ecmp_extra, b.ecmp_extra);
}

TEST(FlowcellEngine, WeightedScheduleHonoredByDuplication) {
  // Weights {0.25, 0.5, 0.25} as the sequence {p1, p2, p3, p2} (§3.3).
  LabelMap map;
  const net::MacAddr p1 = net::shadow_mac(1, 0);
  const net::MacAddr p2 = net::shadow_mac(1, 1);
  const net::MacAddr p3 = net::shadow_mac(1, 2);
  map.set_schedule(1, {p1, p2, p3, p2});
  FlowcellEngine lb(map);
  std::map<net::MacAddr, int> counts;
  for (int i = 0; i < 400; ++i) {
    net::Packet p = seg(65536);
    lb.on_segment(p);
    ++counts[p.dst_mac];
  }
  EXPECT_EQ(counts[p1], 100);
  EXPECT_EQ(counts[p2], 200);
  EXPECT_EQ(counts[p3], 100);
}

TEST(FlowcellEngine, ScheduleUpdateTakesEffect) {
  LabelMap map = make_labels(1, 4);
  FlowcellEngine lb(map);
  net::Packet p = seg(65536);
  lb.on_segment(p);
  // Controller prunes to a single tree (failure reconvergence).
  map.set_schedule(1, {net::shadow_mac(1, 2)});
  for (int i = 0; i < 8; ++i) {
    net::Packet q = seg(65536);
    lb.on_segment(q);
    EXPECT_EQ(q.dst_mac, net::shadow_mac(1, 2));
  }
}

TEST(FlowcellEngine, AcksConsumeHeaderBytes) {
  LabelMap map = make_labels(1, 4);
  FlowcellEngine lb(map);
  // Pure ACKs accumulate slowly; label should stay stable for many ACKs.
  net::Packet first = seg(0);
  first.is_ack = true;
  lb.on_segment(first);
  int switches = 0;
  net::MacAddr prev = first.dst_mac;
  for (int i = 0; i < 500; ++i) {
    net::Packet a = seg(0);
    a.is_ack = true;
    lb.on_segment(a);
    if (a.dst_mac != prev) {
      ++switches;
      prev = a.dst_mac;
    }
  }
  EXPECT_LE(switches, 1);  // 500 ACKs x 66 B = ~33 KB < 64 KB threshold
}

TEST(EcmpLb, OnePathPerFlowStableAcrossSegments) {
  LabelMap map = make_labels(1, 4);
  lb::EcmpLb ecmp(map, 42);
  net::Packet first = seg(65536);
  ecmp.on_segment(first);
  for (int i = 0; i < 50; ++i) {
    net::Packet p = seg(65536);
    ecmp.on_segment(p);
    EXPECT_EQ(p.dst_mac, first.dst_mac);
  }
}

TEST(EcmpLb, DifferentFlowsCanTakeDifferentPaths) {
  LabelMap map = make_labels(1, 4);
  lb::EcmpLb ecmp(map, 42);
  std::set<net::MacAddr> used;
  for (std::uint32_t sport = 0; sport < 64; ++sport) {
    net::Packet p = seg(65536, 1, 30000 + sport);
    ecmp.on_segment(p);
    used.insert(p.dst_mac);
  }
  EXPECT_EQ(used.size(), 4u);
}

TEST(FlowletLb, SwitchesOnlyAfterInactivityGap) {
  sim::Simulation sim;
  LabelMap map = make_labels(1, 4);
  const sim::Time gap = 500 * sim::kMicrosecond;
  lb::FlowletLb fl(sim, map,
                   {.default_gap = gap, .min_gap = gap, .max_gap = gap}, 42);
  net::Packet first = seg(65536);
  fl.on_segment(first);
  // Continuous traffic: same flowlet, same path.
  std::vector<net::MacAddr> macs;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(100 * sim::kMicrosecond, [] {});
    sim.run();
    net::Packet p = seg(65536);
    fl.on_segment(p);
    macs.push_back(p.dst_mac);
  }
  for (net::MacAddr m : macs) EXPECT_EQ(m, first.dst_mac);
  // A gap larger than the timer starts a new flowlet on the next path.
  sim.schedule(600 * sim::kMicrosecond, [] {});
  sim.run();
  net::Packet p = seg(65536);
  fl.on_segment(p);
  EXPECT_NE(p.dst_mac, first.dst_mac);
  EXPECT_EQ(fl.flowlet_count(p.flow), 2u);
}

TEST(PerPacketLb, RoundRobinsEveryPacket) {
  LabelMap map = make_labels(1, 4);
  lb::PerPacketLb pp(map, 42);
  EXPECT_TRUE(pp.per_packet());
  std::map<net::MacAddr, int> counts;
  for (int i = 0; i < 40; ++i) {
    net::Packet p = seg(1448);
    pp.on_segment(p);
    ++counts[p.dst_mac];
  }
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [mac, n] : counts) EXPECT_EQ(n, 10);
}

TEST(LabelMap, VersionBumpsOnUpdate) {
  LabelMap map;
  const std::uint64_t v0 = map.version();
  map.set_schedule(1, {net::shadow_mac(1, 0)});
  EXPECT_GT(map.version(), v0);
  EXPECT_NE(map.schedule(1), nullptr);
  EXPECT_EQ(map.schedule(2), nullptr);
  map.set_schedule(1, {});
  EXPECT_EQ(map.schedule(1), nullptr);  // empty = unmanaged
}

// Property test for the edge-suspicion quarantine state machine: random
// interleavings of dispatches, loss strikes (fast-retx and RTO), DSACK
// exonerations, and clock advances must (a) never deadlock steering — every
// segment gets a schedule label, and a quarantined label is only chosen when
// the whole schedule is quarantined — and (b) never leave a label
// permanently quarantined: once signals stop, every quarantine expires
// within `suspicion_max_hold` and round robin reaches all labels again.
TEST(FlowcellEngineQuarantine, RandomSignalsNeverDeadlockOrStickForever) {
  constexpr std::uint32_t kTrees = 4;
  for (std::uint64_t trial = 1; trial <= 24; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial seed " << trial);
    sim::Simulation sim;  // event-free: run_until() just advances the clock
    LabelMap map = make_labels(1, kTrees);
    FlowcellConfig cfg;
    cfg.path_suspicion = true;
    FlowcellEngine lb(map, cfg);
    lb.set_clock(&sim);

    std::set<net::MacAddr> schedule;
    for (std::uint32_t t = 0; t < kTrees; ++t) {
      schedule.insert(net::shadow_mac(1, t));
    }
    auto all_suspect_now = [&] {
      for (net::MacAddr label : schedule) {
        if (!lb.label_suspect(label)) return false;
      }
      return true;
    };

    std::uint64_t tap_dispatches = 0;
    lb.set_dispatch_tap([&](const net::FlowKey&, std::uint64_t,
                            net::MacAddr label, bool chosen_suspect,
                            bool all_suspect) {
      ++tap_dispatches;
      EXPECT_TRUE(schedule.count(label)) << "label off the schedule";
      EXPECT_TRUE(!chosen_suspect || all_suspect)
          << "steered onto a quarantined label while healthy ones existed";
    });

    sim::Rng rng(trial * 0x9E3779B97F4A7C15ULL + 1);
    const net::FlowKey flow{0, 1, 10000, 80};
    std::uint64_t sent = 0;
    sim::Time t = 0;
    std::uint64_t dispatches = 0;
    for (int step = 0; step < 400; ++step) {
      t += rng.below(3 * sim::kMillisecond);
      sim.run_until(t);
      switch (rng.below(6)) {
        case 0:
        case 1:
        case 2: {  // dispatch one full flowcell
          net::Packet p = seg(net::kMaxTsoBytes);
          p.seq = sent;
          sent += net::kMaxTsoBytes;
          const bool all_before = all_suspect_now();
          lb.on_segment(p);
          ++dispatches;
          ASSERT_TRUE(schedule.count(p.dst_mac))
              << "dispatch stalled / stamped an off-schedule label";
          if (!all_before) {
            EXPECT_FALSE(lb.label_suspect(p.dst_mac));
          }
          break;
        }
        case 3:  // fast-retransmit strike on a random recent byte
          lb.on_loss_signal(flow, sent > 0 ? rng.below(sent) : 0, false);
          break;
        case 4:  // RTO strike (quarantines immediately, 4x hold)
          lb.on_loss_signal(flow, sent > 0 ? rng.below(sent) : 0, true);
          break;
        case 5:  // DSACK exoneration
          lb.on_recovery_signal(flow);
          break;
      }
    }
    EXPECT_EQ(tap_dispatches, dispatches);

    // Quiet period: longer than the worst-case escalated hold. Everything
    // must come back, no matter what the random history looked like.
    t += cfg.suspicion_max_hold + 4 * cfg.suspicion_hold +
         sim::kMillisecond;
    sim.run_until(t);
    for (net::MacAddr label : schedule) {
      EXPECT_FALSE(lb.label_suspect(label)) << "label stuck in quarantine";
    }
    std::set<net::MacAddr> used;
    for (std::uint32_t i = 0; i < kTrees; ++i) {
      net::Packet p = seg(net::kMaxTsoBytes);
      p.seq = sent;
      sent += net::kMaxTsoBytes;
      lb.on_segment(p);
      used.insert(p.dst_mac);
    }
    EXPECT_EQ(used.size(), kTrees) << "round robin no longer covers labels";
  }
}

}  // namespace
}  // namespace presto::core
