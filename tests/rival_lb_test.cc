// Unit tests for the rival load-balancer policies added in ISSUE 9:
// FlowDyn's RTT-tracking dynamic flowlet gap (FlowletLb with its default
// Config), DiffFlow's mice/elephant split and Sprinklers' ACK-gated
// variable-size striping.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/label_map.h"
#include "lb/diffflow_lb.h"
#include "lb/flowlet_lb.h"
#include "lb/sprinklers_lb.h"
#include "sim/simulation.h"

namespace presto::lb {
namespace {

net::Packet seg(std::uint64_t seq, std::uint32_t payload,
                net::HostId dst = 1, std::uint32_t sport = 10000) {
  net::Packet p;
  p.flow = net::FlowKey{0, dst, sport, 80};
  p.src_host = 0;
  p.dst_host = dst;
  p.seq = seq;
  p.payload = payload;
  p.dst_mac = net::real_mac(dst);
  return p;
}

core::LabelMap make_labels(net::HostId dst, std::uint32_t trees) {
  core::LabelMap map;
  std::vector<net::MacAddr> labels;
  for (std::uint32_t t = 0; t < trees; ++t) {
    labels.push_back(net::shadow_mac(dst, t));
  }
  map.set_schedule(dst, labels);
  return map;
}

/// Advances the virtual clock without any real events.
void advance(sim::Simulation& sim, sim::Time dt) {
  sim.run_until(sim.now() + dt);
}

// ---------------------------------------------------------------- FlowDyn
// The flowlet policy with its default (RTT-tracking) Config, as the
// registry's flowdyn row builds it.

TEST(FlowDynLb, FixedGapAppliesUntilFirstRttSample) {
  sim::Simulation sim;
  core::LabelMap map = make_labels(1, 4);
  FlowletLb::Config cfg;
  FlowletLb lb(sim, map, cfg, 1);
  net::Packet p = seg(0, 1460);
  EXPECT_EQ(lb.current_gap(p.flow), cfg.default_gap);
  lb.on_segment(p);
  EXPECT_EQ(lb.current_gap(p.flow), cfg.default_gap);
}

TEST(FlowDynLb, GapTracksRttEwmaWithClamp) {
  sim::Simulation sim;
  core::LabelMap map = make_labels(1, 4);
  FlowletLb::Config cfg;  // gap = clamp(0.5 * ewma, 50 us, 5 ms)
  FlowletLb lb(sim, map, cfg, 1);
  const net::FlowKey flow = seg(0, 1460).flow;

  lb.on_ack_progress(flow, 1460, 1 * sim::kMillisecond);
  EXPECT_EQ(lb.current_gap(flow), 500 * sim::kMicrosecond);

  // Converge the EWMA onto a tiny RTT: the gap clamps at min_gap.
  for (int i = 0; i < 64; ++i) {
    lb.on_ack_progress(flow, 1460, 10 * sim::kMicrosecond);
  }
  EXPECT_EQ(lb.current_gap(flow), cfg.min_gap);

  // And onto a huge one: clamps at max_gap.
  for (int i = 0; i < 64; ++i) {
    lb.on_ack_progress(flow, 1460, 100 * sim::kMillisecond);
  }
  EXPECT_EQ(lb.current_gap(flow), cfg.max_gap);

  // Zero/negative samples (no valid RTT yet) must not poison the EWMA.
  lb.on_ack_progress(flow, 1460, 0);
  EXPECT_EQ(lb.current_gap(flow), cfg.max_gap);
}

TEST(FlowDynLb, RotatesOnlyWhenIdleGapExceedsDynamicGap) {
  sim::Simulation sim;
  core::LabelMap map = make_labels(1, 4);
  FlowletLb lb(sim, map, FlowletLb::Config{}, 1);

  net::Packet first = seg(0, 1460);
  lb.on_segment(first);
  EXPECT_EQ(lb.flowlet_count(first.flow), 1u);

  // Drive the dynamic gap down to 50 us (min clamp), then pause 200 us —
  // beyond the dynamic gap but well below the 500 us fixed default, so the
  // rotation below only happens because the gap adapted.
  for (int i = 0; i < 64; ++i) {
    lb.on_ack_progress(first.flow, 1460, 10 * sim::kMicrosecond);
  }
  advance(sim, 20 * sim::kMicrosecond);  // under the gap: same flowlet
  net::Packet same = seg(1460, 1460);
  lb.on_segment(same);
  EXPECT_EQ(same.dst_mac, first.dst_mac);
  EXPECT_EQ(lb.flowlet_count(first.flow), 1u);

  advance(sim, 200 * sim::kMicrosecond);  // over the gap: new flowlet
  net::Packet next = seg(2920, 1460);
  lb.on_segment(next);
  EXPECT_NE(next.dst_mac, first.dst_mac);
  EXPECT_EQ(lb.flowlet_count(first.flow), 2u);
  EXPECT_EQ(next.flowcell_id, same.flowcell_id + 1);
}

// --------------------------------------------------------------- DiffFlow

TEST(DiffFlowLb, MiceKeepTheirHashedPath) {
  core::LabelMap map = make_labels(1, 4);
  DiffFlowLb::Config cfg;
  cfg.threshold_bytes = 64 * 1024;
  cfg.cell_bytes = 16 * 1024;
  DiffFlowLb lb(map, cfg, 7);

  // 48 KB over three cells: below the elephant threshold, so the label never
  // moves even though cell IDs advance from the first byte.
  net::MacAddr label{};
  for (int i = 0; i < 3; ++i) {
    net::Packet p = seg(static_cast<std::uint64_t>(i) * 16384, 16384);
    lb.on_segment(p);
    if (i == 0) label = p.dst_mac;
    EXPECT_EQ(p.dst_mac, label) << "cell " << i;
    EXPECT_EQ(p.flowcell_id, static_cast<std::uint64_t>(i) + 1);
  }
  EXPECT_FALSE(lb.is_elephant(seg(0, 0).flow));
  EXPECT_EQ(lb.cell_count(seg(0, 0).flow), 3u);
}

TEST(DiffFlowLb, ElephantsSprayRoundRobinPastTheThreshold) {
  core::LabelMap map = make_labels(1, 4);
  DiffFlowLb::Config cfg;
  cfg.threshold_bytes = 32 * 1024;
  cfg.cell_bytes = 16 * 1024;
  DiffFlowLb lb(map, cfg, 7);

  std::vector<net::MacAddr> cell_labels;
  for (int i = 0; i < 6; ++i) {
    net::Packet p = seg(static_cast<std::uint64_t>(i) * 16384, 16384);
    lb.on_segment(p);
    cell_labels.push_back(p.dst_mac);
  }
  EXPECT_TRUE(lb.is_elephant(seg(0, 0).flow));
  // The mice prefix shares one label; once sprayed, consecutive cells take
  // consecutive labels (round robin over 4 trees never repeats adjacently).
  EXPECT_EQ(cell_labels[0], cell_labels[1]);
  EXPECT_NE(cell_labels[3], cell_labels[4]);
  EXPECT_NE(cell_labels[4], cell_labels[5]);
  // Spraying walks the whole schedule, not a subset.
  const std::set<net::MacAddr> sprayed(cell_labels.begin() + 2,
                                       cell_labels.end());
  EXPECT_GE(sprayed.size(), 3u);
}

TEST(DiffFlowLb, PureAckStreamsNeverBecomeElephants) {
  core::LabelMap map = make_labels(1, 4);
  DiffFlowLb lb(map, DiffFlowLb::Config{}, 7);
  net::MacAddr label{};
  for (int i = 0; i < 4096; ++i) {
    net::Packet p = seg(0, 0, 1, 20000);  // payload 0 = pure ACK
    lb.on_segment(p);
    if (i == 0) label = p.dst_mac;
    ASSERT_EQ(p.dst_mac, label);
  }
  EXPECT_FALSE(lb.is_elephant(seg(0, 0, 1, 20000).flow));
}

// ------------------------------------------------------------- Sprinklers

TEST(SprinklersLb, StripeSizesArePowersOfTwoCellsAndDeterministic) {
  core::LabelMap map = make_labels(1, 4);
  SprinklersLb::Config cfg;
  cfg.cell_bytes = 16 * 1024;
  cfg.min_cells = 1;
  cfg.max_cells = 8;
  SprinklersLb a(map, cfg, 99);
  SprinklersLb b(map, cfg, 99);
  const net::FlowKey flow = seg(0, 0).flow;
  std::set<std::uint64_t> sizes;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::uint64_t bytes = a.stripe_bytes(flow, i);
    EXPECT_EQ(bytes, b.stripe_bytes(flow, i)) << "stripe " << i;
    const std::uint64_t cells = bytes / cfg.cell_bytes;
    EXPECT_EQ(cells * cfg.cell_bytes, bytes);
    EXPECT_GE(cells, cfg.min_cells);
    EXPECT_LE(cells, cfg.max_cells);
    EXPECT_EQ(cells & (cells - 1), 0u) << "stripe " << i << ": " << cells;
    sizes.insert(bytes);
  }
  // Variable-size striping: the hash actually spans {1, 2, 4, 8} cells.
  EXPECT_EQ(sizes.size(), 4u);
}

TEST(SprinklersLb, RotationWaitsForBudgetAndAckGate) {
  core::LabelMap map = make_labels(1, 4);
  SprinklersLb::Config cfg;
  cfg.cell_bytes = 16 * 1024;
  cfg.min_cells = 1;
  cfg.max_cells = 1;  // every stripe = exactly 16 KB
  SprinklersLb lb(map, cfg, 5);

  net::Packet first = seg(0, 16384);
  lb.on_segment(first);
  EXPECT_EQ(lb.stripe_count(first.flow), 1u);

  // Budget spent but 16 KB still in flight: the label must hold.
  net::Packet held = seg(16384, 16384);
  lb.on_segment(held);
  EXPECT_EQ(held.dst_mac, first.dst_mac);
  EXPECT_EQ(held.flowcell_id, first.flowcell_id);
  EXPECT_EQ(lb.stripe_count(first.flow), 1u);

  // Partial ACK is not enough — rotation needs in-flight empty.
  lb.on_ack_progress(first.flow, 16384, sim::kMillisecond);
  net::Packet still = seg(32768, 1460);
  lb.on_segment(still);
  EXPECT_EQ(still.dst_mac, first.dst_mac);

  // Everything dispatched so far is cumulatively ACKed: next fresh segment
  // starts the next stripe on the next label.
  lb.on_ack_progress(first.flow, 34228, sim::kMillisecond);
  net::Packet next = seg(34228, 1460);
  lb.on_segment(next);
  EXPECT_NE(next.dst_mac, first.dst_mac);
  EXPECT_EQ(next.flowcell_id, first.flowcell_id + 1);
  EXPECT_EQ(lb.stripe_count(first.flow), 2u);
}

TEST(SprinklersLb, RetransmissionsRideTheCurrentLabelWithoutAdvancing) {
  core::LabelMap map = make_labels(1, 4);
  SprinklersLb::Config cfg;
  cfg.cell_bytes = 16 * 1024;
  cfg.min_cells = 1;
  cfg.max_cells = 1;
  SprinklersLb lb(map, cfg, 5);

  net::Packet first = seg(0, 16384);
  lb.on_segment(first);
  // A retransmission of the whole stripe: stamped with the current label but
  // it must not count toward the stripe budget or the dispatch frontier.
  net::Packet retx = seg(0, 16384);
  retx.is_retx = true;
  lb.on_segment(retx);
  EXPECT_EQ(retx.dst_mac, first.dst_mac);
  EXPECT_EQ(lb.stripe_count(first.flow), 1u);

  // After the ACK gate opens, exactly one rotation is pending (the retx did
  // not spend a second budget).
  lb.on_ack_progress(first.flow, 16384, sim::kMillisecond);
  net::Packet next = seg(16384, 1460);
  lb.on_segment(next);
  EXPECT_NE(next.dst_mac, first.dst_mac);
  EXPECT_EQ(lb.stripe_count(first.flow), 2u);
}

}  // namespace
}  // namespace presto::lb
