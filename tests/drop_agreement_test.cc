// Drop accounting agrees across every channel that reports it.
//
// One small experiment runs with metrics, the fabric monitors and a
// counting WireTap all on, and is driven into every port/switch drop cause:
// drop-tail, Gilbert–Elliott loss, corruption, a link that is down at
// enqueue, a link that goes down under a queued frame, and a frame no
// switch can route. For each cause the port counters (PortCounters,
// no_route_drops, ring_drops), the tap, the registry counters and the
// fabric PortReports must report the same number, because one fan-out per
// drop site feeds them all.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "harness/experiment.h"
#include "net/tap.h"
#include "telemetry/fabric/monitor.h"

namespace presto {
namespace {

using net::TapDropCause;
using Counts = std::array<std::uint64_t, net::kTapDropCauses>;

std::size_t idx(TapDropCause c) { return static_cast<std::size_t>(c); }

/// Counts drops by cause, split into switch-owned and host-owned sites.
class CountingTap : public net::WireTap {
 public:
  void on_drop(std::uint32_t node, net::PortId port, const net::Packet& p,
               TapDropCause cause) override {
    (void)port;
    (void)p;
    ++((node & net::kHostNodeBit) != 0 ? host : fabric)[idx(cause)];
  }
  Counts fabric{};
  Counts host{};
};

TEST(DropAgreement, EveryChannelCountsEveryCauseTheSame) {
  harness::ExperimentConfig cfg;
  cfg.scheme = harness::Scheme::kPresto;
  cfg.spines = 2;
  cfg.leaves = 2;
  cfg.hosts_per_leaf = 4;
  cfg.seed = 21;
  cfg.switch_buffer_bytes = 64 * 1024;  // drop-tail under the incast
  cfg.telemetry.metrics = true;
  cfg.telemetry.fabric.monitors = true;
  // Switch ids: spines 0-1, leaves 2-3. Loss and corruption on one
  // leaf-spine link, and a second link that goes down under load.
  cfg.fault_plan =
      "degrade@1ms leaf=2 spine=0 loss_good=0.02 corrupt=0.02;"
      "down@1500us leaf=3 spine=1; up@8ms leaf=3 spine=1";
  harness::Experiment ex(cfg);
  net::Topology& topo = ex.topo();

  CountingTap tap;
  for (net::SwitchId s = 0; s < topo.switch_count(); ++s) {
    topo.get_switch(s).set_tap(&tap);
  }
  for (net::HostId h = 0; h < topo.host_count(); ++h) {
    ex.host(h).set_tap(&tap);
  }

  // Cross-fabric elephants plus a three-way incast onto host 4.
  for (net::HostId h = 0; h < 4; ++h) ex.add_elephant(h, h + 4);
  for (net::HostId h = 5; h < 8; ++h) ex.add_elephant(h, 4);
  // A frame for a host that does not exist: its leaf has no route.
  ex.sim().schedule_at(2 * sim::kMillisecond, [&ex] {
    net::Packet stray;
    stray.dst_host = 999;
    stray.dst_mac = net::real_mac(999);
    stray.payload = 100;
    ex.host(0).uplink().enqueue(stray);
  });
  ex.sim().run_until(12 * sim::kMillisecond);

  // Channel 1: the port counters and the switch/host drop accessors.
  Counts fabric_reports{};
  std::uint64_t port_other = 0;  // queue-full + link-down (not split)
  std::uint64_t loss_model = 0;
  std::uint64_t corrupt = 0;
  std::uint64_t no_route = 0;
  std::uint64_t monitor_no_route = 0;
  for (net::SwitchId s = 0; s < topo.switch_count(); ++s) {
    const net::Switch& sw = topo.get_switch(s);
    const net::PortCounters c = sw.total_counters();
    port_other += c.dropped_packets - c.loss_model_drops - c.corrupt_drops;
    loss_model += c.loss_model_drops;
    corrupt += c.corrupt_drops;
    no_route += sw.no_route_drops();
    // Channel 4: the fabric monitors.
    const telemetry::fabric::SwitchMonitor* mon =
        ex.fabric_plane()->monitor(s);
    ASSERT_NE(mon, nullptr);
    monitor_no_route += mon->no_route_drops();
    for (std::size_t i = 0; i < mon->port_count(); ++i) {
      const auto& drops = mon->port(i)->raw().drops;
      for (std::size_t k = 0; k < drops.size(); ++k) {
        fabric_reports[k] += drops[k];
      }
    }
  }
  std::uint64_t ring = 0;
  for (net::HostId h = 0; h < topo.host_count(); ++h) {
    ring += ex.host(h).ring_drops();
  }

  // Channel 3: the registry counters (kLinkDownTx feeds link_down).
  const telemetry::Snapshot snap = ex.telemetry()->snapshot();
  const auto counter = [&snap](const char* name) {
    return snap.counters.at(name);
  };

  // Every cause the test is built to produce actually happened.
  const Counts& t = tap.fabric;
  for (TapDropCause c :
       {TapDropCause::kQueueFull, TapDropCause::kLinkDown,
        TapDropCause::kLinkDownTx, TapDropCause::kLossModel,
        TapDropCause::kCorrupt, TapDropCause::kNoRoute}) {
    EXPECT_GT(t[idx(c)], 0u) << net::tap_drop_cause_name(c);
  }
  EXPECT_EQ(t[idx(TapDropCause::kHostRing)], 0u);

  // Per cause: tap == fabric monitor (ports; no-route on the switch
  // monitor).
  for (std::size_t k = 0; k < net::kTapDropCauses; ++k) {
    const auto c = static_cast<TapDropCause>(k);
    if (c == TapDropCause::kHostRing) continue;
    const std::uint64_t mon =
        c == TapDropCause::kNoRoute ? monitor_no_route : fabric_reports[k];
    EXPECT_EQ(mon, t[k]) << net::tap_drop_cause_name(c);
  }

  // Port counters, at the split they keep.
  EXPECT_EQ(loss_model, t[idx(TapDropCause::kLossModel)]);
  EXPECT_EQ(corrupt, t[idx(TapDropCause::kCorrupt)]);
  EXPECT_EQ(port_other, t[idx(TapDropCause::kQueueFull)] +
                            t[idx(TapDropCause::kLinkDown)] +
                            t[idx(TapDropCause::kLinkDownTx)]);
  EXPECT_EQ(no_route, t[idx(TapDropCause::kNoRoute)]);
  EXPECT_EQ(ring, tap.host[idx(TapDropCause::kHostRing)]);

  // Registry counters.
  EXPECT_EQ(counter("net.port.dropped.queue_full"),
            t[idx(TapDropCause::kQueueFull)]);
  EXPECT_EQ(counter("net.port.dropped.link_down"),
            t[idx(TapDropCause::kLinkDown)] +
                t[idx(TapDropCause::kLinkDownTx)]);
  EXPECT_EQ(counter("net.port.dropped.loss_model"),
            t[idx(TapDropCause::kLossModel)]);
  EXPECT_EQ(counter("net.port.dropped.corrupt"),
            t[idx(TapDropCause::kCorrupt)]);
  EXPECT_EQ(counter("net.switch.dropped.no_route"),
            t[idx(TapDropCause::kNoRoute)]);
}

}  // namespace
}  // namespace presto
