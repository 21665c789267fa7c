// Figure 1: flowlet size distribution of a bulk transfer vs number of
// competing flows, using a 500 us inactivity timer (plus the 100 us
// observations quoted in §2.1).
//
// Setup mirrors the paper: one sender runs an scp-like bulk transfer to a
// receiver on the same switch while 0-8 nuttcp-like competing flows target
// the same receiver. The paper transfers 1 GB; we scale to 50 MB (the
// flowlet-size *distribution shape* is driven by ACK-clock burst dynamics,
// not absolute volume — DESIGN.md records the substitution).
//
// Paper result: flowlet sizes are wildly non-uniform — with <= 3 competing
// flows, more than half the transfer rides in a single flowlet; with a
// 100 us timer 90% of flowlets are <= 114 KB yet 0.1% exceed 1 MB, and a
// lone 50 KB mice flow splits into 4-5 flowlets.

#include <algorithm>
#include <map>

#include "bench_util.h"
#include "lb/flowlet_lb.h"
#include "net/tap.h"

using namespace presto;
using namespace presto::bench;

namespace {

constexpr std::uint64_t kTransferBytes = 50'000'000;

/// Flowlet sizes of one flow, measured where the sender's uplink is handed
/// each frame: payload bytes summed per flowlet index (the policy stamps it
/// as the flowcell id). Frames the uplink rejects count too, as do
/// zero-payload ones, so every flowlet the policy opened appears.
class FlowletSizeTap final : public net::WireTap {
 public:
  explicit FlowletSizeTap(const net::FlowKey& flow) : flow_(flow) {}

  void on_port_enqueue(std::uint32_t, net::PortId,
                       const net::Packet& p) override {
    add(p);
  }
  void on_drop(std::uint32_t, net::PortId, const net::Packet& p,
               net::TapDropCause cause) override {
    // Only enqueue-time rejections: later drops were counted on enqueue.
    if (cause == net::TapDropCause::kQueueFull ||
        cause == net::TapDropCause::kLinkDown) {
      add(p);
    }
  }

  std::vector<std::uint64_t> sizes() const {
    std::vector<std::uint64_t> out;
    for (const auto& [id, bytes] : bytes_) out.push_back(bytes);
    return out;
  }

 private:
  void add(const net::Packet& p) {
    if (p.flow == flow_) bytes_[p.flowcell_id] += p.payload;
  }

  net::FlowKey flow_;
  std::map<std::uint64_t, std::uint64_t> bytes_;  ///< flowlet id -> bytes
};

std::vector<std::uint64_t> measure_flowlets(int competing, sim::Time gap,
                                            std::uint64_t* mice_flowlets) {
  harness::ExperimentConfig cfg;
  cfg.scheme = harness::Scheme::kFlowlet;
  cfg.lb.flowlet_gap = gap;
  cfg.spines = 1;
  cfg.leaves = 1;
  cfg.hosts_per_leaf = 10;  // sender, receiver, up to 8 competitors
  cfg.seed = 42;
  harness::Experiment ex(cfg);

  const net::HostId sender = 0, receiver = 9;
  FlowletSizeTap tap(net::FlowKey{sender, receiver, 10000, 80});
  ex.host(sender).set_tap(&tap);
  bool done = false;
  auto& transfer = ex.add_elephant(sender, receiver, kTransferBytes,
                                   [&done](sim::Time) { done = true; });
  (void)transfer;
  for (int c = 0; c < competing; ++c) {
    ex.add_elephant(static_cast<net::HostId>(1 + c), receiver, 0);
  }
  // A lone mice flow for the 100 us splitting observation.
  net::HostId mice_src = 8;
  auto mice_flow = ex.alloc_flow(mice_src, receiver);
  if (mice_flowlets != nullptr) {
    auto& snd = ex.host(mice_src).create_sender(mice_flow);
    ex.host(receiver).create_receiver(mice_flow);
    snd.app_write(50'000);
  }

  const sim::Time deadline = scaled(3 * sim::kSecond);
  while (!done && ex.sim().now() < deadline) {
    ex.sim().run_until(ex.sim().now() + 10 * sim::kMillisecond);
  }

  if (mice_flowlets != nullptr) {
    auto* mice_lb = dynamic_cast<lb::FlowletLb*>(ex.host(mice_src).lb());
    *mice_flowlets = mice_lb->flowlet_count(mice_flow);
  }
  return tap.sizes();
}

}  // namespace

int main(int argc, char** argv) {
  JsonReporter json("fig01_flowlet_sizes", argc, argv);
  json.note_run_config(seed_count(), time_scale());
  std::printf(
      "Figure 1: top-10 flowlet sizes (MB) of a %.0f MB transfer,\n"
      "500 us inactivity timer, vs competing flows\n\n",
      kTransferBytes / 1e6);
  std::printf("%-6s %-9s %-8s %s\n", "comp.", "flowlets", "top1/total",
              "top-10 sizes (MB)");
  for (int competing = 0; competing <= 8; ++competing) {
    auto sizes = measure_flowlets(competing, 500 * sim::kMicrosecond,
                                  nullptr);
    std::sort(sizes.rbegin(), sizes.rend());
    std::uint64_t total = 0;
    for (auto s : sizes) total += s;
    if (json.enabled()) {
      harness::SweepResult sweep;
      for (auto s : sizes) sweep.fct_ms.add(static_cast<double>(s));
      harness::ExperimentConfig cfg;
      cfg.scheme = harness::Scheme::kFlowlet;
      json.set_point("competing=" + std::to_string(competing),
                     {{"competing", static_cast<double>(competing)},
                      {"flowlets", static_cast<double>(sizes.size())}});
      json.record(cfg, sweep);
    }
    std::printf("%-6d %-9zu %-8.2f", competing, sizes.size(),
                total ? static_cast<double>(sizes.empty() ? 0 : sizes[0]) /
                            static_cast<double>(total)
                      : 0.0);
    for (std::size_t i = 0; i < std::min<std::size_t>(10, sizes.size());
         ++i) {
      std::printf(" %6.1f", sizes[i] / 1e6);
    }
    std::printf("\n");
    std::fflush(stdout);
  }

  // 100 us observations (§2.1).
  std::uint64_t mice_flowlets = 0;
  auto sizes100 =
      measure_flowlets(3, 100 * sim::kMicrosecond, &mice_flowlets);
  stats::Samples s100;
  std::uint64_t over_1mb = 0, largest = 0;
  for (auto s : sizes100) {
    s100.add(static_cast<double>(s));
    if (s > 1'000'000) ++over_1mb;
    largest = std::max(largest, s);
  }
  std::printf(
      "\n100 us timer (3 competing flows): %zu flowlets, p90 size %.0f KB, "
      "%.2f%% > 1 MB, largest %.1f MB\n",
      s100.count(), s100.percentile(90) / 1e3,
      s100.empty() ? 0.0
                   : 100.0 * static_cast<double>(over_1mb) /
                         static_cast<double>(s100.count()),
      largest / 1e6);
  std::printf("lone 50 KB mice flow split into %llu flowlets "
              "(paper: 4-5 with 100 us timer)\n",
              (unsigned long long)mice_flowlets);
  return 0;
}
