// ECMP baseline: one random end-to-end path per flow.
//
// Mirrors the paper's methodology (§4): "ECMP is implemented by enumerating
// all possible end-to-end paths and randomly selecting a path for each flow."
// Paths are the controller's spanning-tree labels, so collisions happen
// exactly as with switch hash collisions.
#pragma once

#include <unordered_map>

#include "core/label_map.h"
#include "lb/sender_lb.h"
#include "net/flow_key.h"
#include "sim/rng.h"

namespace presto::lb {

class EcmpLb final : public SenderLb {
 public:
  EcmpLb(const core::LabelMap& labels, std::uint64_t seed)
      : labels_(labels), rng_(seed) {}

  void on_segment(net::Packet& seg) override {
    const auto* sched = labels_.schedule(seg.dst_host);
    if (sched == nullptr) return;  // unmanaged destination: real MAC routing
    auto [it, inserted] = path_.try_emplace(seg.flow, net::kInvalidMac);
    if (inserted ||
        std::find(sched->begin(), sched->end(), it->second) == sched->end()) {
      it->second = (*sched)[rng_.below(sched->size())];
    }
    seg.dst_mac = it->second;
  }

  void digest_state(sim::Digest& d) const override {
    for (const auto& [flow, mac] : path_) {
      sim::Digest sub;
      sub.mix(flow.hash());
      sub.mix(mac);
      d.mix_unordered(sub.value());
    }
  }

 private:
  const core::LabelMap& labels_;
  sim::Rng rng_;
  std::unordered_map<net::FlowKey, net::MacAddr, net::FlowKeyHash> path_;
};

}  // namespace presto::lb
