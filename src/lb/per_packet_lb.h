// Per-packet spraying baseline (RPS/DRB style, §2.1).
//
// Round-robins every individual MTU packet across paths. The paper argues
// this cannot scale on fast networks because it defeats TSO/GRO; we include
// it for the granularity ablation.
#pragma once

#include <unordered_map>

#include "core/label_map.h"
#include "lb/sender_lb.h"
#include "net/flow_key.h"

namespace presto::lb {

class PerPacketLb final : public SenderLb {
 public:
  PerPacketLb(const core::LabelMap& labels, std::uint64_t seed)
      : labels_(labels), seed_(seed) {}

  bool per_packet() const override { return true; }

  void on_segment(net::Packet& pkt) override {
    const auto* sched = labels_.schedule(pkt.dst_host);
    if (sched == nullptr) return;
    FlowState& st = flows_[pkt.flow];
    if (!st.initialized) {
      st.initialized = true;
      st.cursor = start_path(pkt.flow, seed_, sched->size());
    }
    pkt.dst_mac = (*sched)[st.cursor % sched->size()];
    st.cursor = st.cursor + 1;
    // Every packet is its own "flowcell": receivers running Presto GRO would
    // see pathological boundaries, which is the point of the ablation.
    pkt.flowcell_id = ++st.packet_index;
  }

  void digest_state(sim::Digest& d) const override {
    for (const auto& [flow, st] : flows_) {
      sim::Digest sub;
      sub.mix(flow.hash());
      sub.mix(st.cursor);
      sub.mix(st.packet_index);
      d.mix_unordered(sub.value());
    }
  }

 private:
  struct FlowState {
    bool initialized = false;
    std::size_t cursor = 0;
    std::uint64_t packet_index = 0;
  };

  const core::LabelMap& labels_;
  std::uint64_t seed_;
  std::unordered_map<net::FlowKey, FlowState, net::FlowKeyHash> flows_;
};

}  // namespace presto::lb
