// DiffFlow short/long differentiation (PAPERS.md: "DiffFlow", arXiv
// 1604.05107).
//
// Mice keep their hashed ECMP path — a short flow's few segments gain
// nothing from spraying and risk reordering its whole FCT away. Once a flow
// has carried `threshold_bytes` it is an elephant and its subsequent
// flowcells are sprayed round robin, Presto-style. Flowcell IDs advance on
// cell boundaries from the first byte (mice included) so receivers run
// Presto GRO and the mice->elephant transition needs no receiver-side mode
// switch. Pure-ACK reverse flows never cross the threshold, so ACK streams
// stay single-path.
#pragma once

#include <unordered_map>

#include "core/label_map.h"
#include "lb/sender_lb.h"
#include "net/flow_key.h"
#include "net/packet.h"

namespace presto::lb {

class DiffFlowLb final : public SenderLb {
 public:
  struct Config {
    std::uint64_t threshold_bytes = 100 * 1024;  ///< Elephant boundary.
    std::uint32_t cell_bytes = net::kMaxTsoBytes;
  };

  DiffFlowLb(const core::LabelMap& labels, Config cfg, std::uint64_t seed)
      : labels_(labels), cfg_(cfg), seed_(seed) {}

  void on_segment(net::Packet& seg) override {
    const auto* sched = labels_.schedule(seg.dst_host);
    if (sched == nullptr) return;
    FlowState& st = flows_[seg.flow];
    if (!st.initialized) {
      st.initialized = true;
      st.hash_cursor = start_path(seg.flow, seed_, sched->size());
      // Spraying starts from the hashed slot, so the first sprayed cell
      // continues the mice path and the transition never jumps backwards.
      st.spray_cursor = st.hash_cursor;
    }
    const bool elephant = st.total_bytes >= cfg_.threshold_bytes;
    if (st.cell_bytes >= cfg_.cell_bytes) {
      st.cell_bytes = 0;
      ++st.cell_id;
      if (elephant) ++st.spray_cursor;
    }
    st.cell_bytes += seg.payload;
    st.total_bytes += seg.payload;
    const std::size_t cursor = elephant ? st.spray_cursor : st.hash_cursor;
    seg.dst_mac = (*sched)[cursor % sched->size()];
    // 1-based like FlowcellEngine: Presto GRO treats the ID as an opaque
    // monotone cell marker.
    seg.flowcell_id = st.cell_id + 1;
  }

  /// True once `flow` crossed the elephant threshold (diagnostics / tests).
  bool is_elephant(const net::FlowKey& flow) const {
    auto it = flows_.find(flow);
    return it != flows_.end() && it->second.total_bytes >= cfg_.threshold_bytes;
  }

  /// Flowcells started so far for `flow` (diagnostics / tests).
  std::uint64_t cell_count(const net::FlowKey& flow) const {
    auto it = flows_.find(flow);
    return it == flows_.end() ? 0 : it->second.cell_id + 1;
  }

  void digest_state(sim::Digest& d) const override {
    for (const auto& [flow, st] : flows_) {
      sim::Digest sub;
      sub.mix(flow.hash());
      sub.mix(st.total_bytes);
      sub.mix(st.cell_bytes);
      sub.mix(st.cell_id);
      sub.mix(st.spray_cursor);
      d.mix_unordered(sub.value());
    }
  }

 private:
  struct FlowState {
    bool initialized = false;
    std::size_t hash_cursor = 0;
    std::size_t spray_cursor = 0;
    std::uint64_t total_bytes = 0;
    std::uint64_t cell_bytes = 0;
    std::uint64_t cell_id = 0;
  };

  const core::LabelMap& labels_;
  Config cfg_;
  std::uint64_t seed_;
  std::unordered_map<net::FlowKey, FlowState, net::FlowKeyHash> flows_;
};

}  // namespace presto::lb
