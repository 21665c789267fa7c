// Stock Linux GRO model ("Official GRO" in the paper).
//
// One in-progress segment per flow. An in-order packet (seq == segment end)
// merges; anything else forces the existing segment up the stack and starts a
// new one — which under reordering degenerates into pushing MTU-sized
// segments ("small segment flooding", §2.2, Figure 2). flush() pushes
// everything unconditionally.
#pragma once

#include <unordered_map>

#include "offload/gro.h"

namespace presto::offload {

class OfficialGro : public GroEngine {
 public:
  explicit OfficialGro(PushFn push) : GroEngine(std::move(push)) {}

  void on_packet(const net::Packet& p, sim::Time now) override;
  void flush(sim::Time now) override;
  bool has_held_segments() const override { return false; }
  std::size_t held_segments() const override { return gro_list_.size(); }

  void digest_state(sim::Digest& d) const override {
    for (const auto& [flow, s] : gro_list_) {
      sim::Digest sub;
      sub.mix(flow.hash());
      sub.mix(s.start_seq);
      sub.mix(s.end_seq);
      sub.mix(s.flowcell);
      d.mix_unordered(sub.value());
    }
  }

 private:
  std::unordered_map<net::FlowKey, Segment, net::FlowKeyHash> gro_list_;
};

}  // namespace presto::offload
