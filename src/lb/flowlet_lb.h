// Flowlet switching (§5 "Comparison to Flowlet Switching"), with FlowDyn's
// RTT-tracking gap (PAPERS.md: "FlowDyn", arXiv 1910.03324).
//
// A flowlet ends when the gap between consecutive segments of a flow exceeds
// the inactivity timer; each new flowlet takes the next path round-robin.
// As in the paper's OVS implementation, this is congestion-unaware and runs
// at the software edge; receivers use stock GRO.
//
// The timer is clamp(gap_factor * rtt_ewma, min_gap, max_gap), where each
// flow keeps an EWMA of the smoothed RTT its own TCP stack reports (via the
// host's on_ack_progress wiring); until the first RTT sample arrives
// `default_gap` applies. The paper's fixed-gap baseline is the
// default_gap == min_gap == max_gap case: the clamp pins every gap to it.
#pragma once

#include <algorithm>
#include <unordered_map>

#include "core/label_map.h"
#include "lb/sender_lb.h"
#include "net/flow_key.h"
#include "sim/simulation.h"

namespace presto::lb {

class FlowletLb final : public SenderLb {
 public:
  /// Defaults are FlowDyn's; the fixed-gap baseline sets all three gaps
  /// equal.
  struct Config {
    sim::Time default_gap = 500 * sim::kMicrosecond;  ///< Pre-RTT-sample gap.
    double gap_factor = 0.5;
    sim::Time min_gap = 50 * sim::kMicrosecond;
    sim::Time max_gap = 5 * sim::kMillisecond;
  };

  FlowletLb(sim::Simulation& sim, const core::LabelMap& labels, Config cfg,
            std::uint64_t seed)
      : sim_(sim), labels_(labels), cfg_(cfg), seed_(seed) {}

  void on_segment(net::Packet& seg) override {
    const auto* sched = labels_.schedule(seg.dst_host);
    if (sched == nullptr) return;
    FlowState& st = flows_[seg.flow];
    const sim::Time now = sim_.now();
    if (!st.initialized) {
      st.initialized = true;
      st.cursor = start_path(seg.flow, seed_, sched->size());
      ++st.flowlet_id;
    } else if (now - st.last_segment > gap_for(st)) {
      st.cursor = st.cursor + 1;  // new flowlet -> next path
      ++st.flowlet_id;
    }
    st.last_segment = now;
    seg.dst_mac = (*sched)[st.cursor % sched->size()];
    // Receivers have no use for the flowlet index; it lets observers
    // attribute bytes to flowlets (Figure 1 measures sizes at the uplink).
    seg.flowcell_id = st.flowlet_id;
  }

  void on_ack_progress(const net::FlowKey& flow, std::uint64_t acked,
                       sim::Time srtt) override {
    (void)acked;
    if (srtt <= 0) return;
    FlowState& st = flows_[flow];
    // Second-level EWMA over TCP's already-smoothed estimate: the gap should
    // track the path, not chase one inflated recovery sample.
    st.rtt_ewma = st.rtt_ewma == 0 ? srtt : (3 * st.rtt_ewma + srtt) / 4;
  }

  /// Gap currently applied to `flow` (diagnostics / tests).
  sim::Time current_gap(const net::FlowKey& flow) const {
    auto it = flows_.find(flow);
    return it == flows_.end() ? cfg_.default_gap : gap_for(it->second);
  }

  /// Flowlets observed so far for `flow` (diagnostics / Figure 1).
  std::uint64_t flowlet_count(const net::FlowKey& flow) const {
    auto it = flows_.find(flow);
    return it == flows_.end() ? 0 : it->second.flowlet_id;
  }

  void digest_state(sim::Digest& d) const override {
    for (const auto& [flow, st] : flows_) {
      sim::Digest sub;
      sub.mix(flow.hash());
      sub.mix(st.cursor);
      sub.mix(st.flowlet_id);
      sub.mix(static_cast<std::uint64_t>(st.last_segment));
      sub.mix(static_cast<std::uint64_t>(st.rtt_ewma));
      d.mix_unordered(sub.value());
    }
  }

 private:
  struct FlowState {
    bool initialized = false;
    sim::Time last_segment = 0;
    std::size_t cursor = 0;
    std::uint64_t flowlet_id = 0;
    sim::Time rtt_ewma = 0;  ///< 0 until the first RTT sample.
  };

  sim::Time gap_for(const FlowState& st) const {
    if (st.rtt_ewma == 0) return cfg_.default_gap;
    const auto scaled = static_cast<sim::Time>(
        cfg_.gap_factor * static_cast<double>(st.rtt_ewma));
    return std::clamp(scaled, cfg_.min_gap, cfg_.max_gap);
  }

  sim::Simulation& sim_;
  const core::LabelMap& labels_;
  Config cfg_;
  std::uint64_t seed_;
  std::unordered_map<net::FlowKey, FlowState, net::FlowKeyHash> flows_;
};

}  // namespace presto::lb
