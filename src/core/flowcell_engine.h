// Presto's sender datapath: flowcell creation + shadow-MAC round robin.
//
// Direct implementation of Algorithm 1: a per-flow byte counter groups
// consecutive segments into <= 64 KB flowcells; each flowcell is assigned the
// next shadow MAC in the destination's schedule (round robin), and a
// sequentially increasing flowcell ID is stamped on every segment so the
// receiver's GRO can distinguish loss from reordering (§3.1-3.2).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>

#include "core/label_map.h"
#include "lb/sender_lb.h"
#include "net/flow_key.h"
#include "sim/simulation.h"
#include "sim/time.h"
#include "telemetry/probes.h"

namespace presto::core {

struct FlowcellConfig {
  /// Flowcell size threshold; the paper uses the maximum TSO size (64 KB).
  std::uint32_t threshold_bytes = net::kMaxTsoBytes;
  /// Seed for each flow's initial position in the round-robin schedule
  /// (randomized per flow so independent senders do not synchronize).
  std::uint64_t seed = 1;
  /// When true (the "Presto + ECMP" per-hop variant, §5/Figure 14), leave
  /// the real destination MAC in place and export the flowcell ID as the
  /// per-hop ECMP hash salt instead of selecting an end-to-end label.
  bool per_hop_ecmp = false;
  /// Ablation: pick a uniformly random label per flowcell instead of round
  /// robin. The paper argues round robin spreads flowcells more evenly
  /// (§2.1 "Per-Hop vs End-to-End Multipathing").
  bool random_selection = false;

  /// Edge graceful degradation (beyond the paper, gated off by default so
  /// paper-faithful runs are unchanged): TCP loss signals mark the labels a
  /// flow recently sprayed on as suspect, and dispatch steers round-robin
  /// traffic off suspect labels until their quarantine expires. The edge
  /// thus reacts in ~1 RTT/RTO instead of waiting out the controller's
  /// reaction delay (§3.4/§5.4's blackhole window).
  bool path_suspicion = false;
  /// Base quarantine after a fast-retransmit signal; an RTO signal (a
  /// stronger indictment) quarantines 4x as long. Repeated strikes double
  /// the hold up to FlowcellEngine::kSuspicionMaxHold.
  sim::Time suspicion_hold = 5 * sim::kMillisecond;
};

class FlowcellEngine final : public lb::SenderLb {
 public:
  /// Ceiling of an escalated suspicion hold.
  static constexpr sim::Time kSuspicionMaxHold = 320 * sim::kMillisecond;

  /// `labels` may outlive this engine; the controller mutates it on failures.
  FlowcellEngine(const LabelMap& labels, FlowcellConfig cfg = {})
      : labels_(labels), cfg_(cfg) {}

  void on_segment(net::Packet& seg) override;

  /// TCP loss signal: blame the label that carried the hole's byte range.
  void on_loss_signal(const net::FlowKey& flow, std::uint64_t hole_seq,
                      bool timeout) override;
  /// DSACK undo: exonerate the label the flow's last signal blamed.
  void on_recovery_signal(const net::FlowKey& flow) override;

  /// Total flowcells started across all flows (diagnostics).
  std::uint64_t flowcells_created() const { return flowcells_created_; }

  /// True if `label` is currently quarantined by the suspicion tracker.
  bool label_suspect(net::MacAddr label) const;

  /// Folds per-flow flowcell cursors and label-quarantine state into a
  /// checkpoint state digest (src/check/soak).
  void digest_state(sim::Digest& d) const override;

  /// Checker tap observing every end-to-end label dispatch: flow, flowcell
  /// id, the chosen label, whether that label was quarantined at dispatch
  /// time, and whether *every* label in the schedule was (the only state in
  /// which dispatching on a quarantined label is legitimate). Null disables;
  /// not consulted in per-hop ECMP mode (no label is chosen there).
  using DispatchTap =
      std::function<void(const net::FlowKey& flow, std::uint64_t cell,
                         net::MacAddr label, bool chosen_suspect,
                         bool all_suspect)>;
  void set_dispatch_tap(DispatchTap tap) { dispatch_tap_ = std::move(tap); }

  /// Supplies the clock used for suspicion quarantine timing and trace
  /// timestamps (null => time 0, i.e. suspicion never expires by itself).
  void set_clock(const sim::Simulation* clock) { clock_ = clock; }

  /// Attaches telemetry probes (null disables). `clock` supplies event
  /// timestamps; trace events use time 0 when it is null.
  void attach_telemetry(const telemetry::FlowcellProbes* probes,
                        const sim::Simulation* clock = nullptr) {
    telem_ = probes;
    if (clock != nullptr) clock_ = clock;
  }

  /// End-of-run publication of per-flow aggregates (cells per flow) into the
  /// attached histogram; no-op when telemetry is disabled.
  void publish_telemetry() const {
    if (telem_ == nullptr) return;
    for (const auto& [flow, st] : flows_) {
      telem_->cells_per_flow->add(static_cast<double>(st.flowcell_id));
    }
  }

 private:
  struct FlowState {
    std::uint64_t bytecount = 0;
    std::uint64_t flowcell_id = 1;
    std::size_t cursor = 0;
    bool initialized = false;
    std::uint64_t map_version = 0;
    /// Ring of recently started flowcells, (first byte seq -> label), so a
    /// loss signal can blame exactly the label that carried the hole.
    /// Newest record sits at `ring_head - 1`; retransmitted ranges re-enter
    /// the ring with the label of their latest attempt.
    struct CellRecord {
      std::uint64_t seq = 0;
      net::MacAddr label = net::kInvalidMac;
    };
    std::array<CellRecord, 8> recent_cells{};
    std::uint8_t ring_head = 0;
    std::uint64_t last_noted_cell = ~0ULL;
    /// Causal span of the current flowcell (0 = this cell not sampled).
    std::uint32_t span = 0;
    std::uint64_t span_cell = ~0ULL;
    /// Label blamed by this flow's most recent loss signal (for undo).
    net::MacAddr last_blamed = net::kInvalidMac;
  };

  /// Per-label quarantine state (shared across flows and destinations:
  /// a label names one spanning tree's path into one destination).
  struct LabelHealth {
    sim::Time suspect_until = 0;
    std::uint32_t strikes = 0;
    sim::Time last_signal = 0;
  };

  sim::Time now() const { return clock_ != nullptr ? clock_->now() : 0; }
  void blame_label(net::MacAddr label, bool timeout);
  /// Opens/extends the causal span of the segment's flowcell and stamps
  /// `seg.span_id` (sampled cells only).
  void trace_dispatch(FlowState& st, net::Packet& seg);
  void note_dispatched_cell(FlowState& st, std::uint64_t cell,
                            std::uint64_t seq, net::MacAddr label);
  /// Label of the newest recorded cell whose range covers `hole_seq` (the
  /// oldest record as a fallback when the hole predates the ring).
  net::MacAddr label_for_seq(const FlowState& st,
                             std::uint64_t hole_seq) const;

  const LabelMap& labels_;
  FlowcellConfig cfg_;
  std::unordered_map<net::FlowKey, FlowState, net::FlowKeyHash> flows_;
  std::unordered_map<net::MacAddr, LabelHealth> health_;
  std::uint64_t flowcells_created_ = 0;
  const telemetry::FlowcellProbes* telem_ = nullptr;
  const sim::Simulation* clock_ = nullptr;
  DispatchTap dispatch_tap_;
};

}  // namespace presto::core
