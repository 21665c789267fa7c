// Sprinklers-style randomized variable-size striping (PAPERS.md:
// "Sprinklers", arXiv 1407.0006), made reordering-free by construction.
//
// Each flow is cut into stripes; stripe sizes are hashed per (flow, stripe
// index) from the powers of two in [min_cells, max_cells] flowcells, so
// independent flows de-synchronize without any shared state. All packets of
// a stripe carry the same label — hence the same spanning-tree path, hence
// FIFO delivery — and the label only rotates when (a) the current stripe's
// byte budget is spent AND (b) every byte dispatched so far has been
// cumulatively ACKed (nothing in flight). Rotating only at in-flight-empty
// instants means two labels of one flow are never in flight concurrently,
// so fault-free delivery is in-order by construction: the invariant the
// kOrdering oracle checks. The cost is path agility — a backlogged elephant
// defers its rotation until the pipe drains — which is exactly the
// trade-off this rival scheme contributes to the comparison.
#pragma once

#include <algorithm>
#include <unordered_map>

#include "core/label_map.h"
#include "lb/sender_lb.h"
#include "net/flow_key.h"
#include "net/packet.h"

namespace presto::lb {

class SprinklersLb final : public SenderLb {
 public:
  struct Config {
    std::uint32_t cell_bytes = net::kMaxTsoBytes;
    std::uint32_t min_cells = 1;  ///< Smallest stripe, in flowcells.
    std::uint32_t max_cells = 8;  ///< Largest stripe (power-of-two multiple
                                  ///< of min_cells).
  };

  SprinklersLb(const core::LabelMap& labels, Config cfg, std::uint64_t seed)
      : labels_(labels), cfg_(cfg), seed_(seed) {}

  void on_segment(net::Packet& seg) override {
    const auto* sched = labels_.schedule(seg.dst_host);
    if (sched == nullptr) return;
    FlowState& st = flows_[seg.flow];
    if (!st.initialized) {
      st.initialized = true;
      st.cursor = start_path(seg.flow, seed_, sched->size());
      st.stripe_end_bytes = stripe_bytes(seg.flow, 0);
      st.label = (*sched)[st.cursor % sched->size()];
    }
    if (seg.payload > 0 && !seg.is_retx) {
      if (st.dispatched_bytes >= st.stripe_end_bytes) st.rotate_pending = true;
      if (st.rotate_pending && st.acked_seq >= st.dispatched_end_seq) {
        // Stripe budget spent and nothing in flight: switching paths now
        // cannot overtake anything.
        ++st.stripe_index;
        ++st.cursor;
        st.stripe_end_bytes =
            st.dispatched_bytes + stripe_bytes(seg.flow, st.stripe_index);
        st.rotate_pending = false;
        st.label = (*sched)[st.cursor % sched->size()];
      }
      st.dispatched_bytes += seg.payload;
      st.dispatched_end_seq = std::max(st.dispatched_end_seq, seg.end_seq());
    }
    // The label is resolved once per stripe (init/rotation) and pinned here,
    // NOT re-read from the schedule per segment: a closed-loop re-weight push
    // may rewrite the schedule mid-stripe, and re-resolving the cursor
    // against a different-length vector would flip the path with bytes in
    // flight — exactly the reorder the rotation gate exists to prevent.
    seg.dst_mac = st.label;
    // Stable per stripe; receivers run stock GRO and ignore it.
    seg.flowcell_id = st.stripe_index + 1;
  }

  void on_ack_progress(const net::FlowKey& flow, std::uint64_t acked,
                       sim::Time srtt) override {
    (void)srtt;
    auto it = flows_.find(flow);
    if (it != flows_.end()) {
      it->second.acked_seq = std::max(it->second.acked_seq, acked);
    }
  }

  /// Size in bytes of `flow`'s `index`-th stripe (deterministic hash).
  std::uint64_t stripe_bytes(const net::FlowKey& flow,
                             std::uint64_t index) const {
    std::uint32_t shifts = 0;
    while ((cfg_.min_cells << (shifts + 1)) <= cfg_.max_cells) ++shifts;
    const std::uint64_t h =
        net::mix64(flow.hash() ^ seed_ ^ (0x57A1'9E50ULL * (index + 1)));
    const std::uint32_t cells = cfg_.min_cells << (h % (shifts + 1));
    return static_cast<std::uint64_t>(cells) * cfg_.cell_bytes;
  }

  /// Completed label rotations for `flow` (diagnostics / tests).
  std::uint64_t stripe_count(const net::FlowKey& flow) const {
    auto it = flows_.find(flow);
    return it == flows_.end() ? 0 : it->second.stripe_index + 1;
  }

  void digest_state(sim::Digest& d) const override {
    for (const auto& [flow, st] : flows_) {
      sim::Digest sub;
      sub.mix(flow.hash());
      sub.mix(st.cursor);
      sub.mix(st.stripe_index);
      sub.mix(st.dispatched_bytes);
      sub.mix(st.dispatched_end_seq);
      sub.mix(st.acked_seq);
      sub.mix(static_cast<std::uint64_t>(st.rotate_pending));
      d.mix_unordered(sub.value());
    }
  }

 private:
  struct FlowState {
    bool initialized = false;
    std::size_t cursor = 0;
    /// Label pinned for the current stripe (derived from cursor at each
    /// rotation; excluded from digest_state so pre-loop digests hold).
    net::MacAddr label = 0;
    std::uint64_t stripe_index = 0;
    std::uint64_t stripe_end_bytes = 0;   ///< Dispatch mark ending the stripe.
    std::uint64_t dispatched_bytes = 0;   ///< Total payload handed down.
    std::uint64_t dispatched_end_seq = 0; ///< Highest seq+len handed down.
    std::uint64_t acked_seq = 0;          ///< Cumulative ACK (snd_una).
    bool rotate_pending = false;
  };

  const core::LabelMap& labels_;
  Config cfg_;
  std::uint64_t seed_;
  std::unordered_map<net::FlowKey, FlowState, net::FlowKeyHash> flows_;
};

}  // namespace presto::lb
