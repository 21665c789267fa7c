// Sender-side vSwitch load-balancing policy.
//
// The host egress path calls on_segment() on every pre-TSO segment template
// (data and pure ACKs alike — all vSwitch traffic runs through the policy,
// as in the paper). Policies stamp the forwarding label (dst MAC), the
// flowcell ID, and/or the per-hop ECMP salt. Per-packet policies are instead
// applied to each MTU packet after TSO splitting.
#pragma once

#include <cstdint>

#include "net/flow_key.h"
#include "net/packet.h"
#include "sim/digest.h"

namespace presto::lb {

/// Index of the path a new flow starts on among `paths` candidates: a
/// per-flow hash salted by the host policy's seed, so flows of one host
/// spread over the schedule without any shared state.
inline std::size_t start_path(const net::FlowKey& flow, std::uint64_t seed,
                              std::size_t paths) {
  return static_cast<std::size_t>(net::mix64(flow.hash() ^ seed) % paths);
}

class SenderLb {
 public:
  virtual ~SenderLb() = default;

  /// Stamps forwarding metadata on a segment template (or, for per-packet
  /// policies, on an individual post-TSO packet).
  virtual void on_segment(net::Packet& seg) = 0;

  /// True if the policy must run per MTU packet after TSO (e.g. RPS/DRB
  /// style per-packet spraying) rather than per TSO segment.
  virtual bool per_packet() const { return false; }

  /// Local loss signal from the host's TCP stack: `flow` entered loss
  /// recovery (`timeout`=false) or hit an RTO (`timeout`=true), with the
  /// first missing byte at `hole_seq`. Path-aware policies use it to suspect
  /// the path that carried the lost range; the default policy ignores it.
  virtual void on_loss_signal(const net::FlowKey& flow, std::uint64_t hole_seq,
                              bool timeout) {
    (void)flow;
    (void)hole_seq;
    (void)timeout;
  }

  /// The previous loss signal for `flow` proved spurious (DSACK undo):
  /// path-aware policies exonerate the paths they blamed.
  virtual void on_recovery_signal(const net::FlowKey& flow) { (void)flow; }

  /// Delivery-progress signal from the host's TCP stack: `flow`'s
  /// cumulative ACK advanced to `acked` with smoothed RTT `srtt`.
  /// RTT-adaptive policies (FlowDyn's dynamic gap) and in-flight-gated
  /// policies (Sprinklers' rotation) consume it; others ignore it.
  virtual void on_ack_progress(const net::FlowKey& flow, std::uint64_t acked,
                               sim::Time srtt) {
    (void)flow;
    (void)acked;
    (void)srtt;
  }

  /// Folds policy-internal state (per-flow cursors, quarantine timers) into
  /// a checkpoint state digest (src/check/soak). Stateless policies
  /// contribute nothing.
  virtual void digest_state(sim::Digest& d) const { (void)d; }
};

}  // namespace presto::lb
