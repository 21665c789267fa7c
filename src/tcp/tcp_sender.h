// TCP sender endpoint.
//
// Models the Linux sender behaviour the paper's results depend on:
//   * TSO-sized transmission — the stack hands up-to-64 KB segment templates
//     to the vSwitch/NIC (the emit callback), not wire packets;
//   * SACK-based loss recovery (tcp_sack=1 in §4): a scoreboard of SACKed
//     ranges drives hole retransmission; recovery triggers on 3 dup-ACKs or
//     >= 3 MSS of SACKed data above snd_una (FACK-style, tcp_fack=1 — this
//     is what makes reordering hurt, §2.2);
//   * RTT estimation from echoed timestamps; RFC 6298 RTO with the Linux
//     200 ms minimum (the paper's mice-FCT "TIMEOUT" entries come from it).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/packet.h"
#include "sim/simulation.h"
#include "tcp/congestion.h"
#include "tcp/range_set.h"

namespace presto::tcp {

/// Receives a sender's loss-recovery and delivery-progress signals. The
/// host implements it and forwards each call to its vSwitch LB policy, so
/// path-aware policies (FlowcellEngine suspicion), RTT-adaptive ones
/// (FlowDyn's dynamic flowlet gap) and in-flight-gated ones (Sprinklers'
/// stripe rotation) observe TCP without hooking its internals.
class SenderFeedback {
 public:
  /// Entering fast recovery (`timeout` = false) or an RTO (`timeout` =
  /// true), carrying the first missing byte (snd_una).
  virtual void on_retransmit(const net::FlowKey& flow, std::uint64_t hole_seq,
                             bool timeout) = 0;
  /// A recovery episode was undone as spurious (DSACK evidence).
  virtual void on_spurious_recovery(const net::FlowKey& flow) = 0;
  /// The cumulative ACK advanced to `snd_una`; `srtt` is the smoothed RTT.
  virtual void on_ack_progress(const net::FlowKey& flow, std::uint64_t snd_una,
                               sim::Time srtt) = 0;

 protected:
  ~SenderFeedback() = default;
};

/// Counters exposed for tests and experiment reporting.
struct TcpSenderStats {
  std::uint64_t fast_retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t retransmitted_bytes = 0;
  std::uint64_t emitted_segments = 0;
  std::uint64_t dup_acks = 0;
  std::uint64_t spurious_recoveries = 0;  ///< Undone via DSACK evidence.
};

class TcpSender {
 public:
  /// `emit` delivers a segment template to the host egress datapath
  /// (vSwitch LB -> TSO -> NIC).
  using EmitFn = std::function<void(net::Packet&&)>;
  using AckedFn = std::function<void(std::uint64_t snd_una)>;

  /// `feedback` may be null. The sender runs CUBIC unless `cc` supplies
  /// another controller (MPTCP's coupled one).
  TcpSender(sim::Simulation& sim, net::FlowKey flow, EmitFn emit,
            SenderFeedback* feedback = nullptr,
            std::unique_ptr<CongestionControl> cc = nullptr);

  /// Appends `bytes` to the application stream and tries to transmit.
  void app_write(std::uint64_t bytes);

  /// Handles an incoming (cumulative + SACK) acknowledgement.
  void on_ack_packet(const net::Packet& ack);

  /// Callback fired whenever snd_una advances.
  void set_on_acked(AckedFn cb) { on_acked_ = std::move(cb); }

  std::uint64_t acked_bytes() const { return snd_una_; }
  std::uint64_t sent_bytes() const { return snd_nxt_; }
  std::uint64_t stream_end() const { return stream_end_; }
  bool idle() const { return snd_una_ == stream_end_; }
  const net::FlowKey& flow() const { return flow_; }

  double cwnd_bytes() const { return cc_->cwnd_bytes(); }
  sim::Time srtt() const { return srtt_; }
  const TcpSenderStats& stats() const { return stats_; }

  /// Validates the sequence-space and congestion-state invariants this
  /// sender must obey at every instant (snd ordering, SACK scoreboard
  /// bounds, FACK position, recovery window, cwnd/ssthresh/RTO ranges).
  /// Returns true when consistent; otherwise appends one line per broken
  /// invariant to `*why` (when non-null). Used by the check subsystem.
  bool check_invariants(std::string* why) const;

  /// Folds this sender's sequence frontiers, SACK scoreboard, RTT state,
  /// and loss counters into a checkpoint state digest (src/check/soak).
  void digest_state(sim::Digest& d) const;

 private:
  void try_send();
  void send_range(std::uint64_t start, std::uint64_t end, bool retx);
  std::uint64_t in_flight() const;
  /// First unSACKed byte at/above `from` (holes needing retransmission).
  std::uint64_t next_hole(std::uint64_t from) const;
  void enter_recovery();
  void update_rtt(sim::Time sample);
  void arm_rto();
  void on_rto(std::uint64_t generation);

  sim::Simulation& sim_;
  net::FlowKey flow_;
  EmitFn emit_;
  SenderFeedback* feedback_;
  AckedFn on_acked_;
  std::unique_ptr<CongestionControl> cc_;

  // Stream state.
  std::uint64_t stream_end_ = 0;
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  /// Highest byte ever transmitted (snd_nxt_ rewinds on RTO; this doesn't),
  /// so go-back-N resends are still marked as retransmissions on the wire.
  std::uint64_t snd_high_ = 0;

  // Loss recovery.
  RangeSet sacked_;
  std::uint32_t dupacks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_ = 0;
  std::uint64_t retx_next_ = 0;
  /// Highest SACKed byte (FACK). Un-SACKed bytes below it are presumed lost
  /// and excluded from the pipe (tcp_fack=1 behaviour, §4 settings — this is
  /// also why reordering hurts stock TCP, §2.2).
  std::uint64_t fack_ = 0;
  /// Estimate of retransmitted-but-unacknowledged bytes (counted in pipe).
  std::uint64_t retx_pending_ = 0;
  /// DSACK-based spurious-recovery undo (Linux tcp_dsack behaviour): if
  /// every byte retransmitted in the current episode is reported back as a
  /// duplicate, the loss event was reordering — restore the window.
  double undo_cwnd_ = 0;
  double undo_ssthresh_ = 0;
  std::uint64_t episode_retx_bytes_ = 0;
  std::uint64_t episode_dsack_bytes_ = 0;
  bool episode_open_ = false;

  // RTT/RTO.
  sim::Time srtt_ = 0;
  sim::Time rttvar_ = 0;
  sim::Time rto_;
  std::uint64_t rto_generation_ = 0;
  bool rto_armed_ = false;

  TcpSenderStats stats_;
};

}  // namespace presto::tcp
