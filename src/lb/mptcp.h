// MPTCP baseline (§4): N subflows, ECMP-selected paths, coupled congestion
// control, connection-level reassembly.
//
// Modeling notes (documented in DESIGN.md):
//   * coupled increase follows LIA (Wischik et al., NSDI'11) — a documented
//     simplification of the OLIA variant the paper configures; both share
//     the properties Presto's comparison relies on (subflow path diversity,
//     per-subflow decrease so one loss slows only one subflow, aggregate
//     burstiness);
//   * the data scheduler assigns fixed-size chunks round-robin to subflows
//     with transmit-buffer deficit (approximates Linux MPTCP's per-skb
//     assignment; small chunks expose mice to slow subflows, reproducing
//     the paper's MPTCP timeout pathology);
//   * the DSS mapping (subflow offset -> connection offset) is shared
//     in-memory between the two endpoints, standing in for the on-wire
//     DSS option.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "host/host.h"
#include "net/flow_key.h"
#include "sim/simulation.h"
#include "tcp/congestion.h"
#include "tcp/range_set.h"

namespace presto::lb {

struct MptcpConfig {
  /// Opportunistic reinjection (Linux MPTCP): a chunk stuck behind a slow or
  /// timed-out subflow for this long is re-sent on another subflow so one
  /// bad path cannot head-of-line block the connection. Each mapping is
  /// reinjected at most once.
  sim::Time reinject_after = 50 * sim::kMillisecond;
  /// Reinjection scan period. The scan runs on the grid construction time
  /// + k * interval and pauses while the connection is quiet.
  sim::Time watchdog_interval = 10 * sim::kMillisecond;
};

/// Shared state of one connection's coupled controllers.
class CoupledGroup {
 public:
  struct Member {
    double cwnd_bytes = 0;
    double srtt_s = 0;
  };

  std::size_t add_member(double initial_cwnd) {
    members_.push_back(Member{initial_cwnd, 0});
    return members_.size() - 1;
  }
  Member& member(std::size_t i) { return members_[i]; }

  double total_cwnd() const {
    double t = 0;
    for (const Member& m : members_) t += m.cwnd_bytes;
    return t;
  }

  /// LIA alpha: cwnd_total * max_i(w_i/rtt_i^2) / (sum_i w_i/rtt_i)^2.
  double alpha() const;

 private:
  std::vector<Member> members_;
};

/// Per-subflow coupled congestion control (LIA increase, AIMD decrease).
class CoupledCc final : public tcp::CongestionControl {
 public:
  CoupledCc(std::shared_ptr<CoupledGroup> group, std::size_t index);

  void on_ack(std::uint64_t acked, sim::Time now, sim::Time srtt) override;
  void on_loss_event(sim::Time now) override;
  void on_timeout(sim::Time now) override;
  void undo(double prior_cwnd, double prior_ssthresh) override;
  double cwnd_bytes() const override;
  double ssthresh_bytes() const override { return ssthresh_; }

 private:
  std::shared_ptr<CoupledGroup> group_;
  std::size_t index_;
  double ssthresh_;
};

/// Aggregate sender/receiver statistics over all subflows.
struct MptcpStats {
  std::uint64_t timeouts = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t retransmitted_bytes = 0;
};

/// One MPTCP connection between two hosts. Subflows are ordinary TcpSender/
/// TcpReceiver endpoints whose flow keys differ in source port, so the ECMP
/// vSwitch policy places them on (likely) different paths.
class MptcpConnection {
 public:
  using DeliveredFn = std::function<void(std::uint64_t conn_delivered)>;

  MptcpConnection(sim::Simulation& sim, host::Host& src, host::Host& dst,
                  net::FlowKey base_flow, MptcpConfig cfg = {});

  /// Appends `bytes` to the connection-level stream.
  void send(std::uint64_t bytes);

  /// Connection-level in-order bytes available at the receiver.
  std::uint64_t delivered() const { return conn_delivered_; }
  /// Bytes accepted by send() so far.
  std::uint64_t offered() const { return conn_total_; }

  void set_on_delivered(DeliveredFn cb) { on_delivered_ = std::move(cb); }

  MptcpStats stats() const;
  std::uint32_t subflow_count() const {
    return static_cast<std::uint32_t>(subflows_.size());
  }

 private:
  struct Mapping {
    std::uint64_t sub_start;
    std::uint64_t conn_start;
    std::uint64_t len;
    sim::Time assigned_at = 0;
    bool reinjected = false;
  };
  struct Subflow {
    tcp::TcpSender* sender = nullptr;      // owned by src host
    tcp::TcpReceiver* receiver = nullptr;  // owned by dst host
    std::vector<Mapping> mappings;         // stands in for DSS options
    std::uint64_t assigned = 0;            // subflow stream bytes assigned
    std::size_t delivered_idx = 0;         // first not-fully-delivered mapping
    std::uint64_t seen_timeouts = 0;       // RTOs handled by the watchdog
  };

  /// Tops up subflows with chunks from the connection stream (round robin).
  void pump();
  void on_subflow_delivered(std::size_t idx, std::uint64_t sub_rcv_nxt);
  /// Periodic scan for stuck mappings to reinject; stops rescheduling
  /// itself once quiet() holds.
  void watchdog();
  /// Schedules the next scan at the first grid point after now.
  void arm_watchdog();
  /// Everything offered is assigned, nothing awaits reinjection and every
  /// subflow has all of its bytes acknowledged.
  bool quiet() const;
  /// Appends `len` bytes of connection range [conn_start, ..) to subflow sf.
  void assign_chunk(Subflow& sf, std::uint64_t conn_start, std::uint64_t len);

  sim::Simulation& sim_;
  MptcpConfig cfg_;
  sim::Time watchdog_origin_;
  bool watchdog_armed_ = false;
  std::vector<Subflow> subflows_;
  std::shared_ptr<CoupledGroup> group_;
  std::uint64_t conn_total_ = 0;        // bytes offered by the app
  std::uint64_t conn_assigned_ = 0;     // bytes handed to subflows
  std::uint64_t conn_delivered_ = 0;    // in-order frontier at receiver
  tcp::RangeSet conn_received_;
  DeliveredFn on_delivered_;
  std::size_t rr_cursor_ = 0;
  /// Connection ranges awaiting reinjection (drained before new data).
  std::deque<std::pair<std::uint64_t, std::uint64_t>> reinject_queue_;
  std::uint64_t reinjections_ = 0;
};

}  // namespace presto::lb
