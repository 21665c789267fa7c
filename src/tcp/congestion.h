// Congestion-control algorithms.
//
// The testbed ran Linux defaults (TCP CUBIC, §4). The MPTCP baseline's
// coupled controller (src/lb/mptcp) implements the same interface.
#pragma once

#include <cstdint>

#include "net/packet.h"
#include "sim/time.h"

namespace presto::tcp {

/// Interface over a congestion window measured in bytes.
class CongestionControl {
 public:
  virtual ~CongestionControl() = default;

  /// Cumulative ACK progress of `acked` bytes.
  virtual void on_ack(std::uint64_t acked, sim::Time now, sim::Time srtt) = 0;
  /// Fast-retransmit loss event (multiplicative decrease).
  virtual void on_loss_event(sim::Time now) = 0;
  /// Retransmission timeout (collapse to one MSS, slow start).
  virtual void on_timeout(sim::Time now) = 0;
  /// Undo a loss-event reduction proven spurious by DSACK (Linux-style
  /// cwnd undo): restore the window and slow-start threshold that were
  /// reduced by mistake.
  virtual void undo(double prior_cwnd, double prior_ssthresh) = 0;

  virtual double cwnd_bytes() const = 0;
  virtual double ssthresh_bytes() const = 0;
};

/// Window bounds shared by every controller (and checked by
/// TcpSender::check_invariants): Linux IW10 and a 1.5 MB ceiling.
inline constexpr double kInitialCwndMss = 10;
inline constexpr double kMaxCwndBytes = 1.5 * 1024 * 1024;

/// TCP CUBIC (Ha, Rhee, Xu — the Linux default the paper runs).
/// Window growth W(t) = C*(t-K)^3 + W_max with a TCP-friendly floor.
class CubicCc final : public CongestionControl {
 public:
  CubicCc() : cwnd_(kInitialCwndMss * net::kMss), ssthresh_(kMaxCwndBytes) {}

  void on_ack(std::uint64_t acked, sim::Time now, sim::Time srtt) override;
  void on_loss_event(sim::Time now) override;
  void on_timeout(sim::Time now) override;
  void undo(double prior_cwnd, double prior_ssthresh) override;

  double cwnd_bytes() const override { return cwnd_; }
  double ssthresh_bytes() const override { return ssthresh_; }

 private:
  double cubic_target(sim::Time now, sim::Time srtt) const;

  static constexpr double kC = 0.4;       // cubic scaling (segments/sec^3)
  static constexpr double kBeta = 0.7;    // multiplicative decrease

  double cwnd_;
  double ssthresh_;
  // Cubic epoch state.
  double w_max_mss_ = 0;        // window before last reduction, in MSS
  sim::Time epoch_start_ = 0;   // 0 = no epoch
  double k_seconds_ = 0;        // time to reach w_max again
  double tcp_friendly_mss_ = 0; // Reno-equivalent window estimate
};

}  // namespace presto::tcp
