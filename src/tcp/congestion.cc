#include "tcp/congestion.h"

#include <algorithm>
#include <cmath>

namespace presto::tcp {

void CubicCc::on_ack(std::uint64_t acked, sim::Time now, sim::Time srtt) {
  if (cwnd_ < ssthresh_) {
    cwnd_ = std::min(cwnd_ + static_cast<double>(acked), kMaxCwndBytes);
    return;
  }
  if (epoch_start_ == 0) {
    epoch_start_ = now;
    const double cwnd_mss = cwnd_ / net::kMss;
    if (w_max_mss_ < cwnd_mss) w_max_mss_ = cwnd_mss;
    k_seconds_ = std::cbrt((w_max_mss_ - cwnd_mss) / kC);
    tcp_friendly_mss_ = cwnd_mss;
  }
  const double target_mss = cubic_target(now, srtt);
  const double cwnd_mss = cwnd_ / net::kMss;
  double increment;
  if (target_mss > cwnd_mss) {
    // Grow toward the cubic target over the next RTT.
    increment = (target_mss - cwnd_mss) / cwnd_mss;
  } else {
    increment = 0.01 / cwnd_mss;  // minimal growth in the plateau
  }
  // TCP-friendly region: never slower than an AIMD flow.
  tcp_friendly_mss_ += 3.0 * (1.0 - kBeta) / (1.0 + kBeta) *
                       (static_cast<double>(acked) / net::kMss) /
                       std::max(cwnd_mss, 1.0);
  const double friendly_increment =
      tcp_friendly_mss_ > cwnd_mss ? (tcp_friendly_mss_ - cwnd_mss) / cwnd_mss
                                   : 0.0;
  increment = std::max(increment, friendly_increment);
  cwnd_ = std::min(cwnd_ + increment * net::kMss *
                             (static_cast<double>(acked) / net::kMss),
                   kMaxCwndBytes);
}

double CubicCc::cubic_target(sim::Time now, sim::Time srtt) const {
  // Target window one RTT in the future, in MSS.
  const double t = sim::to_seconds(now - epoch_start_ + srtt);
  const double d = t - k_seconds_;
  return kC * d * d * d + w_max_mss_;
}

void CubicCc::on_loss_event(sim::Time) {
  const double cwnd_mss = cwnd_ / net::kMss;
  // Fast convergence: release capacity faster when the window shrank.
  w_max_mss_ = cwnd_mss < w_max_mss_ ? cwnd_mss * (1.0 + kBeta) / 2.0
                                     : cwnd_mss;
  cwnd_ = std::max(cwnd_ * kBeta, 2.0 * net::kMss);
  ssthresh_ = cwnd_;
  epoch_start_ = 0;
}

void CubicCc::on_timeout(sim::Time) {
  ssthresh_ = std::max(cwnd_ * kBeta, 2.0 * net::kMss);
  cwnd_ = net::kMss;
  epoch_start_ = 0;
  w_max_mss_ = 0;
}

void CubicCc::undo(double prior_cwnd, double prior_ssthresh) {
  cwnd_ = std::max(cwnd_, prior_cwnd);
  ssthresh_ = std::max(ssthresh_, prior_ssthresh);
  // Restart the cubic epoch from the restored operating point.
  epoch_start_ = 0;
  w_max_mss_ = std::max(w_max_mss_, cwnd_ / net::kMss);
}

}  // namespace presto::tcp
