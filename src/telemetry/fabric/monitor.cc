#include "telemetry/fabric/monitor.h"

namespace presto::telemetry::fabric {
namespace {

/// Per-flush decay applied to the queue high-watermark.
constexpr double kHwmDecay = 0.5;

}  // namespace

void PortMonitor::close_window(sim::Time now, sim::Time window_start,
                               PortReport& out) {
  // Fold the hot-path counters into the report (the hot path maintains
  // only the label rows and the compact hot cluster).
  r_.tx_packets = total_tx_packets();
  r_.tx_bytes = total_tx_bytes();
  r_.enqueued_packets = enqueued_packets_;
  const sim::Time dt = now - window_start;
  if (dt > 0 && rate_bps_ > 0) {
    const double sent_bits = 8.0 * static_cast<double>(r_.tx_bytes - window_tx_base_);
    const double capacity_bits = rate_bps_ * (static_cast<double>(dt) * 1e-9);
    double inst = capacity_bits > 0 ? sent_bits / capacity_bits : 0.0;
    if (inst > 1.0) inst = 1.0;  // rounding at tiny windows
    const double a = cfg_->util_alpha;
    r_.util_ewma = window_tx_base_ == 0 && r_.util_ewma == 0.0
                       ? inst
                       : a * inst + (1.0 - a) * r_.util_ewma;
    window_tx_base_ = r_.tx_bytes;
  }
  // Decayed watermark: the raw window max, pulled toward the current
  // occupancy by kHwmDecay each flush so old bursts fade out.
  const double floor = static_cast<double>(depth_);
  double decayed = hwm_window_ * kHwmDecay;
  if (static_cast<double>(hwm_live_) > decayed) {
    decayed = static_cast<double>(hwm_live_);
  }
  if (decayed < floor) decayed = floor;
  hwm_window_ = decayed;
  r_.queue_hwm_decayed = decayed;
  if (hwm_live_ > r_.queue_hwm_bytes) r_.queue_hwm_bytes = hwm_live_;
  hwm_live_ = depth_;  // restart the per-window max at the current depth

  out = r_;
}

TelemetryReport SwitchMonitor::snapshot(sim::Time now) {
  TelemetryReport rep;
  rep.switch_id = id_;
  rep.seq = ++seq_;
  rep.emitted_at = now;
  rep.ports.resize(ports_.size());
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    ports_[i].close_window(now, window_start_, rep.ports[i]);
    const auto& pl = ports_[i].labels();
    for (std::size_t b = 0; b < kLabelBuckets; ++b) {
      rep.labels[b].tx_packets += pl[b].tx_packets;
      rep.labels[b].tx_bytes += pl[b].tx_bytes;
      rep.labels[b].drop_packets += pl[b].drop_packets;
    }
  }
  for (std::size_t b = 0; b < kLabelBuckets; ++b) {
    rep.labels[b].drop_packets += label_no_route_[b];
  }
  rep.label_depth = sketches_;  // cumulative copy; collector dedupes on seq
  window_start_ = now;
  return rep;
}

void SwitchMonitor::digest_state(sim::Digest& d) const {
  d.mix(id_);
  d.mix(seq_);
  d.mix(no_route_drops_);
  for (const PortMonitor& p : ports_) {
    const PortReport& r = p.r_;
    d.mix(p.total_tx_packets());
    d.mix(p.total_tx_bytes());
    d.mix(p.enqueued_packets_);
    for (std::uint64_t v : r.drops) d.mix(v);
    d.mix(p.hwm_live_ > r.queue_hwm_bytes ? p.hwm_live_ : r.queue_hwm_bytes);
    d.mix(r.microburst_episodes);
    d.mix_time(r.microburst_max_duration);
    d.mix(r.microburst_peak_bytes);
    d.mix(p.depth_);
    d.mix(p.in_burst_ ? 1u : 0u);
    for (std::size_t b = 0; b < kLabelBuckets; ++b) {
      d.mix(p.labels_[b].tx_packets);
      d.mix(p.labels_[b].tx_bytes);
      d.mix(p.labels_[b].drop_packets);
    }
  }
  for (const stats::DDSketch& s : sketches_) {
    d.mix(s.count());
    d.mix_double(s.max());
  }
}

}  // namespace presto::telemetry::fabric
