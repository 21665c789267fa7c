#include "telemetry/fabric/plane.h"

#include <utility>

#include "controller/controller.h"
#include "net/types.h"

namespace presto::telemetry::fabric {
namespace {

/// Baseline control-plane transit delay for a report frame. Control-plane
/// faults (ctl_fault@) add their extra_push_delay on top and may drop or
/// duplicate the frame.
constexpr sim::Time kReportDelay = 10 * sim::kMicrosecond;

}  // namespace

FabricPlane::FabricPlane(sim::Simulation& sim, const FabricConfig& cfg,
                         std::uint64_t seed)
    : sim_(sim),
      cfg_(cfg),
      collector_(cfg),
      rng_(net::mix64(seed ^ 0xFAB51C'7E1EULL)) {}

void FabricPlane::attach_switch(net::Switch& sw) {
  auto mon = std::make_unique<SwitchMonitor>(sw.id(), cfg_);
  for (std::size_t i = 0; i < sw.port_count(); ++i) {
    mon->add_port(sw.port(static_cast<net::PortId>(i)).config().rate_bps);
  }
  if (cfg_.attach_hooks) sw.set_fabric_monitor(mon.get());
  collector_.expect_switch(sw.id(), sw.port_count());
  monitors_[sw.id()] = std::move(mon);
}

SwitchMonitor* FabricPlane::monitor(std::uint32_t switch_id) {
  const auto it = monitors_.find(switch_id);
  return it == monitors_.end() ? nullptr : it->second.get();
}

void FabricPlane::start() {
  if (cfg_.flush_period <= 0 || started_) return;
  started_ = true;
  sim_.schedule(cfg_.flush_period, [this] { tick(); });
}

void FabricPlane::tick() {
  flush_now();
  sim_.schedule(cfg_.flush_period, [this] { tick(); });
}

void FabricPlane::flush_now() {
  for (auto& [id, mon] : monitors_) {
    deliver(mon->snapshot(sim_.now()));
  }
}

void FabricPlane::deliver(TelemetryReport r) {
  ++reports_sent_;
  sim::Time delay = kReportDelay;
  bool duplicate = false;
  if (ctl_ != nullptr) {
    if (const auto* fault = ctl_->control_fault()) {
      delay += fault->extra_push_delay;
      if (fault->push_drop_probability > 0 &&
          rng_.uniform() < fault->push_drop_probability) {
        ++reports_dropped_;
        return;
      }
      if (fault->push_duplicate_probability > 0 &&
          rng_.uniform() < fault->push_duplicate_probability) {
        duplicate = true;
      }
    }
  }
  if (duplicate) {
    ++reports_duplicated_;
    // The copy takes the longer path (models a retransmitted frame).
    schedule_delivery(r, delay + kReportDelay);
  }
  schedule_delivery(std::move(r), delay);
}

void FabricPlane::schedule_delivery(TelemetryReport r, sim::Time delay) {
  const std::uint64_t id = next_delivery_id_++;
  in_flight_.emplace(id, std::move(r));
  sim_.schedule(delay, [this, id] {
    const auto it = in_flight_.find(id);
    if (it == in_flight_.end()) return;
    collector_.on_report(it->second, sim_.now());
    in_flight_.erase(it);
  });
}

void FabricPlane::collect_now() {
  for (auto& [id, mon] : monitors_) {
    collector_.on_report(mon->snapshot(sim_.now()), sim_.now());
  }
}

std::string FabricPlane::health_json() {
  if (!started_) collect_now();
  return collector_.health_json(sim_.now());
}

double FabricPlane::live_imbalance_index() const {
  std::uint64_t bytes[kNonLabelBucket] = {};
  for (const auto& [id, mon] : monitors_) {
    for (std::size_t i = 0; i < mon->port_count(); ++i) {
      const auto& labels = mon->port(i)->labels();
      for (std::size_t b = 0; b < kNonLabelBucket; ++b) {
        bytes[b] += labels[b].tx_bytes;
      }
    }
  }
  std::uint64_t max_b = 0, sum = 0;
  std::size_t active = 0;
  for (std::uint64_t v : bytes) {
    if (v == 0) continue;
    ++active;
    sum += v;
    if (v > max_b) max_b = v;
  }
  if (active == 0) return 0.0;
  const double mean = static_cast<double>(sum) / static_cast<double>(active);
  return mean > 0 ? static_cast<double>(max_b) / mean : 0.0;
}

std::uint64_t FabricPlane::live_label_tx_bytes(std::uint32_t bucket) const {
  if (bucket >= kLabelBuckets) return 0;
  std::uint64_t total = 0;
  for (const auto& [id, mon] : monitors_) {
    for (std::size_t i = 0; i < mon->port_count(); ++i) {
      total += mon->port(i)->labels()[bucket].tx_bytes;
    }
  }
  return total;
}

void FabricPlane::digest_state(sim::Digest& d) const {
  d.mix(static_cast<std::uint64_t>(monitors_.size()));
  for (const auto& [id, mon] : monitors_) {
    mon->digest_state(d);
  }
  collector_.digest_state(d);
  d.mix(reports_sent_);
  d.mix(reports_dropped_);
  d.mix(reports_duplicated_);
  d.mix(static_cast<std::uint64_t>(in_flight_.size()));
}

}  // namespace presto::telemetry::fabric
