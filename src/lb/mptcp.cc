#include "lb/mptcp.h"

#include <algorithm>

namespace presto::lb {

namespace {

/// Subflows per connection: the paper's best-stability setting.
constexpr std::uint32_t kSubflowCount = 8;
/// Scheduler allocation unit.
constexpr std::uint32_t kChunkBytes = 16 * 1024;
/// A subflow takes another chunk while its (unsent + in-flight) backlog is
/// below max(kBacklogCwndFactor * cwnd, kMinBacklogBytes).
constexpr double kBacklogCwndFactor = 2.0;
constexpr std::uint64_t kMinBacklogBytes = 64 * 1024;

}  // namespace

double CoupledGroup::alpha() const {
  double max_term = 0;
  double sum_term = 0;
  for (const Member& m : members_) {
    const double rtt = m.srtt_s > 0 ? m.srtt_s : 1e-3;  // pre-sample default
    max_term = std::max(max_term, m.cwnd_bytes / (rtt * rtt));
    sum_term += m.cwnd_bytes / rtt;
  }
  if (sum_term <= 0) return 1.0;
  return total_cwnd() * max_term / (sum_term * sum_term);
}

CoupledCc::CoupledCc(std::shared_ptr<CoupledGroup> group, std::size_t index)
    : group_(std::move(group)), index_(index), ssthresh_(tcp::kMaxCwndBytes) {}

double CoupledCc::cwnd_bytes() const {
  return group_->member(index_).cwnd_bytes;
}

void CoupledCc::on_ack(std::uint64_t acked, sim::Time, sim::Time srtt) {
  CoupledGroup::Member& m = group_->member(index_);
  if (srtt > 0) m.srtt_s = sim::to_seconds(srtt);
  if (m.cwnd_bytes < ssthresh_) {
    m.cwnd_bytes += static_cast<double>(acked);  // uncoupled slow start
  } else {
    // LIA: increase min(alpha * acked * MSS / cwnd_total, acked * MSS / w_i).
    const double a = group_->alpha();
    const double total = group_->total_cwnd();
    const double inc =
        std::min(a * static_cast<double>(acked) * net::kMss / total,
                 static_cast<double>(acked) * net::kMss / m.cwnd_bytes);
    m.cwnd_bytes += inc;
  }
  m.cwnd_bytes = std::min(m.cwnd_bytes, tcp::kMaxCwndBytes);
}

void CoupledCc::on_loss_event(sim::Time) {
  CoupledGroup::Member& m = group_->member(index_);
  m.cwnd_bytes = std::max(m.cwnd_bytes / 2.0, 2.0 * net::kMss);
  ssthresh_ = m.cwnd_bytes;
}

void CoupledCc::on_timeout(sim::Time) {
  CoupledGroup::Member& m = group_->member(index_);
  ssthresh_ = std::max(m.cwnd_bytes / 2.0, 2.0 * net::kMss);
  m.cwnd_bytes = net::kMss;
}

void CoupledCc::undo(double prior_cwnd, double prior_ssthresh) {
  CoupledGroup::Member& m = group_->member(index_);
  m.cwnd_bytes = std::max(m.cwnd_bytes, prior_cwnd);
  ssthresh_ = std::max(ssthresh_, prior_ssthresh);
}

MptcpConnection::MptcpConnection(sim::Simulation& sim, host::Host& src,
                                 host::Host& dst, net::FlowKey base_flow,
                                 MptcpConfig cfg)
    : sim_(sim),
      cfg_(cfg),
      watchdog_origin_(sim.now()),
      group_(std::make_shared<CoupledGroup>()) {
  subflows_.resize(kSubflowCount);
  for (std::uint32_t i = 0; i < kSubflowCount; ++i) {
    net::FlowKey key = base_flow;
    key.src_port = base_flow.src_port + i;
    const std::size_t member =
        group_->add_member(tcp::kInitialCwndMss * net::kMss);
    Subflow& sf = subflows_[i];
    sf.sender = &src.create_sender(
        key, std::make_unique<CoupledCc>(group_, member));
    sf.receiver = &dst.create_receiver(key);
    sf.sender->set_on_acked([this](std::uint64_t) { pump(); });
    sf.receiver->set_on_delivered([this, i](std::uint64_t rcv_nxt) {
      on_subflow_delivered(i, rcv_nxt);
    });
  }
  arm_watchdog();
}

void MptcpConnection::arm_watchdog() {
  watchdog_armed_ = true;
  const sim::Time k = (sim_.now() - watchdog_origin_) / cfg_.watchdog_interval;
  sim_.schedule_at(watchdog_origin_ + (k + 1) * cfg_.watchdog_interval,
                   [this] { watchdog(); });
}

bool MptcpConnection::quiet() const {
  if (conn_assigned_ < conn_total_ || !reinject_queue_.empty()) return false;
  for (const Subflow& sf : subflows_) {
    if (!sf.sender->idle()) return false;
  }
  return true;
}

void MptcpConnection::watchdog() {
  watchdog_armed_ = false;
  const sim::Time now = sim_.now();
  for (Subflow& sf : subflows_) {
    // An RTO is a strong signal the path is bad: reinject everything the
    // subflow still owes immediately (Linux MPTCP reinjects on RTO).
    const std::uint64_t rtos = sf.sender->stats().timeouts;
    const bool rto_fired = rtos != sf.seen_timeouts;
    sf.seen_timeouts = rtos;
    for (std::size_t i = sf.delivered_idx; i < sf.mappings.size(); ++i) {
      Mapping& m = sf.mappings[i];
      if (m.reinjected) continue;
      if (!rto_fired && now - m.assigned_at < cfg_.reinject_after) continue;
      m.reinjected = true;
      ++reinjections_;
      reinject_queue_.emplace_back(m.conn_start, m.len);
    }
  }
  if (!reinject_queue_.empty()) pump();
  // A quiet connection has nothing to reinject until send() offers more
  // bytes, and send() re-arms the scan on the same grid.
  if (!quiet()) arm_watchdog();
}

void MptcpConnection::assign_chunk(Subflow& sf, std::uint64_t conn_start,
                                   std::uint64_t len) {
  Mapping m{sf.assigned, conn_start, len, sim_.now(), false};
  sf.mappings.push_back(m);
  sf.assigned += len;
  sf.sender->app_write(len);
}

void MptcpConnection::send(std::uint64_t bytes) {
  conn_total_ += bytes;
  pump();
  if (!watchdog_armed_) arm_watchdog();
}

void MptcpConnection::pump() {
  if (subflows_.empty()) return;
  // Round-robin chunks of the connection stream onto subflows whose backlog
  // (unsent + in flight) has room.
  bool progress = true;
  auto work_left = [this] {
    return conn_assigned_ < conn_total_ || !reinject_queue_.empty();
  };
  while (work_left() && progress) {
    progress = false;
    for (std::size_t n = 0; n < subflows_.size() && work_left(); ++n) {
      Subflow& sf = subflows_[rr_cursor_ % subflows_.size()];
      ++rr_cursor_;
      const std::uint64_t backlog =
          sf.sender->stream_end() - sf.sender->acked_bytes();
      const auto limit = static_cast<std::uint64_t>(std::max(
          kBacklogCwndFactor * sf.sender->cwnd_bytes(),
          static_cast<double>(kMinBacklogBytes)));
      if (backlog >= limit) continue;
      if (!reinject_queue_.empty()) {
        // Reinjected ranges take priority over fresh data.
        auto [start, len] = reinject_queue_.front();
        reinject_queue_.pop_front();
        assign_chunk(sf, start, len);
        // The copy may itself be reinjected later if this subflow stalls
        // too (the age gate bounds the duplication rate).
      } else {
        const std::uint64_t len = std::min<std::uint64_t>(
            kChunkBytes, conn_total_ - conn_assigned_);
        assign_chunk(sf, conn_assigned_, len);
        conn_assigned_ += len;
      }
      progress = true;
    }
  }
}

void MptcpConnection::on_subflow_delivered(std::size_t idx,
                                           std::uint64_t sub_rcv_nxt) {
  Subflow& sf = subflows_[idx];
  while (sf.delivered_idx < sf.mappings.size()) {
    const Mapping& m = sf.mappings[sf.delivered_idx];
    if (sub_rcv_nxt <= m.sub_start) break;
    const std::uint64_t got = std::min(m.len, sub_rcv_nxt - m.sub_start);
    conn_received_.add(m.conn_start, m.conn_start + got);
    if (got < m.len) break;  // partially delivered: revisit next time
    ++sf.delivered_idx;
  }
  const std::uint64_t before = conn_delivered_;
  conn_delivered_ = conn_received_.advance(conn_delivered_);
  if (conn_delivered_ > before && on_delivered_) {
    on_delivered_(conn_delivered_);
  }
}

MptcpStats MptcpConnection::stats() const {
  MptcpStats s;
  for (const Subflow& sf : subflows_) {
    s.timeouts += sf.sender->stats().timeouts;
    s.fast_retransmits += sf.sender->stats().fast_retransmits;
    s.retransmitted_bytes += sf.sender->stats().retransmitted_bytes;
  }
  return s;
}

}  // namespace presto::lb
