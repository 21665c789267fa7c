#include "net/port.h"

#include <utility>

#include "telemetry/fabric/monitor.h"

namespace presto::net {

void TxPort::enqueue(Packet p) {
  const bool unusable = down_ || peer_ == nullptr;
  if (unusable || queued_bytes_ + p.buffer_bytes() > cfg_.queue_bytes) {
    dropped(p, unusable ? TapDropCause::kLinkDown : TapDropCause::kQueueFull);
    return;
  }
  queued_bytes_ += p.buffer_bytes();
  enqueued(p);
  queue_.push_back(pool_.acquire(std::move(p)));
  if (!busy_) start_transmission();
}

void TxPort::start_transmission() {
  busy_ = true;
  const auto ser_ns = static_cast<sim::Time>(
      8.0 * queue_.front()->wire_bytes() / cfg_.rate_bps * 1e9 + 0.5);
  sim_.schedule(ser_ns, [this] { finish_transmission(); });
}

void TxPort::finish_transmission() {
  Packet* p = queue_.front();
  queue_.pop_front();
  queued_bytes_ -= p->buffer_bytes();
  departed(*p);
  if (const std::optional<TapDropCause> cause = wire_drop()) {
    dropped(*p, *cause);
    pool_.release(p);
  } else {
    // Propagate to the far end; the frame rides in its pooled slot, so the
    // event capture is 16 bytes and the slot is recycled on delivery.
    sim_.schedule(cfg_.propagation, [this, p] {
      peer_->receive(std::move(*p), peer_in_port_);
      pool_.release(p);
    });
  }
  busy_ = false;
  if (!queue_.empty()) start_transmission();
}

std::optional<TapDropCause> TxPort::wire_drop() {
  // The port went down (or was never connected) while the frame sat in the
  // queue: it is lost at the wire and accounted like any other drop.
  if (down_ || peer_ == nullptr) return TapDropCause::kLinkDownTx;
  if (!loss_) return std::nullopt;
  DegradedState& st = *loss_;
  // Advance the GE chain once per frame, then roll against the state's loss
  // probability and the independent corruption probability.
  const double flip = st.rng.uniform();
  if (st.bad ? flip < st.model.p_bg : flip < st.model.p_gb) st.bad = !st.bad;
  const double loss_p = st.bad ? st.model.loss_bad : st.model.loss_good;
  if (loss_p > 0 && st.rng.uniform() < loss_p) return TapDropCause::kLossModel;
  if (st.model.corrupt > 0 && st.rng.uniform() < st.model.corrupt) {
    return TapDropCause::kCorrupt;
  }
  return std::nullopt;
}

void TxPort::enqueued(const Packet& p) {
  ++counters_.enqueued_packets;
  const std::uint32_t bytes = p.buffer_bytes();
  if (fabric_ != nullptr) {
    fabric_->on_enqueue(queued_bytes_,
                        telemetry::fabric::label_bucket(p.dst_mac), sim_.now());
  }
  if (tap_ != nullptr) tap_->on_port_enqueue(node_, port_, p);
  if (telem_ == nullptr) return;
  telem_->enqueued->inc();
  telem_->queue_depth_bytes->add(static_cast<double>(queued_bytes_));
  if (telem_->label_flight != nullptr) {
    telem_->label_flight->add(p.dst_mac, bytes);
  }
  if (telem_->tracer != nullptr) {
    telem_->tracer->record(sim_.now(), telemetry::EventType::kEnqueue, node_,
                           port_, queued_bytes_, bytes);
  }
  if (telem_->spans != nullptr && p.span_id != 0) {
    telem_->spans->annotate(p.span_id, telemetry::SpanEventKind::kEnqueue,
                            sim_.now(), node_, port_, p.seq, bytes);
  }
}

void TxPort::departed(const Packet& p) {
  ++counters_.tx_packets;
  counters_.tx_bytes += p.buffer_bytes();
  if (fabric_ != nullptr) {
    fabric_->on_tx(p.buffer_bytes(), queued_bytes_,
                   telemetry::fabric::label_bucket(p.dst_mac), sim_.now());
  }
  if (telem_ == nullptr) return;
  if (telem_->label_flight != nullptr) {
    telem_->label_flight->add(p.dst_mac,
                              -static_cast<std::int64_t>(p.buffer_bytes()));
  }
  if (telem_->spans != nullptr && p.span_id != 0) {
    telem_->spans->annotate(p.span_id, telemetry::SpanEventKind::kDequeue,
                            sim_.now(), node_, port_, p.seq, p.buffer_bytes());
  }
}

void TxPort::dropped(const Packet& p, TapDropCause cause) {
  ++counters_.dropped_packets;
  counters_.dropped_bytes += p.buffer_bytes();
  if (cause == TapDropCause::kLossModel) ++counters_.loss_model_drops;
  if (cause == TapDropCause::kCorrupt) ++counters_.corrupt_drops;
  if (fabric_ != nullptr) {
    fabric_->on_drop(telemetry::fabric::label_bucket(p.dst_mac), cause);
  }
  record_drop(telem_, tap_, sim_.now(), node_, port_, p, cause);
}

}  // namespace presto::net
