// Output port: drop-tail byte-limited FIFO + link serializer + propagation.
//
// This fuses the classic "queue + link" pair: enqueue() appends to the
// drop-tail queue (counting drops when the byte cap is exceeded); an idle
// serializer drains the queue at the configured line rate and delivers each
// frame to the attached peer after the propagation delay.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "net/packet.h"
#include "net/packet_pool.h"
#include "net/sink.h"
#include "net/tap.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "telemetry/probes.h"

namespace presto::telemetry::fabric {
class PortMonitor;
}

namespace presto::net {

/// Static configuration of a unidirectional link attached to a port.
struct LinkConfig {
  /// Line rate in bits per second (default 10 GbE).
  double rate_bps = 10e9;
  /// One-way propagation delay.
  sim::Time propagation = 500 * sim::kNanosecond;
  /// Drop-tail queue capacity in buffered bytes (frame bytes, no framing).
  std::uint64_t queue_bytes = 500 * 1024;
};

/// Per-port counters (the paper reads loss from switch counters; see §4).
struct PortCounters {
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t enqueued_packets = 0;
  std::uint64_t dropped_packets = 0;
  std::uint64_t dropped_bytes = 0;
  std::uint64_t loss_model_drops = 0;  ///< eaten by a degraded-link model
  std::uint64_t corrupt_drops = 0;     ///< random corruption (FCS fail)

  /// Adds every field of `o` (switch-wide totals).
  PortCounters& operator+=(const PortCounters& o) {
    tx_packets += o.tx_packets;
    tx_bytes += o.tx_bytes;
    enqueued_packets += o.enqueued_packets;
    dropped_packets += o.dropped_packets;
    dropped_bytes += o.dropped_bytes;
    loss_model_drops += o.loss_model_drops;
    corrupt_drops += o.corrupt_drops;
    return *this;
  }
};

/// Degraded-link model: Gilbert–Elliott two-state burst loss plus an
/// independent per-frame corruption probability (frames failing FCS at the
/// receiver are indistinguishable from loss, so both are modeled as drops at
/// the wire but counted separately). State advances one step per serialized
/// frame, so a given seed yields the same drop pattern run to run.
struct LossModel {
  double loss_good = 0.0;  ///< drop probability in the Good state
  double loss_bad = 1.0;   ///< drop probability in the Bad (burst) state
  double p_gb = 0.0;       ///< per-frame Good -> Bad transition probability
  double p_bg = 1.0;       ///< per-frame Bad -> Good transition probability
  double corrupt = 0.0;    ///< independent per-frame corruption probability

  bool active() const {
    return loss_good > 0 || p_gb > 0 || corrupt > 0;
  }
};

/// Unidirectional output port. The peer sink/port are fixed at wiring time.
class TxPort {
 public:
  /// `node`/`port` label every trace event, span and tap callback of this
  /// port: the owning switch id (or kHostNodeBit | host id for a host
  /// uplink) and the local port id.
  TxPort(sim::Simulation& sim, LinkConfig cfg, std::uint32_t node = 0,
         PortId port = kInvalidPort)
      : sim_(sim), cfg_(cfg), node_(node), port_(port) {}

  TxPort(const TxPort&) = delete;
  TxPort& operator=(const TxPort&) = delete;

  /// Attaches the receiving end: frames are delivered to
  /// `peer->receive(p, peer_in_port)`.
  void connect(PacketSink* peer, PortId peer_in_port) {
    peer_ = peer;
    peer_in_port_ = peer_in_port;
  }

  /// Queues a frame for transmission; drops it (and counts the drop) if the
  /// queue is full or the link is administratively down.
  void enqueue(Packet p);

  /// Administrative/link state. A down port drops everything enqueued.
  void set_down(bool down) { down_ = down; }
  bool down() const { return down_; }

  /// Installs a degraded-link model with its own deterministic RNG stream
  /// (one GE step + optional corruption roll per serialized frame).
  void set_loss_model(const LossModel& model, std::uint64_t seed) {
    loss_.emplace(DegradedState{model, sim::Rng(seed), false});
  }
  /// Heals the link: removes the loss model entirely.
  void clear_loss_model() { loss_.reset(); }
  bool degraded() const { return loss_.has_value(); }

  const PortCounters& counters() const { return counters_; }
  const LinkConfig& config() const { return cfg_; }

  /// Currently queued bytes (excludes the frame being serialized).
  std::uint64_t queued_bytes() const { return queued_bytes_; }
  bool connected() const { return peer_ != nullptr; }

  /// Attaches metrics/tracing probes (null disables).
  void attach_telemetry(const telemetry::PortProbes* probes) {
    telem_ = probes;
  }

  /// Attaches an in-fabric telemetry monitor (null disables). The monitor
  /// sees every enqueue/dequeue/drop behind one null check; see
  /// telemetry/fabric/monitor.h for what it records.
  void set_fabric_monitor(telemetry::fabric::PortMonitor* mon) {
    fabric_ = mon;
  }

  /// Attaches a checker wire tap (null disables).
  void set_tap(WireTap* tap) { tap_ = tap; }

 private:
  struct DegradedState {
    LossModel model;
    sim::Rng rng;
    bool bad = false;  ///< current Gilbert–Elliott state
  };

  void start_transmission();
  /// Serializer completion for the queue head: dequeue, count, and launch
  /// the propagation event (or drop via the loss model / down state).
  void finish_transmission();
  /// Why the wire loses the frame just serialized, if it does: the port is
  /// down, or the degraded-link model (stepped once per frame) eats it.
  std::optional<TapDropCause> wire_drop();

  // One fan-out per datapath event: each is the single place that updates
  // the port counters, the fabric monitor, the tap and the telemetry probes
  // for it. Called with the queue state already updated.
  void enqueued(const Packet& p);
  void departed(const Packet& p);
  void dropped(const Packet& p, TapDropCause cause);

  sim::Simulation& sim_;
  LinkConfig cfg_;
  PacketSink* peer_ = nullptr;
  PortId peer_in_port_ = kInvalidPort;

  /// Queued frames live in pooled slots; the deque holds only pointers, and
  /// in-flight propagation events capture {this, slot} inline.
  PacketPool pool_;
  std::deque<Packet*> queue_;
  std::uint64_t queued_bytes_ = 0;
  bool busy_ = false;
  bool down_ = false;
  std::optional<DegradedState> loss_;
  PortCounters counters_;

  std::uint32_t node_;
  PortId port_;
  const telemetry::PortProbes* telem_ = nullptr;
  telemetry::fabric::PortMonitor* fabric_ = nullptr;
  WireTap* tap_ = nullptr;
};

}  // namespace presto::net
