// Wire-tap observer interface for invariant checkers (src/check), the drop
// vocabulary (TapDropCause) and the drop fan-out every drop site shares.
//
// A WireTap sees every datapath event that creates, moves, terminates, or
// destroys a frame: acceptance into a transmit queue, arrival at a switch or
// host, and every drop with its cause. Components hold a single nullable
// pointer (the same pattern as the telemetry probe bundles), so a disarmed
// tap costs one predictable branch per event and nothing else — benches and
// paper runs never pay for the checkers.
//
// Node identifiers follow the telemetry convention: switch ids are dense
// from 0; host-owned ports (the uplink) set kHostNodeBit so one 32-bit node
// id names either kind.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/packet.h"
#include "net/types.h"
#include "sim/time.h"

namespace presto::telemetry {
struct DropProbes;
}

namespace presto::net {

/// Marks a node id as naming a host rather than a switch.
inline constexpr std::uint32_t kHostNodeBit = 0x8000'0000u;

/// Why a frame ceased to exist: the one drop vocabulary of the simulator.
/// PortCounters, the telemetry probes (counters, trace `a` operand, spans),
/// the fabric PortMonitor and the WireTap all index or report by it.
enum class TapDropCause : std::uint8_t {
  kQueueFull,    ///< Drop-tail: queue byte cap exceeded at enqueue.
  kLinkDown,     ///< Port down (or unconnected) at enqueue time.
  kLinkDownTx,   ///< Port went down while the frame sat in the queue.
  kLossModel,    ///< Eaten by the Gilbert–Elliott degraded-link model.
  kCorrupt,      ///< Random corruption (FCS failure at the receiver).
  kNoRoute,      ///< No forwarding entry matched at a switch.
  kHostRing,     ///< Receive-ring overflow (receive-livelock protection).
};

/// Number of TapDropCause values (size of every per-cause array).
inline constexpr std::size_t kTapDropCauses = 7;
static_assert(static_cast<std::size_t>(TapDropCause::kHostRing) + 1 ==
              kTapDropCauses);

const char* tap_drop_cause_name(TapDropCause c);

/// Datapath observer. All callbacks fire synchronously at the point the
/// event happens; implementations must not mutate the simulation from
/// inside a callback. Default implementations ignore everything so a
/// checker overrides only what it needs.
class WireTap {
 public:
  virtual ~WireTap() = default;

  /// `p` was accepted into the transmit queue of `node`'s local port
  /// `port`. For host uplinks (`node & kHostNodeBit`) this is the moment a
  /// frame is injected into the network.
  virtual void on_port_enqueue(std::uint32_t node, PortId port,
                               const Packet& p) {
    (void)node; (void)port; (void)p;
  }

  /// `p` was destroyed at `node`/`port` for `cause`. Every frame that was
  /// previously enqueued and is not delivered must pass through here
  /// exactly once (the conservation oracle counts on it).
  virtual void on_drop(std::uint32_t node, PortId port, const Packet& p,
                       TapDropCause cause) {
    (void)node; (void)port; (void)p; (void)cause;
  }

  /// `p` arrived at switch `sw` on local input port `in_port` (before the
  /// forwarding decision).
  virtual void on_switch_rx(SwitchId sw, PortId in_port, const Packet& p) {
    (void)sw; (void)in_port; (void)p;
  }

  /// `p` was accepted into host `host`'s NIC receive ring (ring-overflow
  /// drops fire on_drop with kHostRing instead).
  virtual void on_host_rx(HostId host, const Packet& p) {
    (void)host; (void)p;
  }
};

/// The drop fan-out shared by every drop site (port, switch, host): the
/// checker tap, the per-cause counter, the trace event and the sampled span.
/// `probes` and `tap` may be null; `node`/`port` name the dropping site.
void record_drop(const telemetry::DropProbes* probes, WireTap* tap,
                 sim::Time now, std::uint32_t node, PortId port,
                 const Packet& p, TapDropCause cause);

inline const char* tap_drop_cause_name(TapDropCause c) {
  switch (c) {
    case TapDropCause::kQueueFull: return "queue_full";
    case TapDropCause::kLinkDown: return "link_down";
    case TapDropCause::kLinkDownTx: return "link_down_tx";
    case TapDropCause::kLossModel: return "loss_model";
    case TapDropCause::kCorrupt: return "corrupt";
    case TapDropCause::kNoRoute: return "no_route";
    case TapDropCause::kHostRing: return "host_ring";
  }
  return "?";
}

}  // namespace presto::net
