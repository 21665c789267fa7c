// Per-layer probe bundles and the telemetry Session that owns them.
//
// A probe bundle is a struct of instrument pointers, resolved from the
// Registry once when a Session is created. Components store a
// `const XxxProbes*` (null => telemetry disabled) and guard updates with a
// single null check, so the disabled path costs one predictable branch.
//
// The Session is owned by the Experiment: one per simulation replica, never
// shared across sweep threads.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "net/tap.h"
#include "net/types.h"
#include "sim/time.h"
#include "telemetry/fabric/config.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "telemetry/timeseries.h"

namespace presto::telemetry {

/// Experiment-level telemetry switches (part of ExperimentConfig).
struct TelemetryConfig {
  /// Master switch: collect counters/gauges/histograms.
  bool metrics = false;

  // -- flight recorder (DESIGN.md §10) --
  /// Periodically sample registered gauges into bounded time-series rings
  /// (TimeSeriesConfig::capacity points per series).
  bool timeseries = false;
  sim::Time sample_interval = 100 * sim::kMicrosecond;
  /// Open a causal span for every Nth dispatched flowcell (0 = off); the
  /// span and event bounds are SpanTracerConfig's.
  std::uint32_t span_sample_every = 0;

  /// In-fabric telemetry plane (switch-side monitors + collection protocol
  /// + anomaly layer; DESIGN.md §15). Independent of `metrics`.
  fabric::FabricConfig fabric;

  /// True when any flight-recorder component is on (drives Session creation
  /// and trace-file export even with `metrics` off).
  bool flight_recorder() const { return timeseries || span_sample_every > 0; }
};

/// Per-spanning-tree in-flight byte table, maintained by every TxPort
/// (enqueue adds, dequeue/drop subtracts) and read by the sampler as the
/// "label in-flight" gauge family. Plain array — ports and sampler live on
/// the same replica thread.
struct LabelFlight {
  static constexpr std::size_t kMaxTrees = 16;
  std::array<std::int64_t, kMaxTrees> bytes{};

  void add(net::MacAddr dst, std::int64_t delta) {
    if (!net::is_shadow_mac(dst)) return;
    const std::uint32_t tree = net::mac_tree(dst);
    if (tree < kMaxTrees) bytes[tree] += delta;
  }
};

/// What every drop site records besides its own counters and the fabric
/// monitor: one counter per net::TapDropCause (null where the site never
/// drops for that cause; kLinkDownTx shares kLinkDown's counter) and the
/// span tracer. net::record_drop is their one writer.
struct DropProbes {
  std::array<Counter*, net::kTapDropCauses> drop{};
  SpanTracer* spans = nullptr;
};

/// net::TxPort — queue occupancy and drops by cause.
struct PortProbes : DropProbes {
  Counter* enqueued = nullptr;
  Histogram* queue_depth_bytes = nullptr;  ///< sampled after each enqueue
  LabelFlight* label_flight = nullptr;
};

/// net::Switch — forwarding-table misses (drop[kNoRoute]).
struct SwitchProbes : DropProbes {};

/// core::FlowcellEngine — cell creation, label spread, and path suspicion.
struct FlowcellProbes {
  Counter* cells = nullptr;
  Counter* segments = nullptr;
  Counter* suspicion_signals = nullptr;  ///< loss/timeout signals received
  Counter* suspicion_skips = nullptr;    ///< dispatches steered off a label
  Counter* suspicion_clears = nullptr;   ///< spurious-recovery exonerations
  Histogram* label_index = nullptr;     ///< chosen slot per dispatch
  Histogram* cells_per_flow = nullptr;  ///< published at snapshot time
  SpanTracer* spans = nullptr;
};

/// offload GRO engines — merges and flush decisions by cause.
struct GroProbes {
  Counter* merges = nullptr;
  Counter* pushed = nullptr;
  Histogram* segment_bytes = nullptr;  ///< pushed segment sizes
  Counter* flush_same_flowcell = nullptr;
  Counter* flush_in_order = nullptr;
  Counter* flush_overlap = nullptr;
  Counter* flush_timeout = nullptr;  ///< boundary-hold timeout fires
  Counter* flush_stale = nullptr;
  Counter* holds = nullptr;
  SpanTracer* spans = nullptr;
};

/// tcp::TcpSender loss-recovery counters, in TcpSenderStats order (fast
/// retransmits, timeouts, retransmitted bytes, dup ACKs, spurious
/// recoveries). TCP holds no probe: the Session registers these names and
/// harness::Experiment::telemetry_snapshot() writes each as the sum over
/// every sender.
inline constexpr const char* kTcpCounters[] = {
    "tcp.retx.fast", "tcp.retx.timeout", "tcp.retx.bytes", "tcp.dup_acks",
    "tcp.spurious_recoveries"};

/// controller::Controller — failure reaction and schedule churn.
struct ControllerProbes {
  Counter* link_failures = nullptr;
  Counter* link_restores = nullptr;
  Counter* ingress_reroutes = nullptr;
  Counter* reweight_pushes = nullptr;   ///< push_weighted_schedules calls
  Counter* schedules_set = nullptr;     ///< schedules (re)installed
  Counter* noop_transitions = nullptr;  ///< redundant fail/restore ignored
  Counter* pushes_dropped = nullptr;    ///< control-plane fault ate a push
  Counter* pushes_delayed = nullptr;    ///< control-plane fault delayed one
};

/// fault::FaultInjector — injected fault activity by class.
struct FaultProbes {
  Counter* events = nullptr;          ///< every fault event fired
  Counter* link_events = nullptr;     ///< link down/up/flap transitions
  Counter* degrade_events = nullptr;  ///< loss-model installs/heals
  Counter* switch_events = nullptr;   ///< switch fail-stop/restore
  Counter* control_events = nullptr;  ///< control-plane fault arms/clears
};

/// Owns the Registry (+ optional flight recorder) for one experiment
/// replica and the pre-resolved probe bundles handed to components. Creating
/// the session eagerly registers every instrument name, so emitted snapshots
/// always carry the full cross-layer key set even when a counter stayed at
/// zero.
class Session {
 public:
  explicit Session(const TelemetryConfig& cfg);

  Registry& registry() { return registry_; }
  /// Null when the time-series flight recorder is disabled.
  TimeSeriesSampler* sampler() { return sampler_.get(); }
  const TimeSeriesSampler* sampler() const { return sampler_.get(); }
  /// Null when span tracing is disabled.
  SpanTracer* spans() { return spans_.get(); }
  const SpanTracer* spans() const { return spans_.get(); }
  LabelFlight& label_flight() { return label_flight_; }

  const PortProbes* port_probes() const { return &port_; }
  const SwitchProbes* switch_probes() const { return &switch_; }
  const FlowcellProbes* flowcell_probes() const { return &flowcell_; }
  const GroProbes* gro_probes() const { return &gro_; }
  const ControllerProbes* controller_probes() const { return &controller_; }
  const FaultProbes* fault_probes() const { return &fault_; }

  Snapshot snapshot() const { return registry_.snapshot(); }

 private:
  Registry registry_;
  std::unique_ptr<TimeSeriesSampler> sampler_;
  std::unique_ptr<SpanTracer> spans_;
  LabelFlight label_flight_;
  PortProbes port_;
  SwitchProbes switch_;
  FlowcellProbes flowcell_;
  GroProbes gro_;
  ControllerProbes controller_;
  FaultProbes fault_;
};

}  // namespace presto::telemetry
