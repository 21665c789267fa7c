// Configuration for the in-fabric telemetry plane (DESIGN.md §15).
//
// The plane has three layers, each gated here:
//   * switch-side PortMonitor/SwitchMonitor hooks on the TxPort hot paths
//     (enabled by `monitors`; O(1) per event, zero steady-state allocation);
//   * a collection protocol that flushes cumulative TelemetryReport frames
//     to the FabricCollector every `flush_period` through the control plane
//     (0 disables the protocol — monitors can still be scraped directly,
//     which is what the deterministic scenario/soak tiers do);
//   * anomaly detection in FabricCollector::health().
// Only what a bench or test varies is a field here; the fixed tuning
// (report transit delay, sketch sampling, watermark decay, anomaly
// thresholds) is a named constant next to the code that reads it.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace presto::telemetry::fabric {

struct FabricConfig {
  /// Master switch: attach monitors to every switch port.
  bool monitors = false;
  /// Measurement aid for perf_core's paired overhead runs: when false, the
  /// whole plane is still built (monitors allocated, flush schedule and
  /// collector running) but the TxPort hooks are NOT attached, so the
  /// packet hot path runs exactly as with `monitors = false`. Holding the
  /// allocation sequence constant this way isolates the hook cost from
  /// heap-layout luck, which on some hosts swings paired throughput runs
  /// by more than the hooks themselves cost.
  bool attach_hooks = true;

  // -- collection protocol --
  /// Period between monitor flushes to the collector (0 = no scheduled
  /// flushes; reports only via FabricPlane::collect_now()).
  sim::Time flush_period = 0;

  // -- monitor thresholds --
  /// Queue occupancy (bytes) above which a microburst episode is open.
  std::uint64_t microburst_threshold_bytes = 150 * 1024;
  /// EWMA weight for the per-port utilization estimate (per flush window).
  double util_alpha = 0.3;
};

}  // namespace presto::telemetry::fabric
