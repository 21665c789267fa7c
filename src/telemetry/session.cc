#include "telemetry/probes.h"

namespace presto::telemetry {

Session::Session(const TelemetryConfig& cfg) {
  if (cfg.trace) {
    tracer_ = std::make_unique<Tracer>(cfg.trace_capacity);
  }
  if (cfg.timeseries) {
    sampler_ = std::make_unique<TimeSeriesSampler>(TimeSeriesConfig{
        cfg.sample_interval, cfg.timeseries_capacity});
  }
  if (cfg.span_sample_every > 0) {
    spans_ = std::make_unique<SpanTracer>(SpanTracerConfig{
        cfg.span_sample_every, cfg.span_max_spans, cfg.span_max_events});
  }
  Tracer* tr = tracer_.get();
  SpanTracer* sp = spans_.get();

  port_.spans = sp;
  port_.label_flight = &label_flight_;
  switch_.spans = sp;
  flowcell_.spans = sp;
  gro_.spans = sp;
  tcp_.spans = sp;

  port_.enqueued = &registry_.counter("net.port.enqueued_packets");
  // Drop counters are named after the cause: net.port.dropped.queue_full,
  // .link_down, .loss_model, .corrupt and net.switch.dropped.no_route. A
  // frame lost under a link that went down while it was queued counts as
  // link_down.
  using net::TapDropCause;
  const auto at = [](TapDropCause c) { return static_cast<std::size_t>(c); };
  for (TapDropCause c : {TapDropCause::kQueueFull, TapDropCause::kLinkDown,
                         TapDropCause::kLossModel, TapDropCause::kCorrupt}) {
    port_.drop[at(c)] = &registry_.counter(std::string("net.port.dropped.") +
                                           net::tap_drop_cause_name(c));
  }
  port_.drop[at(TapDropCause::kLinkDownTx)] =
      port_.drop[at(TapDropCause::kLinkDown)];
  port_.queue_depth_bytes = &registry_.histogram("net.port.queue_depth_bytes");
  port_.tracer = tr;

  switch_.drop[at(TapDropCause::kNoRoute)] =
      &registry_.counter("net.switch.dropped.no_route");
  switch_.tracer = tr;

  flowcell_.cells = &registry_.counter("core.flowcell.cells");
  flowcell_.segments = &registry_.counter("core.flowcell.segments");
  flowcell_.suspicion_signals =
      &registry_.counter("core.flowcell.suspicion.signals");
  flowcell_.suspicion_skips =
      &registry_.counter("core.flowcell.suspicion.skips");
  flowcell_.suspicion_clears =
      &registry_.counter("core.flowcell.suspicion.clears");
  flowcell_.label_index = &registry_.histogram("core.flowcell.label_index");
  flowcell_.cells_per_flow =
      &registry_.histogram("core.flowcell.cells_per_flow");
  flowcell_.tracer = tr;

  gro_.merges = &registry_.counter("offload.gro.merges");
  gro_.pushed = &registry_.counter("offload.gro.pushed");
  gro_.segment_bytes = &registry_.histogram("offload.gro.segment_bytes");
  gro_.flush_same_flowcell =
      &registry_.counter("offload.gro.flush.same_flowcell");
  gro_.flush_in_order = &registry_.counter("offload.gro.flush.in_order");
  gro_.flush_overlap = &registry_.counter("offload.gro.flush.overlap");
  gro_.flush_timeout = &registry_.counter("offload.gro.flush.timeout");
  gro_.flush_stale = &registry_.counter("offload.gro.flush.stale");
  gro_.holds = &registry_.counter("offload.gro.holds");
  gro_.tracer = tr;

  tcp_.fast_retransmits = &registry_.counter("tcp.retx.fast");
  tcp_.rtos = &registry_.counter("tcp.retx.timeout");
  tcp_.retransmitted_bytes = &registry_.counter("tcp.retx.bytes");
  tcp_.dup_acks = &registry_.counter("tcp.dup_acks");
  tcp_.spurious_recoveries = &registry_.counter("tcp.spurious_recoveries");
  tcp_.tracer = tr;

  controller_.link_failures = &registry_.counter("controller.link_failures");
  controller_.link_restores = &registry_.counter("controller.link_restores");
  controller_.ingress_reroutes =
      &registry_.counter("controller.ingress_reroutes");
  controller_.reweight_pushes =
      &registry_.counter("controller.reweight_pushes");
  controller_.schedules_set = &registry_.counter("controller.schedules_set");
  controller_.noop_transitions =
      &registry_.counter("controller.noop_transitions");
  controller_.pushes_dropped = &registry_.counter("controller.pushes_dropped");
  controller_.pushes_delayed = &registry_.counter("controller.pushes_delayed");
  controller_.tracer = tr;

  fault_.events = &registry_.counter("fault.events");
  fault_.link_events = &registry_.counter("fault.link_events");
  fault_.degrade_events = &registry_.counter("fault.degrade_events");
  fault_.switch_events = &registry_.counter("fault.switch_events");
  fault_.control_events = &registry_.counter("fault.control_events");
  fault_.tracer = tr;
}

Snapshot Session::snapshot() const {
  Snapshot s = registry_.snapshot();
  if (tracer_ != nullptr) {
    s.trace_events = tracer_->total();
    s.trace_dropped = tracer_->dropped();
  }
  return s;
}

}  // namespace presto::telemetry
