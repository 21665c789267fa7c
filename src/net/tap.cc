#include "net/tap.h"

#include "telemetry/probes.h"

namespace presto::net {

void record_drop(const telemetry::DropProbes* probes, WireTap* tap,
                 sim::Time now, std::uint32_t node, PortId port,
                 const Packet& p, TapDropCause cause) {
  if (tap != nullptr) tap->on_drop(node, port, p, cause);
  if (probes == nullptr) return;
  if (telemetry::Counter* c = probes->drop[static_cast<std::size_t>(cause)]) {
    c->inc();
  }
  if (probes->tracer != nullptr) {
    probes->tracer->record(now, telemetry::EventType::kDrop, node, port,
                           static_cast<std::uint64_t>(cause),
                           p.buffer_bytes());
  }
  if (probes->spans != nullptr && p.span_id != 0) {
    probes->spans->annotate(p.span_id, telemetry::SpanEventKind::kDrop, now,
                            node, port, p.seq, p.buffer_bytes());
  }
}

}  // namespace presto::net
