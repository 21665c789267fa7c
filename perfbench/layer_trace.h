// Layer tracing from outside the simulator.
//
// The traced runs time calls into the simulator's public entry points
// without any source change: every Switch and Host is wrapped in a timing
// net::PacketSink decorator (re-wired with TxPort::connect from the
// topology's link records), and the oracle Checker, when armed, is wrapped
// in a timing net::WireTap decorator installed after Checker::arm(). A
// layer's self time is its call time minus the wrapped calls nested inside
// it (the tap runs inside switch and host rx). Spans are aggregated in
// memory per layer and read out after the run.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "check/oracle.h"
#include "harness/experiment.h"
#include "net/sink.h"
#include "net/tap.h"

namespace perfbench {

inline std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Aggregated spans of one layer.
struct LayerTime {
  std::uint64_t calls = 0;
  std::int64_t self_ns = 0;
};

/// Nesting context shared by every decorator of one run: `child_ns` holds
/// the time of wrapped calls finished inside the innermost open span.
struct SpanContext {
  std::int64_t child_ns = 0;
};

/// RAII span: charges the call's duration minus nested spans to the layer's
/// self time.
class Span {
 public:
  Span(LayerTime& layer, SpanContext& ctx)
      : layer_(layer), ctx_(ctx), outer_child_(ctx.child_ns),
        start_(mono_ns()) {
    ctx_.child_ns = 0;
  }
  ~Span() {
    const std::int64_t d = mono_ns() - start_;
    ++layer_.calls;
    layer_.self_ns += d - ctx_.child_ns;
    ctx_.child_ns = outer_child_ + d;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerTime& layer_;
  SpanContext& ctx_;
  std::int64_t outer_child_;
  std::int64_t start_;
};

/// Presto flowcells and fresh data bytes as injected by the senders' edge
/// (flowcell ids are sequential per flow, so the per-flow maximum is the
/// flowcell count).
struct FlowcellCounter {
  std::unordered_map<presto::net::FlowKey, std::uint64_t,
                     presto::net::FlowKeyHash>
      max_cell;
  std::uint64_t fresh_bytes = 0;

  void note(const presto::net::Packet& p) {
    if (p.payload == 0 || p.is_retx) return;
    fresh_bytes += p.payload;
    std::uint64_t& m = max_cell[p.flow];
    if (p.flowcell_id > m) m = p.flowcell_id;
  }
  std::uint64_t flowcells() const {
    std::uint64_t n = 0;
    for (const auto& [flow, cells] : max_cell) n += cells;
    return n;
  }
};

/// Timing decorator for a switch or host receive path.
class TimedSink final : public presto::net::PacketSink {
 public:
  TimedSink(presto::net::PacketSink& inner, LayerTime& layer,
            SpanContext& ctx, FlowcellCounter* cells)
      : inner_(inner), layer_(layer), ctx_(ctx), cells_(cells) {}

  void receive(presto::net::Packet p, presto::net::PortId in_port) override {
    if (cells_ != nullptr) cells_->note(p);
    Span s(layer_, ctx_);
    inner_.receive(std::move(p), in_port);
  }

 private:
  presto::net::PacketSink& inner_;
  LayerTime& layer_;
  SpanContext& ctx_;
  FlowcellCounter* cells_;
};

/// Timing decorator for the oracle Checker's wire tap; also counts every
/// frame destroyed, by cause.
class TimedTap final : public presto::net::WireTap {
 public:
  static constexpr std::size_t kCauses = 7;

  TimedTap(presto::net::WireTap& inner, SpanContext& ctx)
      : inner_(inner), ctx_(ctx) {}

  void on_port_enqueue(std::uint32_t node, presto::net::PortId port,
                       const presto::net::Packet& p) override {
    Span s(layer, ctx_);
    inner_.on_port_enqueue(node, port, p);
  }
  void on_drop(std::uint32_t node, presto::net::PortId port,
               const presto::net::Packet& p,
               presto::net::TapDropCause cause) override {
    ++drops[static_cast<std::size_t>(cause)];
    Span s(layer, ctx_);
    inner_.on_drop(node, port, p, cause);
  }
  void on_switch_rx(presto::net::SwitchId sw, presto::net::PortId in_port,
                    const presto::net::Packet& p) override {
    Span s(layer, ctx_);
    inner_.on_switch_rx(sw, in_port, p);
  }
  void on_host_rx(presto::net::HostId host,
                  const presto::net::Packet& p) override {
    Span s(layer, ctx_);
    inner_.on_host_rx(host, p);
  }

  LayerTime layer;
  std::array<std::uint64_t, kCauses> drops{};

 private:
  presto::net::WireTap& inner_;
  SpanContext& ctx_;
};

/// Installs the decorators on a built (not yet running) experiment. With a
/// `checker` (already armed), its wire tap is wrapped as well.
class LayerTracer {
 public:
  LayerTracer(presto::harness::Experiment& ex, presto::check::Checker* checker);
  LayerTracer(const LayerTracer&) = delete;
  LayerTracer& operator=(const LayerTracer&) = delete;

  /// Records the event-queue depth at a slice boundary.
  void sample_pending(std::size_t pending) {
    if (pending > pending_peak) pending_peak = pending;
  }

  LayerTime switch_rx;
  LayerTime host_rx;
  FlowcellCounter cells;
  std::uint64_t gro_segments = 0;
  std::uint64_t gro_frames = 0;
  std::size_t pending_peak = 0;
  /// Null unless a checker was given.
  TimedTap* tap() { return tap_.get(); }

 private:
  SpanContext ctx_;
  std::vector<std::unique_ptr<TimedSink>> sinks_;
  std::unique_ptr<TimedTap> tap_;
};

}  // namespace perfbench
