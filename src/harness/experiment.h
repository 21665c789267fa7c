// Experiment harness: builds a full testbed (topology + controller + hosts +
// scheme wiring) from a declarative config, and provides channel/app
// factories used by the benchmark drivers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "controller/control_loop.h"
#include "controller/controller.h"
#include "core/flowcell_engine.h"
#include "fault/fault_injector.h"
#include "host/host.h"
#include "lb/mptcp.h"
#include "lb/registry.h"
#include "net/topology.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "telemetry/fabric/plane.h"
#include "telemetry/probes.h"
#include "workload/apps.h"
#include "workload/channel.h"

namespace presto::harness {

/// Load-balancing scheme under test (§4 "Performance Evaluation"). The enum
/// lives in lb::Scheme; the scheme registry (lb/registry.h) is the single
/// source of truth for names, capabilities, and factories.
using Scheme = lb::Scheme;

/// Display name ("Presto") — delegates to the scheme registry.
const char* scheme_name(Scheme s);

struct ExperimentConfig {
  Scheme scheme = Scheme::kPresto;

  // Topology (defaults = the paper's Figure 3 testbed).
  /// Fabric shape. kOptimal overrides it with the single switch; kLeafMesh
  /// ignores `spines` (leaves mesh directly) and skips remote users.
  net::TopologyKind topology = net::TopologyKind::kClos;
  std::uint32_t spines = 4;
  std::uint32_t leaves = 4;
  std::uint32_t hosts_per_leaf = 4;
  std::uint32_t gamma = 1;
  double link_rate_bps = 10e9;
  std::uint64_t switch_buffer_bytes = 400 * 1024;

  // North-south extension (Table 2): remote users attached to spines.
  std::uint32_t remote_users_per_spine = 0;

  // Scheme parameters: the sender-policy knobs, handed to the scheme
  // registry's factory as they are.
  lb::LbTuning lb;
  lb::MptcpConfig mptcp;

  // Host template (gro is overridden per scheme unless `force_gro` is set).
  host::HostConfig host;
  bool force_gro = false;

  controller::ControllerConfig controller;

  // Fault injection (ISSUE 2). `fault_plan` uses the FaultPlan grammar
  // (see src/fault/fault_plan.h); empty disables injection entirely.
  std::string fault_plan;
  /// Dedicated fault RNG stream; 0 derives it from `seed` so sweeps vary
  /// loss patterns with the workload seed unless pinned explicitly.
  std::uint64_t fault_seed = 0;

  /// Telemetry switches. Off by default: the probes cost nothing when no
  /// Session exists (every component holds a null probe pointer).
  telemetry::TelemetryConfig telemetry;

  /// Closed-loop congestion-aware re-weighting (DESIGN.md §17). Disabled =
  /// today's static controller, byte-identical to every pinned digest.
  /// Enabling it forces the fabric telemetry plane on (the loop drives the
  /// flushes itself, so `telemetry.fabric.flush_period` may stay 0).
  controller::ControlLoopConfig control_loop;
  std::uint64_t seed = 1;
};

class Experiment {
 public:
  explicit Experiment(ExperimentConfig cfg);

  sim::Simulation& sim() { return sim_; }
  net::Topology& topo() { return *topo_; }
  controller::Controller& ctl() { return *ctl_; }
  const ExperimentConfig& config() const { return cfg_; }

  /// Null unless cfg.fault_plan is non-empty.
  fault::FaultInjector* fault_injector() { return fault_.get(); }

  host::Host& host(net::HostId h) { return *hosts_.at(h); }
  /// All hosts attached to leaves (the datacenter servers).
  const std::vector<net::HostId>& servers() const { return servers_; }
  /// Spine-attached remote users (north-south endpoints).
  const std::vector<net::HostId>& remote_users() const { return remotes_; }

  /// Pod (edge switch) of a host — used by pattern generators.
  net::SwitchId pod_of(net::HostId h) const {
    return topo_->host(h).edge_switch;
  }

  /// Logical rack of a server: stable across schemes. On the Clos it equals
  /// the physical pod; in Optimal (single switch) mode every host shares one
  /// edge switch, so cross-rack workload filters must use this instead.
  net::SwitchId logical_pod(net::HostId h) const {
    return net::SwitchId{h / cfg_.hosts_per_leaf};
  }

  /// Allocates a fresh flow key (unique ports) from src to dst.
  net::FlowKey alloc_flow(net::HostId src, net::HostId dst);

  /// Opens a scheme-appropriate byte stream (TCP, or MPTCP when the scheme
  /// is kMptcp and `allow_mptcp`).
  std::unique_ptr<workload::ByteChannel> open_channel(net::HostId src,
                                                      net::HostId dst,
                                                      bool allow_mptcp = true);

  /// Opens an RPC channel (request src->dst, app-ACK dst->src); owned by the
  /// experiment.
  workload::RpcChannel& open_rpc(net::HostId src, net::HostId dst,
                                 std::uint32_t response_bytes = 64,
                                 bool allow_mptcp = true);

  /// Starts a bulk transfer (0 bytes = continuous); owned by the experiment.
  workload::ElephantApp& add_elephant(net::HostId src, net::HostId dst,
                                      std::uint64_t bytes = 0,
                                      workload::ElephantApp::CompleteFn done =
                                          nullptr);

  /// Fork of the experiment RNG (per-workload streams).
  sim::Rng fork_rng() { return rng_.fork(); }

  struct Counters {
    std::uint64_t enqueued = 0;
    std::uint64_t dropped = 0;
  };
  Counters switch_counters() const;

  /// Null unless cfg.telemetry enabled metrics or tracing.
  telemetry::Session* telemetry() { return telem_.get(); }
  telemetry::Tracer* tracer() {
    return telem_ != nullptr ? telem_->tracer() : nullptr;
  }
  /// Null unless cfg.telemetry.timeseries.
  telemetry::TimeSeriesSampler* sampler() {
    return telem_ != nullptr ? telem_->sampler() : nullptr;
  }
  /// Null unless cfg.telemetry.span_sample_every > 0.
  telemetry::SpanTracer* spans() {
    return telem_ != nullptr ? telem_->spans() : nullptr;
  }
  bool flight_recorder_enabled() const {
    return telem_ != nullptr &&
           (telem_->sampler() != nullptr || telem_->spans() != nullptr);
  }

  /// Finalizes open spans and renders the Perfetto trace document.
  /// Empty when the flight recorder is off. Idempotent.
  std::string export_trace_json();
  /// Renders the sampled time series as CSV (empty when sampling is off).
  std::string export_timeseries_csv();
  /// Publishes end-of-run derived metrics (flowcells per flow) and returns
  /// the merged registry+trace snapshot. Empty when telemetry is disabled.
  /// Safe to call repeatedly; derived metrics are published once.
  telemetry::Snapshot telemetry_snapshot();

  /// Null unless cfg.telemetry.fabric.monitors.
  telemetry::fabric::FabricPlane* fabric_plane() {
    return fabric_plane_.get();
  }
  /// Renders the fabric_health document for the current state (empty when
  /// the telemetry plane is off).
  std::string fabric_health_json() {
    return fabric_plane_ != nullptr ? fabric_plane_->health_json()
                                    : std::string{};
  }

  /// Null unless cfg.control_loop.enabled.
  controller::ControlLoop* control_loop() { return control_loop_.get(); }

 private:
  void build_hosts();
  std::unique_ptr<lb::SenderLb> make_lb(net::HostId h);
  /// Registers the default gauge set (switch-port queues, per-label
  /// in-flight bytes, GRO holds, app goodput) and starts the sampler.
  void start_flight_recorder();

  ExperimentConfig cfg_;
  sim::Simulation sim_;
  sim::Rng rng_;
  std::unique_ptr<telemetry::Session> telem_;
  std::vector<core::FlowcellEngine*> flowcell_engines_;
  bool telemetry_published_ = false;
  std::unique_ptr<net::Topology> topo_;
  std::unique_ptr<controller::Controller> ctl_;
  std::unique_ptr<telemetry::fabric::FabricPlane> fabric_plane_;
  std::unique_ptr<controller::ControlLoop> control_loop_;
  std::unique_ptr<fault::FaultInjector> fault_;
  std::vector<std::unique_ptr<host::Host>> hosts_;
  std::vector<net::HostId> servers_;
  std::vector<net::HostId> remotes_;
  std::vector<std::uint32_t> next_port_;
  std::vector<std::unique_ptr<workload::RpcChannel>> rpcs_;
  std::vector<std::unique_ptr<workload::ElephantApp>> elephants_;
};

}  // namespace presto::harness
