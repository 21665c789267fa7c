#include "layer_trace.h"

#include "net/topology.h"
#include "offload/segment.h"

namespace perfbench {

using namespace presto;

LayerTracer::LayerTracer(harness::Experiment& ex, check::Checker* checker) {
  net::Topology& topo = ex.topo();
  auto sink = [this](net::PacketSink& inner, LayerTime& layer,
                     FlowcellCounter* cells) {
    sinks_.push_back(std::make_unique<TimedSink>(inner, layer, ctx_, cells));
    return sinks_.back().get();
  };

  // Two decorators per switch: frames from other switches, and frames
  // straight from a host (where the sender edge's flowcells are counted).
  std::vector<TimedSink*> from_switch;
  std::vector<TimedSink*> from_host;
  for (net::SwitchId s = 0; s < topo.switch_count(); ++s) {
    from_switch.push_back(sink(topo.get_switch(s), switch_rx, nullptr));
    from_host.push_back(sink(topo.get_switch(s), switch_rx, &cells));
  }
  for (const net::FabricLink& l : topo.fabric_links()) {
    topo.get_switch(l.leaf).port(l.leaf_port).connect(from_switch[l.spine],
                                                      l.spine_port);
    topo.get_switch(l.spine).port(l.spine_port).connect(from_switch[l.leaf],
                                                        l.leaf_port);
  }
  for (net::HostId h = 0; h < topo.host_count(); ++h) {
    const net::HostAttachment& at = topo.host(h);
    host::Host& host = ex.host(h);
    topo.get_switch(at.edge_switch)
        .port(at.edge_port)
        .connect(sink(host, host_rx, nullptr), 0);
    host.uplink().connect(from_host[at.edge_switch], at.edge_port);
    host.add_segment_tap([this](const offload::Segment& s) {
      ++gro_segments;
      gro_frames += s.pkt_count;
    });
  }

  if (checker != nullptr) {
    tap_ = std::make_unique<TimedTap>(*checker, ctx_);
    for (net::SwitchId s = 0; s < topo.switch_count(); ++s) {
      topo.get_switch(s).set_tap(tap_.get());
    }
    for (net::HostId h = 0; h < topo.host_count(); ++h) {
      ex.host(h).set_tap(tap_.get());
    }
  }
}

}  // namespace perfbench
