#include "lb/registry.h"

#include "core/flowcell_engine.h"
#include "lb/diffflow_lb.h"
#include "lb/ecmp_lb.h"
#include "lb/flowlet_lb.h"
#include "lb/per_packet_lb.h"
#include "lb/sprinklers_lb.h"

namespace presto::lb {

namespace {

std::unique_ptr<SenderLb> make_presto(const LbContext& ctx, bool per_hop) {
  core::FlowcellConfig fc;
  fc.seed = ctx.seed;
  fc.threshold_bytes = ctx.tuning.flowcell_bytes;
  if (per_hop) {
    fc.per_hop_ecmp = true;
  } else {
    fc.random_selection = ctx.tuning.flowcell_random_selection;
    fc.path_suspicion = ctx.tuning.edge_suspicion;
  }
  auto engine = std::make_unique<core::FlowcellEngine>(*ctx.labels, fc);
  engine->set_clock(ctx.sim);
  return engine;
}

}  // namespace

SchemeRegistry::SchemeRegistry() {
  auto add = [this](SchemeInfo info) { infos_.push_back(std::move(info)); };

  {
    SchemeInfo s;
    s.id = Scheme::kEcmp;
    s.spec_name = "ecmp";
    s.display = "ECMP";
    s.reordering_free = true;  // one cached label per flow, FIFO path
    s.differential_ok = true;
    s.factory = [](const LbContext& ctx) -> std::unique_ptr<SenderLb> {
      return std::make_unique<EcmpLb>(*ctx.labels, ctx.seed);
    };
    add(std::move(s));
  }
  {
    SchemeInfo s;
    s.id = Scheme::kMptcp;
    s.spec_name = "mptcp";
    s.display = "MPTCP";
    s.uses_mptcp_channel = true;
    // Subflows individually ride fixed ECMP paths, but the scheme's unit of
    // delivery is the meta-stream, so no in-order claim is made.
    s.factory = [](const LbContext& ctx) -> std::unique_ptr<SenderLb> {
      return std::make_unique<EcmpLb>(*ctx.labels, ctx.seed);
    };
    add(std::move(s));
  }
  {
    SchemeInfo s;
    s.id = Scheme::kPresto;
    s.spec_name = "presto";
    s.display = "Presto";
    s.rx = RxOffload::kPrestoGro;
    s.differential_ok = true;
    s.factory = [](const LbContext& ctx) {
      return make_presto(ctx, /*per_hop=*/false);
    };
    add(std::move(s));
  }
  {
    SchemeInfo s;
    s.id = Scheme::kOptimal;
    s.spec_name = "optimal";
    s.display = "Optimal";
    s.single_switch = true;
    s.reordering_free = true;  // one switch, one FIFO queue per host
    add(std::move(s));
  }
  {
    SchemeInfo s;
    s.id = Scheme::kFlowlet;
    s.spec_name = "flowlet";
    s.display = "Flowlet";
    s.differential_ok = true;
    s.factory = [](const LbContext& ctx) -> std::unique_ptr<SenderLb> {
      // One fixed inactivity timer: the RTT-tracked gap clamps to it.
      const sim::Time gap = ctx.tuning.flowlet_gap;
      return std::make_unique<FlowletLb>(
          *ctx.sim, *ctx.labels,
          FlowletLb::Config{.default_gap = gap, .min_gap = gap, .max_gap = gap},
          ctx.seed);
    };
    add(std::move(s));
  }
  {
    SchemeInfo s;
    s.id = Scheme::kPrestoEcmp;
    s.spec_name = "presto_ecmp";
    s.display = "Presto+ECMP";
    s.rx = RxOffload::kPrestoGro;
    s.differential_ok = true;
    s.factory = [](const LbContext& ctx) {
      return make_presto(ctx, /*per_hop=*/true);
    };
    add(std::move(s));
  }
  {
    SchemeInfo s;
    s.id = Scheme::kPerPacket;
    s.spec_name = "per_packet";
    s.display = "PerPacket";
    s.rx = RxOffload::kPrestoGro;
    s.differential_ok = true;
    s.factory = [](const LbContext& ctx) -> std::unique_ptr<SenderLb> {
      return std::make_unique<PerPacketLb>(*ctx.labels, ctx.seed);
    };
    add(std::move(s));
  }
  {
    SchemeInfo s;
    s.id = Scheme::kFlowDyn;
    s.spec_name = "flowdyn";
    s.display = "FlowDyn";
    s.differential_ok = true;
    s.factory = [](const LbContext& ctx) -> std::unique_ptr<SenderLb> {
      return std::make_unique<FlowletLb>(
          *ctx.sim, *ctx.labels,
          FlowletLb::Config{.default_gap = ctx.tuning.flowlet_gap}, ctx.seed);
    };
    add(std::move(s));
  }
  {
    SchemeInfo s;
    s.id = Scheme::kDiffFlow;
    s.spec_name = "diffflow";
    s.display = "DiffFlow";
    s.rx = RxOffload::kPrestoGro;
    s.differential_ok = true;
    s.factory = [](const LbContext& ctx) -> std::unique_ptr<SenderLb> {
      DiffFlowLb::Config cfg;
      cfg.cell_bytes = ctx.tuning.flowcell_bytes;
      return std::make_unique<DiffFlowLb>(*ctx.labels, cfg, ctx.seed);
    };
    add(std::move(s));
  }
  {
    SchemeInfo s;
    s.id = Scheme::kSprinklers;
    s.spec_name = "sprinklers";
    s.display = "Sprinklers";
    s.reordering_free = true;  // ACK-gated rotation: see sprinklers_lb.h
    s.differential_ok = true;
    s.factory = [](const LbContext& ctx) -> std::unique_ptr<SenderLb> {
      SprinklersLb::Config cfg;
      cfg.cell_bytes = ctx.tuning.flowcell_bytes;
      return std::make_unique<SprinklersLb>(*ctx.labels, cfg, ctx.seed);
    };
    add(std::move(s));
  }
}

const SchemeRegistry& SchemeRegistry::instance() {
  static const SchemeRegistry registry;
  return registry;
}

const SchemeInfo& SchemeRegistry::info(Scheme s) const {
  return infos_.at(static_cast<std::size_t>(s));
}

const SchemeInfo* SchemeRegistry::find(std::string_view spec_name) const {
  for (const SchemeInfo& s : infos_) {
    if (spec_name == s.spec_name) return &s;
  }
  return nullptr;
}

std::vector<Scheme> SchemeRegistry::differential_schemes() const {
  std::vector<Scheme> out;
  for (const SchemeInfo& s : infos_) {
    if (s.differential_ok) out.push_back(s.id);
  }
  return out;
}

const char* scheme_display_name(Scheme s) {
  return SchemeRegistry::instance().info(s).display;
}

const char* scheme_spec_id(Scheme s) {
  return SchemeRegistry::instance().info(s).spec_name;
}

bool parse_scheme_id(std::string_view name, Scheme* out) {
  const SchemeInfo* s = SchemeRegistry::instance().find(name);
  if (s == nullptr) return false;
  *out = s->id;
  return true;
}

std::unique_ptr<SenderLb> make_scheme_lb(Scheme scheme, const LbContext& ctx) {
  const SchemeInfo& s = SchemeRegistry::instance().info(scheme);
  return s.factory ? s.factory(ctx) : nullptr;
}

}  // namespace presto::lb
