#include "check/scenario.h"

#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/label_map.h"
#include "lb/sender_lb.h"
#include "net/topology.h"
#include "sim/rng.h"
#include "workload/apps.h"

namespace presto::check {
namespace {

std::string strf(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

/// Log-uniform integer in [lo, hi].
std::uint64_t log_uniform(sim::Rng& rng, std::uint64_t lo, std::uint64_t hi) {
  const double v = static_cast<double>(lo) *
                   std::pow(static_cast<double>(hi) / static_cast<double>(lo),
                            rng.uniform());
  return static_cast<std::uint64_t>(v);
}

/// Shared state of one planted frame eater: dormant until the clock
/// reaches `arm_at`, then it destroys the `target`th data frame it sees.
struct EaterState {
  const sim::Simulation* clk = nullptr;
  sim::Time arm_at = 0;
  std::uint64_t target = 0;
  std::uint64_t seen = 0;
};

/// Sits between a switch port and its peer (a switch or a host): the chosen
/// frame leaves the port but never arrives — no counter, no telemetry, no
/// tap.
class EatingSink final : public net::PacketSink {
 public:
  EatingSink(net::PacketSink& inner, std::shared_ptr<EaterState> st)
      : inner_(inner), st_(std::move(st)) {}

  void receive(net::Packet p, net::PortId in_port) override {
    EaterState& st = *st_;
    if (st.clk->now() >= st.arm_at && p.payload != 0 &&
        ++st.seen == st.target) {
      return;
    }
    inner_.receive(std::move(p), in_port);
  }

 private:
  net::PacketSink& inner_;
  std::shared_ptr<EaterState> st_;
};

/// Sprinklers minus the ACK gate: rotates the label every 8 KB of payload
/// with bytes still in flight, so consecutive stripes of one flow ride
/// different paths concurrently and overtake each other whenever path
/// latencies diverge (asymmetric link speeds make this near-certain).
class StripeLb final : public lb::SenderLb {
 public:
  StripeLb(const core::LabelMap& labels, std::uint64_t seed)
      : labels_(labels), seed_(seed) {}

  void on_segment(net::Packet& seg) override {
    const auto* sched = labels_.schedule(seg.dst_host);
    if (sched == nullptr) return;
    auto [it, fresh] = flows_.try_emplace(seg.flow);
    FlowState& st = it->second;
    if (fresh) st.base = lb::start_path(seg.flow, seed_, sched->size());
    const std::uint64_t stripe = st.bytes / kStripeBytes;
    st.bytes += seg.payload;
    seg.dst_mac = (*sched)[(st.base + stripe) % sched->size()];
    seg.flowcell_id = stripe + 1;
  }

 private:
  static constexpr std::uint64_t kStripeBytes = 8 * 1024;
  struct FlowState {
    std::size_t base = 0;
    std::uint64_t bytes = 0;
  };

  const core::LabelMap& labels_;
  std::uint64_t seed_;
  std::unordered_map<net::FlowKey, FlowState, net::FlowKeyHash> flows_;
};

/// Plants a scenario's test-only defect and returns the sinks it wired in.
/// "eat:N" silently destroys the Nth data frame sent by any switch port —
/// no counter, no telemetry, no tap — which is exactly the class of
/// accounting bug the conservation oracle exists to catch. "eat@<T>us:N" is
/// the slow-burn variant: the eater stays dormant until the simulated clock
/// reaches T, then destroys the Nth data frame it sees (the soak tier's
/// acceptance bug — invisible through every epoch before T). "stripe"
/// replaces every server's sender policy with StripeLb, which breaks the
/// in-order claim of a reordering_free scheme (the ordering oracle's
/// planted violation).
std::vector<std::unique_ptr<net::PacketSink>> install_bug(
    harness::Experiment& ex, const std::string& bug) {
  std::vector<std::unique_ptr<net::PacketSink>> sinks;
  if (bug.empty()) return sinks;
  if (bug == "stripe") {
    for (net::HostId h : ex.servers()) {
      // Seeded as Experiment seeds the scheme's own policy on host h.
      ex.host(h).set_lb(std::make_unique<StripeLb>(
          ex.ctl().label_map(h),
          net::mix64(ex.config().seed ^ (0x5151ULL + h))));
    }
    return sinks;
  }
  if (bug.rfind("eat", 0) == 0) {
    const char* p = bug.c_str() + 3;
    sim::Time arm_at = 0;
    if (*p == '@') {
      char* end = nullptr;
      arm_at = static_cast<sim::Time>(std::strtoll(p + 1, &end, 10)) *
               sim::kMicrosecond;
      if (end == nullptr || std::strncmp(end, "us:", 3) != 0) {
        throw std::invalid_argument("bug eat@<T>us:<N> is malformed: " + bug);
      }
      p = end + 3;
    } else if (*p == ':') {
      ++p;
    } else {
      throw std::invalid_argument("unknown scenario bug: " + bug);
    }
    const std::uint64_t target = std::strtoull(p, nullptr, 10);
    if (target == 0) throw std::invalid_argument("bug eat:N needs N >= 1");
    auto st = std::make_shared<EaterState>(EaterState{&ex.sim(), arm_at,
                                                      target});
    // Re-wire every switch port onto an eating decorator of its peer: one
    // per switch (shared by all its input ports) and one per host.
    auto eater = [&sinks, &st](net::PacketSink& inner) {
      sinks.push_back(std::make_unique<EatingSink>(inner, st));
      return sinks.back().get();
    };
    net::Topology& topo = ex.topo();
    std::vector<net::PacketSink*> to_switch;
    for (net::SwitchId s = 0; s < topo.switch_count(); ++s) {
      to_switch.push_back(eater(topo.get_switch(s)));
    }
    for (const net::FabricLink& l : topo.fabric_links()) {
      topo.get_switch(l.leaf).port(l.leaf_port).connect(to_switch[l.spine],
                                                        l.spine_port);
      topo.get_switch(l.spine).port(l.spine_port).connect(to_switch[l.leaf],
                                                          l.leaf_port);
    }
    for (net::HostId h = 0; h < topo.host_count(); ++h) {
      const net::HostAttachment& at = topo.host(h);
      topo.get_switch(at.edge_switch)
          .port(at.edge_port)
          .connect(eater(ex.host(h)), 0);
    }
    return sinks;
  }
  throw std::invalid_argument("unknown scenario bug: " + bug);
}

harness::ExperimentConfig experiment_config(const Scenario& sc) {
  harness::ExperimentConfig cfg;
  cfg.scheme = sc.scheme;
  cfg.topology = sc.topo;
  cfg.spines = sc.spines;
  cfg.leaves = sc.leaves;
  cfg.hosts_per_leaf = sc.hosts_per_leaf;
  cfg.gamma = sc.gamma;
  cfg.switch_buffer_bytes = sc.switch_buffer_bytes;
  cfg.lb.edge_suspicion = sc.edge_suspicion;
  cfg.seed = sc.seed;
  cfg.fault_plan = sc.fault_plan();
  cfg.fault_seed = sc.seed | 1;  // pinned: shrinking must not reshuffle loss
  // Fabric monitors run passively (flush_period 0 = no scheduled flushes, so
  // drain detection is untouched) purely to widen the soak digest: any
  // divergence in switch-side queue/drop accounting between two runs of the
  // same scenario now trips the checkpoint comparison.
  cfg.telemetry.fabric.monitors = true;
  cfg.telemetry.fabric.flush_period = 0;
  if (sc.ctl.enabled) {
    cfg.control_loop = sc.ctl;
    // The loop stops rescheduling before the cap, so drain detection (and
    // with it the liveness oracle) keeps working on closed-loop scenarios.
    cfg.control_loop.stop_after = sc.cap;
  }
  return cfg;
}

CheckerOptions adjust_options(CheckerOptions opt, const Scenario& sc) {
  // Failover bounce-back and reroutes legitimately move a tree's frames
  // across other spines, so the strict pinning only runs fault-free. The
  // ordering oracle has the same caveat: a reroute races in-flight frames
  // of an otherwise reordering-free scheme.
  opt.strict_tree_spine = opt.strict_tree_spine && sc.fault_units.empty();
  opt.ordering = opt.ordering && sc.fault_units.empty();
  return opt;
}

void append_list_or_dash(std::string& out, const std::string& list) {
  out += list.empty() ? "-" : list;
}

}  // namespace

std::string Scenario::fault_plan() const {
  std::string plan;
  for (const std::string& u : fault_units) {
    if (!plan.empty()) plan += ';';
    plan += u;
  }
  return plan;
}

std::string Scenario::to_string() const {
  std::string out = strf("seed=%" PRIu64 " scheme=%s", seed,
                         lb::scheme_spec_id(scheme));
  if (topo != net::TopologyKind::kClos) {
    out += strf(" topo=%s", net::topology_kind_id(topo));
  }
  out += strf(
      " spines=%u leaves=%u hpl=%u gamma=%u buf=%" PRIu64
      " suspicion=%d cap_us=%" PRId64,
      spines, leaves, hosts_per_leaf, gamma, switch_buffer_bytes,
      edge_suspicion ? 1 : 0,
      static_cast<std::int64_t>(cap / sim::kMicrosecond));
  out += " flows=";
  std::string list;
  for (const FlowSpec& f : flows) {
    if (!list.empty()) list += ',';
    list += strf("%u-%u:%" PRIu64, f.src, f.dst, f.bytes);
  }
  append_list_or_dash(out, list);
  out += " rpcs=";
  list.clear();
  for (const RpcSpec& r : rpcs) {
    if (!list.empty()) list += ',';
    list += strf("%u-%u:%" PRIu64 "x%u", r.src, r.dst, r.bytes, r.count);
  }
  append_list_or_dash(out, list);
  out += " faults=";
  if (fault_units.empty()) {
    out += '-';
  } else {
    out += '\'';
    for (std::size_t i = 0; i < fault_units.size(); ++i) {
      if (i > 0) out += '|';
      out += fault_units[i];
    }
    out += '\'';
  }
  if (ctl.enabled) out += " ctl=" + ctl.spec();
  out += " bug=";
  append_list_or_dash(out, bug);
  return out;
}

bool Scenario::parse(const std::string& text, Scenario* out,
                     std::string* err) {
  auto fail = [err](const std::string& why) {
    if (err != nullptr) *err = why;
    return false;
  };
  Scenario sc;
  sc.flows.clear();
  std::size_t i = 0;
  const std::size_t n = text.size();
  while (i < n) {
    while (i < n && text[i] == ' ') ++i;
    if (i >= n) break;
    const std::size_t eq = text.find('=', i);
    if (eq == std::string::npos) return fail("token without '=' near: " +
                                             text.substr(i));
    const std::string key = text.substr(i, eq - i);
    std::string value;
    i = eq + 1;
    if (i < n && text[i] == '\'') {
      const std::size_t close = text.find('\'', i + 1);
      if (close == std::string::npos) return fail("unterminated quote");
      value = text.substr(i + 1, close - i - 1);
      i = close + 1;
    } else {
      const std::size_t sp = text.find(' ', i);
      value = text.substr(i, sp == std::string::npos ? std::string::npos
                                                     : sp - i);
      i = sp == std::string::npos ? n : sp;
    }

    auto as_u64 = [&](std::uint64_t* v) {
      char* end = nullptr;
      *v = std::strtoull(value.c_str(), &end, 10);
      return end != nullptr && *end == '\0' && !value.empty();
    };
    std::uint64_t u = 0;
    if (key == "seed") {
      if (!as_u64(&sc.seed)) return fail("bad seed");
    } else if (key == "scheme") {
      if (!lb::parse_scheme_id(value, &sc.scheme)) {
        return fail("bad scheme: " + value);
      }
    } else if (key == "topo") {
      if (!net::parse_topology_kind(value, &sc.topo)) {
        return fail("bad topo: " + value);
      }
    } else if (key == "spines") {
      if (!as_u64(&u)) return fail("bad spines");
      sc.spines = static_cast<std::uint32_t>(u);
    } else if (key == "leaves") {
      if (!as_u64(&u)) return fail("bad leaves");
      sc.leaves = static_cast<std::uint32_t>(u);
    } else if (key == "hpl") {
      if (!as_u64(&u)) return fail("bad hpl");
      sc.hosts_per_leaf = static_cast<std::uint32_t>(u);
    } else if (key == "gamma") {
      if (!as_u64(&u)) return fail("bad gamma");
      sc.gamma = static_cast<std::uint32_t>(u);
    } else if (key == "buf") {
      if (!as_u64(&sc.switch_buffer_bytes)) return fail("bad buf");
    } else if (key == "suspicion") {
      if (!as_u64(&u)) return fail("bad suspicion");
      sc.edge_suspicion = u != 0;
    } else if (key == "cap_us") {
      if (!as_u64(&u)) return fail("bad cap_us");
      sc.cap = static_cast<sim::Time>(u) * sim::kMicrosecond;
    } else if (key == "flows") {
      if (value != "-") {
        std::size_t pos = 0;
        while (pos < value.size()) {
          FlowSpec f;
          unsigned src = 0, dst = 0;
          unsigned long long bytes = 0;
          int consumed = 0;
          if (std::sscanf(value.c_str() + pos, "%u-%u:%llu%n", &src, &dst,
                          &bytes, &consumed) != 3) {
            return fail("bad flow list: " + value);
          }
          f.src = src;
          f.dst = dst;
          f.bytes = bytes;
          sc.flows.push_back(f);
          pos += static_cast<std::size_t>(consumed);
          if (pos < value.size() && value[pos] == ',') ++pos;
        }
      }
    } else if (key == "rpcs") {
      if (value != "-") {
        std::size_t pos = 0;
        while (pos < value.size()) {
          RpcSpec r;
          unsigned src = 0, dst = 0, count = 0;
          unsigned long long bytes = 0;
          int consumed = 0;
          if (std::sscanf(value.c_str() + pos, "%u-%u:%llux%u%n", &src, &dst,
                          &bytes, &count, &consumed) != 4) {
            return fail("bad rpc list: " + value);
          }
          r.src = src;
          r.dst = dst;
          r.bytes = bytes;
          r.count = count;
          sc.rpcs.push_back(r);
          pos += static_cast<std::size_t>(consumed);
          if (pos < value.size() && value[pos] == ',') ++pos;
        }
      }
    } else if (key == "faults") {
      if (value != "-") {
        std::size_t pos = 0;
        while (pos <= value.size()) {
          const std::size_t bar = value.find('|', pos);
          sc.fault_units.push_back(value.substr(
              pos, bar == std::string::npos ? std::string::npos : bar - pos));
          if (bar == std::string::npos) break;
          pos = bar + 1;
        }
      }
    } else if (key == "ctl") {
      if (!controller::ControlLoopConfig::parse(value, &sc.ctl)) {
        return fail("bad ctl spec: " + value);
      }
    } else if (key == "bug") {
      if (value != "-") sc.bug = value;
    } else {
      return fail("unknown key: " + key);
    }
  }
  const std::uint32_t hosts = sc.leaves * sc.hosts_per_leaf;
  for (const FlowSpec& f : sc.flows) {
    if (f.src >= hosts || f.dst >= hosts || f.src == f.dst) {
      return fail("flow endpoints out of range");
    }
  }
  for (const RpcSpec& r : sc.rpcs) {
    if (r.src >= hosts || r.dst >= hosts || r.src == r.dst) {
      return fail("rpc endpoints out of range");
    }
  }
  *out = sc;
  return true;
}

Scenario Scenario::generate(std::uint64_t seed) {
  sim::Rng rng(seed ^ 0xF022'5EED'0BAD'CAFEULL);
  Scenario sc;
  sc.seed = seed;

  switch (rng.below(8)) {
    case 0: sc.scheme = harness::Scheme::kPresto; break;
    case 1:
      sc.scheme = harness::Scheme::kPresto;
      sc.edge_suspicion = true;
      break;
    case 2: sc.scheme = harness::Scheme::kEcmp; break;
    case 3: sc.scheme = harness::Scheme::kPrestoEcmp; break;
    case 4: sc.scheme = harness::Scheme::kFlowlet; break;
    case 5: sc.scheme = harness::Scheme::kFlowDyn; break;
    case 6: sc.scheme = harness::Scheme::kDiffFlow; break;
    default: sc.scheme = harness::Scheme::kSprinklers; break;
  }
  // Weighted toward the symmetric Clos; one draw in eight for each of the
  // asymmetric regimes.
  switch (rng.below(8)) {
    case 5: sc.topo = net::TopologyKind::kAsymClos; break;
    case 6: sc.topo = net::TopologyKind::kOversubClos; break;
    case 7: sc.topo = net::TopologyKind::kLeafMesh; break;
    default: sc.topo = net::TopologyKind::kClos; break;
  }
  sc.spines = 2 + static_cast<std::uint32_t>(rng.below(3));
  sc.leaves = 2 + static_cast<std::uint32_t>(rng.below(2));
  sc.hosts_per_leaf = 1 + static_cast<std::uint32_t>(rng.below(3));
  sc.gamma = 1 + static_cast<std::uint32_t>(rng.below(2));
  constexpr std::uint64_t kBufChoices[] = {64 * 1024, 200 * 1024, 400 * 1024};
  sc.switch_buffer_bytes = kBufChoices[rng.below(3)];

  // Cross-leaf flows only: same-leaf traffic never exercises the fabric.
  const std::uint32_t hosts = sc.leaves * sc.hosts_per_leaf;
  auto pick_pair = [&](net::HostId* src, net::HostId* dst) {
    *src = static_cast<net::HostId>(rng.below(hosts));
    do {
      *dst = static_cast<net::HostId>(rng.below(hosts));
    } while (*dst / sc.hosts_per_leaf == *src / sc.hosts_per_leaf);
  };
  const std::size_t n_flows = 1 + rng.below(6);
  for (std::size_t i = 0; i < n_flows; ++i) {
    FlowSpec f;
    pick_pair(&f.src, &f.dst);
    f.bytes = log_uniform(rng, 20 * 1024, 1536 * 1024);
    sc.flows.push_back(f);
  }
  const std::size_t n_rpcs = rng.below(4);
  for (std::size_t i = 0; i < n_rpcs; ++i) {
    RpcSpec r;
    pick_pair(&r.src, &r.dst);
    r.bytes = log_uniform(rng, 512, 50 * 1024);
    r.count = 1 + static_cast<std::uint32_t>(rng.below(3));
    sc.rpcs.push_back(r);
  }

  // Fault units: each one injects and then fully recovers well before the
  // cap, so a correct run always drains. Switch ids follow make_clos
  // numbering (spines first, then leaves), so the mesh — with neither
  // spines nor that numbering — fuzzes fault-free.
  const std::size_t n_faults =
      sc.topo == net::TopologyKind::kLeafMesh ? 0 : rng.below(4);
  for (std::size_t i = 0; i < n_faults; ++i) {
    const std::uint32_t leaf_sw =
        sc.spines + static_cast<std::uint32_t>(rng.below(sc.leaves));
    const std::uint32_t spine_sw = static_cast<std::uint32_t>(
        rng.below(sc.spines));
    const std::uint32_t group =
        static_cast<std::uint32_t>(rng.below(sc.gamma));
    const std::uint64_t t0 = 5'000 + rng.below(195'000);         // us
    const std::uint64_t dur = 20'000 + rng.below(280'000);       // us
    switch (rng.below(4)) {
      case 0:
        sc.fault_units.push_back(strf(
            "down@%" PRIu64 "us leaf=%u spine=%u group=%u;up@%" PRIu64
            "us leaf=%u spine=%u group=%u",
            t0, leaf_sw, spine_sw, group, t0 + dur, leaf_sw, spine_sw,
            group));
        break;
      case 1:
        sc.fault_units.push_back(strf(
            "flap@%" PRIu64 "us leaf=%u spine=%u group=%u period=%" PRIu64
            "us count=%u",
            t0, leaf_sw, spine_sw, group, 10'000 + rng.below(40'000),
            static_cast<std::uint32_t>(1 + rng.below(3))));
        break;
      case 2:
        sc.fault_units.push_back(strf(
            "degrade@%" PRIu64
            "us leaf=%u spine=%u group=%u loss_bad=%.3f p_gb=0.01 p_bg=0.1 "
            "corrupt=%.4f;heal@%" PRIu64 "us leaf=%u spine=%u group=%u",
            t0, leaf_sw, spine_sw, group, 0.1 + 0.3 * rng.uniform(),
            rng.below(2) != 0 ? 0.001 : 0.0, t0 + dur, leaf_sw, spine_sw,
            group));
        break;
      default:
        // Fail-stop a spine only: killing a leaf strands its hosts, which
        // is legitimate but makes every run a slow RTO crawl.
        sc.fault_units.push_back(
            strf("switch_down@%" PRIu64 "us switch=%u;switch_up@%" PRIu64
                 "us switch=%u",
                 t0, spine_sw, t0 + dur, spine_sw));
        break;
    }
  }

  // Closed-loop controller draw. A *separate* stream (not `rng`) so
  // pre-existing seeds keep every draw above byte-identical — the soak and
  // golden tiers pin expectations against generate()'s historic output.
  // Values come from small discrete sets with the spec's printed precision,
  // so the one-line `ctl=` token round-trips exactly.
  sim::Rng ctl_rng(seed ^ 0xC71'0001'5EEDULL);
  if (ctl_rng.below(4) == 0) {
    sc.ctl.enabled = true;
    constexpr sim::Time kPeriods[] = {5 * sim::kMillisecond,
                                      10 * sim::kMillisecond,
                                      20 * sim::kMillisecond};
    constexpr double kGains[] = {0.25, 0.50, 0.75};
    constexpr double kDeltas[] = {0.10, 0.25};
    constexpr double kDeadbands[] = {0.010, 0.020, 0.050};
    constexpr double kFloors[] = {0.010, 0.020};
    constexpr std::uint32_t kHorizons[] = {0, 2, 4};
    sc.ctl.period = kPeriods[ctl_rng.below(3)];
    sc.ctl.gain = kGains[ctl_rng.below(3)];
    sc.ctl.max_delta = kDeltas[ctl_rng.below(2)];
    sc.ctl.deadband = kDeadbands[ctl_rng.below(3)];
    sc.ctl.min_weight = kFloors[ctl_rng.below(2)];
    sc.ctl.horizon = kHorizons[ctl_rng.below(3)];
    sc.ctl.stale_after_periods =
        2 + static_cast<std::uint32_t>(ctl_rng.below(3));
  }
  return sc;
}

ScenarioRun::ScenarioRun(const Scenario& sc, CheckerOptions opt)
    : sc_(sc), ex_(experiment_config(sc)), chk_(ex_, adjust_options(opt, sc)) {
  chk_.arm();
  bug_sinks_ = install_bug(ex_, sc_.bug);

  // Workload build/schedule order is load-bearing: it fixes event-queue
  // insertion order and every RNG draw, and replay-based checkpointing
  // (src/check/soak) depends on two ScenarioRuns of the same Scenario
  // executing identical event sequences.
  for (const FlowSpec& f : sc_.flows) {
    ++expected_;
    ex_.add_elephant(f.src, f.dst, f.bytes,
                     [this](sim::Time) { ++completed_; });
  }
  for (const RpcSpec& r : sc_.rpcs) {
    workload::RpcChannel& ch = ex_.open_rpc(r.src, r.dst);
    for (std::uint32_t i = 0; i < r.count; ++i) {
      ++expected_;
      ex_.sim().schedule_at(
          static_cast<sim::Time>(i) * 200 * sim::kMicrosecond,
          [this, &ch, bytes = r.bytes] {
            ch.issue(bytes, [this](sim::Time) { ++completed_; });
          });
    }
  }
}

std::uint64_t ScenarioRun::app_delivered_bytes() {
  std::uint64_t total = 0;
  const std::size_t n = ex_.topo().host_count();
  for (net::HostId h = 0; h < n; ++h) {
    ex_.host(h).for_each_receiver(
        [&total](tcp::TcpReceiver& r) { total += r.delivered(); });
  }
  return total;
}

std::uint64_t ScenarioRun::state_digest() {
  sim::Digest d;
  ex_.sim().digest_state(d);
  const std::size_t n = ex_.topo().host_count();
  for (net::HostId h = 0; h < n; ++h) {
    ex_.host(h).digest_state(d);
  }
  chk_.digest_state(d);
  if (ex_.fabric_plane() != nullptr) ex_.fabric_plane()->digest_state(d);
  if (ex_.control_loop() != nullptr) ex_.control_loop()->digest_state(d);
  d.mix(completed_);
  return d.value();
}

RunOutcome ScenarioRun::outcome() {
  RunOutcome out;
  out.drained = ex_.sim().pending() == 0;
  out.ok = chk_.ok();
  out.total_violations = chk_.total_violations();
  for (const Violation& v : chk_.violations()) {
    out.kind_mask |= 1u << static_cast<unsigned>(v.kind);
  }
  if (!chk_.violations().empty()) {
    out.first_kind = chk_.violations().front().kind;
  }
  out.report = chk_.report();
  out.frames_delivered = chk_.frames_delivered();
  return out;
}

RunOutcome ScenarioRun::finish() {
  const bool drained = ex_.sim().pending() == 0;
  chk_.finish(drained);
  if (drained && completed_ != expected_) {
    chk_.note(OracleKind::kLiveness,
              strf("simulation drained but only %zu/%zu transfers completed",
                   completed_, expected_));
  }
  return outcome();
}

RunOutcome run_scenario(const Scenario& sc, CheckerOptions opt) {
  ScenarioRun run(sc, opt);
  run.sim().run_until(sc.cap);
  return run.finish();
}

}  // namespace presto::check
