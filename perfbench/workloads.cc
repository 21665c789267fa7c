#include "workloads.h"

#include <time.h>

#include <functional>
#include <map>
#include <memory>
#include <tuple>

#include "check/scenario.h"
#include "layer_trace.h"
#include "sim/digest.h"
#include "workload/apps.h"
#include "workload/openloop/empirical_cdf.h"
#include "workload/openloop/generator.h"

namespace perfbench {

using namespace presto;
namespace ol = workload::openloop;

namespace {

double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Stopwatch {
  double cpu0 = cpu_now_s();
  std::int64_t wall0 = mono_ns();
  double cpu() const { return cpu_now_s() - cpu0; }
  double wall() const { return 1e-9 * static_cast<double>(mono_ns() - wall0); }
};

void mix_sketch(sim::Digest& d, const stats::DDSketch& s) {
  d.mix(s.count());
  if (s.empty()) return;
  d.mix_double(s.mean());
  d.mix_double(s.min());
  d.mix_double(s.max());
  for (double p : {50.0, 90.0, 99.0, 99.9}) d.mix_double(s.percentile(p));
}

void mix_text(sim::Digest& d, const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  d.mix(h);
  d.mix(s.size());
}

// Advances to `until` in fixed slices of simulated time (one call when
// `slice` is 0), sampling the event-queue depth at each boundary.
void advance(sim::Simulation& sim, sim::Time until, sim::Time slice,
             LayerTracer* tracer) {
  if (slice > 0) {
    for (sim::Time t = (sim.now() / slice + 1) * slice; t < until;
         t += slice) {
      sim.run_until(t);
      if (tracer != nullptr) tracer->sample_pending(sim.pending());
    }
  }
  sim.run_until(until);
  if (tracer != nullptr) tracer->sample_pending(sim.pending());
}

std::uint64_t count_frame_hops(harness::Experiment& ex) {
  net::Topology& topo = ex.topo();
  std::uint64_t hops = 0;
  for (net::SwitchId s = 0; s < topo.switch_count(); ++s) {
    const net::Switch& sw = topo.get_switch(s);
    for (std::size_t p = 0; p < sw.port_count(); ++p) {
      hops += sw.port(static_cast<net::PortId>(p)).counters().tx_packets;
    }
  }
  for (net::HostId h = 0; h < topo.host_count(); ++h) {
    hops += ex.host(h).uplink_counters().tx_packets;
  }
  return hops;
}

// Reads every layer count the experiment exposes (decorator spans are
// added by the caller).
void collect_layers(harness::Experiment& ex, LayerCounts& l) {
  net::Topology& topo = ex.topo();
  l.frame_hops += count_frame_hops(ex);
  auto port_drops = [&l](const net::PortCounters& c) {
    l.counter_drops[0] += c.dropped_packets - c.loss_model_drops -
                          c.corrupt_drops;
    l.counter_drops[1] += c.loss_model_drops;
    l.counter_drops[2] += c.corrupt_drops;
  };
  for (net::SwitchId s = 0; s < topo.switch_count(); ++s) {
    const net::Switch& sw = topo.get_switch(s);
    for (std::size_t p = 0; p < sw.port_count(); ++p) {
      port_drops(sw.port(static_cast<net::PortId>(p)).counters());
    }
    l.counter_drops[3] += sw.no_route_drops();
  }
  const sim::Time now = ex.sim().now();
  double busy = 0;
  for (net::HostId h = 0; h < topo.host_count(); ++h) {
    host::Host& host = ex.host(h);
    port_drops(host.uplink_counters());
    l.counter_drops[4] += host.ring_drops();
    busy += static_cast<double>(host.cpu().busy_ns());
    host.for_each_sender([&l](tcp::TcpSender& s) {
      l.fast_retransmits += s.stats().fast_retransmits;
      l.timeouts += s.stats().timeouts;
      l.retx_bytes += s.stats().retransmitted_bytes;
      l.sent_bytes += s.sent_bytes();
    });
  }
  if (now > 0 && topo.host_count() > 0) {
    l.rx_cpu_util += busy / static_cast<double>(now) /
                     static_cast<double>(topo.host_count());
  }
  if (controller::ControlLoop* loop = ex.control_loop()) {
    l.ctl_ticks += loop->ticks();
    l.ctl_pushes += loop->pushes();
    l.ctl_damped += loop->damped();
  }
  l.ctl_recomputes_skipped += ex.ctl().schedule_recomputes_skipped();
  if (telemetry::fabric::FabricPlane* plane = ex.fabric_plane()) {
    l.reports_sent += plane->reports_sent();
    l.reports_dropped += plane->reports_dropped();
  }
}

void collect_spans(const LayerTracer& tr, LayerCounts& l) {
  l.switch_rx_calls += tr.switch_rx.calls;
  l.switch_self_ns += tr.switch_rx.self_ns;
  l.host_rx_calls += tr.host_rx.calls;
  l.host_self_ns += tr.host_rx.self_ns;
  l.gro_segments += tr.gro_segments;
  l.gro_frames += tr.gro_frames;
  l.flowcells += tr.cells.flowcells();
  l.flowcell_bytes += tr.cells.fresh_bytes;
  if (tr.pending_peak > l.pending_peak) l.pending_peak = tr.pending_peak;
}

void collect_tap(const TimedTap& tap, LayerCounts& l) {
  l.tap_calls += tap.layer.calls;
  l.tap_self_ns += tap.layer.self_ns;
  for (std::size_t i = 0; i < tap.drops.size(); ++i) l.tap_drops[i] += tap.drops[i];
}

// Arms an oracle Checker and/or the decorators on a freshly built
// experiment, before any workload starts.
struct Probes {
  std::unique_ptr<check::Checker> checker;
  std::unique_ptr<LayerTracer> tracer;

  void install(harness::Experiment& ex, Probe probe, bool faulted) {
    if (probe == Probe::kChecked) {
      check::CheckerOptions opt;
      // As for fuzz scenarios: failover legitimately moves a tree's frames
      // off its spine, so strict pinning and ordering run fault-free only.
      opt.strict_tree_spine = !faulted;
      opt.ordering = !faulted;
      opt.leak = true;
      checker = std::make_unique<check::Checker>(ex, opt);
      checker->arm();
    }
    if (probe != Probe::kPlain) {
      tracer = std::make_unique<LayerTracer>(ex, checker.get());
    }
  }

  void finish(harness::Experiment& ex, LayerCounts& l) {
    if (checker != nullptr) {
      // Runs stop mid-flight, so the mid-run audit, not finish().
      checker->audit_epoch(ex.sim().now(), kLeakAge);
      l.violations += checker->total_violations();
    }
    if (tracer != nullptr) {
      collect_spans(*tracer, l);
      if (tracer->tap() != nullptr) collect_tap(*tracer->tap(), l);
    }
  }

  static constexpr sim::Time kLeakAge = 50 * sim::kMillisecond;
};

// ---------------------------------------------------------------- pairs --

Outcome pairs_outcome(const Workload& w, const harness::RunResult& r) {
  Outcome o;
  sim::Digest d;
  for (double g : r.per_flow_gbps) d.mix_double(g);
  mix_sketch(d, r.fct_ms);
  d.mix_double(r.loss_pct);
  d.mix(r.mice_timeouts);
  mix_text(d, r.fabric_health_json);
  o.digest = d.value();
  o.events = r.executed_events;
  o.sim_s = sim::to_seconds(w.sim_time());
  o.goodput_gbps = r.avg_tput_gbps;
  o.goodput_weight = static_cast<double>(r.per_flow_gbps.size());
  o.fct_ms = r.fct_ms;
  // Continuous elephants never finish, and run_pairs reports only the
  // RPCs that completed; the mirror adds the stalled RPCs it can see.
  o.attempted = r.per_flow_gbps.size() + r.fct_ms.count();
  return o;
}

// A mice RPC fails if it is still outstanding at the end of the run on a
// channel that completed nothing for this long, so it has waited at least
// four mouse intervals: past every FCT short of a retransmission timeout
// (the pairs workloads complete none slower than 3 ms; the minimum RTO is
// 200 ms, longer than the runs).
constexpr sim::Time kStallAge = 5 * sim::kMillisecond;

// Mirror of harness::run_pairs (src/harness/runners.cc): the same
// experiment calls in the same order, with the probes installed between
// building the experiment and attaching the workload.
struct PairsRig {
  std::unique_ptr<harness::Experiment> ex;
  Probes probes;
  std::vector<workload::ElephantApp*> elephants;
  std::vector<std::unique_ptr<workload::PeriodicRpcApp>> mice;
  std::vector<workload::RpcChannel*> mice_channels;
  std::uint64_t mice_done = 0;
  /// Per mice channel: when its last RPC completed (0: none yet).
  std::vector<sim::Time> last_done;

  PairsRig(const Workload& w, Probe probe) {
    const harness::RunOptions& opt = w.run;
    const sim::Time stop_at = opt.warmup + opt.measure;
    ex = std::make_unique<harness::Experiment>(w.cfg);
    probes.install(*ex, probe, !w.cfg.fault_plan.empty());
    if (opt.elephants) {
      for (const auto& [src, dst] : w.pairs) {
        elephants.push_back(&ex->add_elephant(src, dst, opt.elephant_bytes));
      }
    }
    std::size_t i = 0;
    for (const auto& [src, dst] : w.pairs) {
      if (opt.mice) {
        auto& rpc = ex->open_rpc(src, dst);
        mice_channels.push_back(&rpc);
        auto app = std::make_unique<workload::PeriodicRpcApp>(
            ex->sim(), rpc, opt.mice_bytes, opt.mice_interval,
            opt.mice_interval * (i + 1) / (w.pairs.size() + 1), stop_at,
            /*ping_pong=*/true);
        app->set_measure_from(opt.warmup);
        const std::size_t ch = last_done.size();
        last_done.push_back(0);
        app->set_on_sample([this, ch](sim::Time issued_at, sim::Time fct) {
          ++mice_done;
          last_done[ch] = issued_at + fct;
        });
        mice.push_back(std::move(app));
      }
      ++i;
    }
  }
};

Outcome mirror_pairs(const Workload& w, Probe probe, sim::Time slice) {
  const harness::RunOptions& opt = w.run;
  const sim::Time stop_at = opt.warmup + opt.measure;
  Stopwatch whole;
  PairsRig rig(w, probe);
  harness::Experiment& ex = *rig.ex;
  const std::uint64_t allocs0 = alloc_count();
  Stopwatch running;

  advance(ex.sim(), opt.warmup, slice, rig.probes.tracer.get());
  std::vector<std::uint64_t> delivered_at_warmup;
  for (auto* e : rig.elephants) delivered_at_warmup.push_back(e->delivered());
  const harness::Experiment::Counters c0 = ex.switch_counters();
  advance(ex.sim(), stop_at, slice, rig.probes.tracer.get());
  const harness::Experiment::Counters c1 = ex.switch_counters();

  LayerCounts l;
  l.run_ns = static_cast<std::int64_t>(running.cpu() * 1e9);
  l.allocs = alloc_count() - allocs0;

  harness::RunResult r;
  const double secs = sim::to_seconds(opt.measure);
  std::uint64_t window_bytes = 0;
  for (std::size_t i = 0; i < rig.elephants.size(); ++i) {
    const std::uint64_t b =
        rig.elephants[i]->delivered() - delivered_at_warmup[i];
    window_bytes += b;
    r.per_flow_gbps.push_back(8.0 * static_cast<double>(b) / secs / 1e9);
  }
  if (!r.per_flow_gbps.empty()) {
    double sum = 0;
    for (double t : r.per_flow_gbps) sum += t;
    r.avg_tput_gbps = sum / static_cast<double>(r.per_flow_gbps.size());
  }
  const std::uint64_t enq = c1.enqueued - c0.enqueued;
  const std::uint64_t drop = c1.dropped - c0.dropped;
  r.loss_pct = enq == 0 ? 0.0
                        : 100.0 * static_cast<double>(drop) /
                              static_cast<double>(enq + drop);
  for (const auto& app : rig.mice) {
    for (double fct_ns : app->fcts().values()) r.fct_ms.add(fct_ns / 1e6);
  }
  std::uint64_t outstanding = 0, stalled = 0;
  for (std::size_t i = 0; i < rig.mice_channels.size(); ++i) {
    const workload::RpcChannel& ch = *rig.mice_channels[i];
    r.mice_timeouts += ch.timeouts();
    outstanding += ch.outstanding();
    if (ch.outstanding() > 0 && stop_at - rig.last_done[i] >= kStallAge) {
      stalled += ch.outstanding();
    }
  }
  r.executed_events = ex.sim().executed();
  r.telemetry = ex.telemetry_snapshot();
  r.fabric_health_json = ex.fabric_health_json();

  Outcome o = pairs_outcome(w, r);
  o.attempted += stalled;
  o.failed = stalled;
  o.cpu_s = whole.cpu();
  o.wall_s = whole.wall();
  collect_layers(ex, l);
  rig.probes.finish(ex, l);
  l.flows_offered = rig.elephants.size() + rig.mice_done + outstanding;
  l.flows_completed = rig.mice_done;
  l.measured_load = 8.0 * static_cast<double>(window_bytes) / secs /
                    (w.cfg.link_rate_bps *
                     static_cast<double>(ex.servers().size()));
  o.frame_hops = l.frame_hops;
  o.layers = l;
  return o;
}

// ------------------------------------------------------------ open loop --

std::unique_ptr<ol::FlowGenerator> make_generator(const Workload& w) {
  const std::uint32_t hosts = w.cfg.leaves * w.cfg.hosts_per_leaf;
  ol::OpenLoopGenerator::Config main_cfg;
  main_cfg.sizes = &ol::EmpiricalCdf::websearch();
  main_cfg.arrival.load = w.load;
  main_cfg.arrival.link_rate_bps = w.cfg.link_rate_bps;
  main_cfg.hosts = hosts;
  main_cfg.hosts_per_rack = w.cfg.hosts_per_leaf;
  main_cfg.seed = w.cfg.seed;

  ol::IncastGenerator::Config in_cfg;
  in_cfg.hosts = hosts;
  in_cfg.fanin = w.incast_fanin;
  in_cfg.bytes_each = w.incast_bytes;
  in_cfg.interval = w.incast_interval;
  in_cfg.start = w.incast_interval / 2;
  in_cfg.seed = w.cfg.seed + 1;

  std::vector<std::unique_ptr<ol::FlowGenerator>> tenants;
  tenants.push_back(std::make_unique<ol::OpenLoopGenerator>(main_cfg));
  tenants.push_back(std::make_unique<ol::IncastGenerator>(in_cfg));
  return std::make_unique<ol::MixGenerator>(std::move(tenants));
}

Outcome openloop_outcome(const Workload& w, const harness::OpenLoopResult& r) {
  Outcome o;
  sim::Digest d;
  mix_sketch(d, r.fct_ms);
  mix_sketch(d, r.mice_fct_ms);
  mix_sketch(d, r.elephant_fct_ms);
  mix_sketch(d, r.flow_bytes);
  d.mix(r.flows_offered);
  d.mix(r.flows_completed);
  d.mix(r.flows_measured);
  d.mix(r.offered_bytes);
  d.mix(r.timeouts);
  d.mix_double(r.measured_load);
  o.digest = d.value();
  o.events = r.executed_events;
  o.sim_s = sim::to_seconds(w.sim_time());
  // Per-server application goodput of the measured window: the offered
  // load, scaled by the share of offered flows that completed.
  o.goodput_gbps = r.flows_offered == 0
                       ? 0
                       : r.measured_load * w.cfg.link_rate_bps / 1e9 *
                             static_cast<double>(r.flows_completed) /
                             static_cast<double>(r.flows_offered);
  o.goodput_weight = 1;
  o.fct_ms = r.fct_ms;
  o.attempted = r.flows_offered;
  o.failed = r.flows_offered - r.flows_completed;
  return o;
}

// Mirror of harness::run_openloop (src/harness/openloop.cc).
Outcome mirror_openloop(const Workload& w, Probe probe, sim::Time slice) {
  using workload::openloop::FlowEvent;
  const harness::OpenLoopOptions& opt = w.ol;
  Stopwatch whole;

  harness::OpenLoopResult r;
  r.fct_ms = stats::DDSketch(opt.sketch_alpha);
  r.mice_fct_ms = stats::DDSketch(opt.sketch_alpha);
  r.elephant_fct_ms = stats::DDSketch(opt.sketch_alpha);
  r.flow_bytes = stats::DDSketch(opt.sketch_alpha);

  auto gen = make_generator(w);
  harness::Experiment ex(w.cfg);
  Probes probes;
  probes.install(ex, probe, !w.cfg.fault_plan.empty());
  const sim::Time issue_until = opt.warmup + opt.measure;
  const sim::Time stop = issue_until + opt.drain;

  using ChanKey = std::tuple<net::HostId, net::HostId, std::uint16_t>;
  std::map<ChanKey, workload::RpcChannel*> chans;
  auto channel = [&](const FlowEvent& ev) -> workload::RpcChannel& {
    const ChanKey key{ev.src, ev.dst, ev.tenant};
    auto it = chans.find(key);
    if (it == chans.end()) {
      it = chans.emplace(key, &ex.open_rpc(ev.src, ev.dst)).first;
    }
    return *it->second;
  };

  std::uint64_t measured_bytes = 0;
  auto issue = [&](const FlowEvent& ev) {
    ++r.flows_offered;
    r.offered_bytes += ev.bytes;
    r.flow_bytes.add(static_cast<double>(ev.bytes));
    const sim::Time issued = ex.sim().now();
    const bool in_window = issued >= opt.warmup && issued < issue_until;
    if (in_window) measured_bytes += ev.bytes;
    const std::uint64_t bytes = ev.bytes;
    channel(ev).issue(bytes, [&r, &opt, bytes, in_window](sim::Time fct) {
      ++r.flows_completed;
      if (!in_window) return;
      ++r.flows_measured;
      const double ms = sim::to_millis(fct);
      r.fct_ms.add(ms);
      if (bytes < opt.mice_max_bytes) r.mice_fct_ms.add(ms);
      if (bytes > opt.elephant_min_bytes) r.elephant_fct_ms.add(ms);
    });
  };

  auto pending = std::make_shared<FlowEvent>();
  auto pump = std::make_shared<std::function<void()>>();
  ol::FlowGenerator& g = *gen;
  *pump = [&ex, &g, &issue, pending, pump, issue_until] {
    issue(*pending);
    while (g.next(pending.get())) {
      if (pending->at >= issue_until) return;
      if (pending->at > ex.sim().now()) {
        ex.sim().schedule_at(pending->at, [pump] { (*pump)(); });
        return;
      }
      issue(*pending);
    }
  };
  if (g.next(pending.get()) && pending->at < issue_until) {
    ex.sim().schedule_at(pending->at, [pump] { (*pump)(); });
  }

  const std::uint64_t allocs0 = alloc_count();
  Stopwatch running;
  advance(ex.sim(), stop, slice, probes.tracer.get());
  *pump = nullptr;

  LayerCounts l;
  l.run_ns = static_cast<std::int64_t>(running.cpu() * 1e9);
  l.allocs = alloc_count() - allocs0;

  for (const auto& [key, chan] : chans) r.timeouts += chan->timeouts();
  const double capacity_bits =
      w.cfg.link_rate_bps * static_cast<double>(ex.servers().size()) *
      sim::to_seconds(opt.measure);
  r.measured_load = capacity_bits > 0
                        ? 8.0 * static_cast<double>(measured_bytes) /
                              capacity_bits
                        : 0;
  r.executed_events = ex.sim().executed();
  r.telemetry = ex.telemetry_snapshot();
  r.fabric_health_json = ex.fabric_health_json();

  Outcome o = openloop_outcome(w, r);
  o.cpu_s = whole.cpu();
  o.wall_s = whole.wall();
  collect_layers(ex, l);
  probes.finish(ex, l);
  l.flows_offered = r.flows_offered;
  l.flows_completed = r.flows_completed;
  l.measured_load = r.measured_load;
  o.frame_hops = l.frame_hops;
  o.layers = l;
  return o;
}

// ----------------------------------------------------------------- fuzz --

// Drives each scenario of the block through check::ScenarioRun with every
// default oracle armed, to quiescence (or the scenario cap). The
// completion time of a scenario is when its last transfer completed.
Outcome run_fuzz(const Workload& w, Probe probe) {
  constexpr sim::Time kPoll = 10 * sim::kMicrosecond;
  constexpr sim::Time kSlice = 1 * sim::kMillisecond;
  Outcome o;
  Stopwatch whole;
  sim::Digest d;
  double goodput_sum = 0;
  LayerCounts l;
  std::int64_t run_ns = 0;
  std::uint64_t allocs = 0;
  for (std::uint32_t i = 0; i < w.fuzz_count; ++i) {
    Stopwatch scenario;
    const check::Scenario sc = check::Scenario::generate(w.fuzz_first + i);
    Stopwatch setup;
    check::ScenarioRun run(sc);
    o.setup_s += setup.wall();
    std::unique_ptr<LayerTracer> tracer;
    if (probe != Probe::kPlain) {
      tracer = std::make_unique<LayerTracer>(run.experiment(), &run.checker());
    }
    const std::uint64_t allocs0 = alloc_count();
    Stopwatch running;
    sim::Simulation& sim = run.sim();
    // Poll for workload completion every kPoll of simulated time (the
    // completion-time resolution); traced runs then keep sampling the
    // event queue every kSlice until quiescence.
    sim::Time done_at = 0;
    sim::Time t = 0;
    while (sim.pending() > 0 && t < sc.cap &&
           (done_at == 0 || tracer != nullptr)) {
      t += done_at == 0 ? kPoll : kSlice;
      sim.run_until_executed(UINT64_MAX, t);
      if (tracer != nullptr) tracer->sample_pending(sim.pending());
      if (done_at == 0 && run.completed() == run.expected()) done_at = t;
    }
    sim.run_until_executed(UINT64_MAX, sc.cap);
    run_ns += static_cast<std::int64_t>(running.cpu() * 1e9);
    allocs += alloc_count() - allocs0;

    const sim::Time quiesced_at = sim.now();
    const std::uint64_t delivered = run.app_delivered_bytes();
    const check::RunOutcome out = run.finish();
    Cost cost{scenario.cpu(), scenario.wall(), 0, 0};
    d.mix(out.ok);
    d.mix(out.drained);
    d.mix(out.total_violations);
    d.mix(out.kind_mask);
    d.mix(out.frames_delivered);
    d.mix(delivered);
    d.mix_time(done_at);
    d.mix_time(quiesced_at);
    o.events += sim.executed();
    // Simulated time is the workload's, not the idle ticking (a control
    // loop runs to the cap) or the timers that follow it to quiescence.
    cost.sim_s = sim::to_seconds(done_at > 0 ? done_at : quiesced_at);
    o.sim_s += cost.sim_s;
    ++o.attempted;
    if (!out.ok || !out.drained) ++o.failed;
    if (done_at > 0) {
      o.fct_ms.add(sim::to_millis(done_at));
      goodput_sum += 8.0 * static_cast<double>(delivered) /
                     sim::to_seconds(done_at) / 1e9;
    }
    if (tracer != nullptr) {
      collect_layers(run.experiment(), l);
      collect_spans(*tracer, l);
      collect_tap(*tracer->tap(), l);
      l.violations += out.total_violations;
      l.flows_offered += run.expected();
      l.flows_completed += run.completed();
    } else {
      cost.frame_hops = count_frame_hops(run.experiment());
      o.frame_hops += cost.frame_hops;
      o.scenarios.push_back(cost);
    }
  }
  o.digest = d.value();
  o.goodput_weight = static_cast<double>(o.fct_ms.count());
  o.goodput_gbps = o.goodput_weight == 0 ? 0 : goodput_sum / o.goodput_weight;
  o.cpu_s = whole.cpu();
  o.wall_s = whole.wall();
  if (probe != Probe::kPlain) {
    l.run_ns = run_ns;
    l.allocs = allocs;
    // rx_cpu_util was summed per scenario; report the scenario mean.
    if (w.fuzz_count > 0) l.rx_cpu_util /= static_cast<double>(w.fuzz_count);
    o.frame_hops = l.frame_hops;
    o.layers = l;
  }
  return o;
}

Workload base(const std::string& name, Kind kind, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.kind = kind;
  w.cfg.scheme = harness::Scheme::kPresto;
  w.cfg.seed = seed;
  return w;
}

}  // namespace

Workload Workload::sub(std::uint32_t i) const {
  Workload w = *this;
  w.subs = 1;
  if (kind == Kind::kFuzz) {
    w.fuzz_first += static_cast<std::uint64_t>(i) * fuzz_count;
  } else {
    w.cfg.seed = cfg.seed * 1000 + i;
  }
  return w;
}

sim::Time Workload::sim_time() const {
  switch (kind) {
    case Kind::kPairs: return run.warmup + run.measure;
    case Kind::kOpenLoop: return ol.warmup + ol.measure + ol.drain;
    case Kind::kFuzz: return 0;
  }
  return 0;
}

bool make_workload(const std::string& name, std::uint64_t seed, bool tiny,
                   Workload* out) {
  constexpr sim::Time ms = sim::kMillisecond;
  if (name == "fabric256_elephants") {
    // 2-tier Clos, stride elephants plus 4 KB ping-pong mice on each pair:
    // the per-frame port/switch datapath with a working set past the caches.
    Workload w = base(name, Kind::kPairs, seed);
    w.cfg.spines = tiny ? 2 : 8;
    w.cfg.leaves = tiny ? 2 : 16;
    w.cfg.hosts_per_leaf = tiny ? 4 : 16;
    const std::uint32_t n = w.cfg.leaves * w.cfg.hosts_per_leaf;
    w.pairs = workload::stride_pairs(n, w.cfg.hosts_per_leaf);
    w.run.warmup = (tiny ? 1 : 2) * ms;
    w.run.measure = (tiny ? 3 : 6) * ms;
    w.run.mice = true;
    w.run.mice_bytes = 4096;
    w.run.mice_interval = 1 * ms;
    w.subs = tiny ? 2 : 3;
    *out = std::move(w);
    return true;
  }
  if (name == "websearch_openloop") {
    // The paper's 16-host Clos under open-loop websearch arrivals at 0.6
    // load plus the fig20 8-way incast tenant.
    Workload w = base(name, Kind::kOpenLoop, seed);
    w.load = 0.6;
    w.incast_fanin = 8;
    w.incast_bytes = 20 * 1024;
    w.incast_interval = 20 * ms;
    w.ol.warmup = (tiny ? 2 : 20) * ms;
    w.ol.measure = (tiny ? 10 : 150) * ms;
    // Long enough that a flow still unfinished has stalled: p99 FCT sits
    // near 250-350 ms (200 ms minimum RTO plus queueing). The tiny shape
    // stops at once, leaving flows in flight (the fail-accounting test).
    w.ol.drain = (tiny ? 0 : 400) * ms;
    w.subs = 2;
    *out = std::move(w);
    return true;
  }
  if (name == "gray_asym_ctl") {
    // fig21's headline cell: asymmetric Clos (spine 0 at 0.4x), bursty
    // Gilbert-Elliott loss on leaf0<->spine0, closed-loop controller and
    // fabric telemetry with 5 ms flushes.
    Workload w = base(name, Kind::kPairs, seed);
    w.cfg.topology = net::TopologyKind::kAsymClos;
    w.cfg.telemetry.fabric.monitors = true;
    w.cfg.telemetry.fabric.flush_period = 5 * ms;
    // Spines are created before leaves, so leaf 0 is switch `spines`.
    w.cfg.fault_plan = "degrade@" + std::to_string(10 * ms) + "ns leaf=" +
                       std::to_string(w.cfg.spines) +
                       " spine=0 group=0 loss_bad=0.35 p_gb=0.02 p_bg=0.10";
    w.cfg.control_loop.enabled = true;
    w.cfg.control_loop.period = 5 * ms;
    w.cfg.control_loop.gain = 0.5;
    w.cfg.control_loop.max_delta = 0.25;
    w.cfg.control_loop.deadband = 0.02;
    w.cfg.control_loop.min_weight = 0.02;
    w.cfg.control_loop.horizon = 4;
    w.pairs = workload::stride_pairs(16, 4);
    w.run.warmup = 20 * ms;
    w.run.measure = (tiny ? 10 : 150) * ms;
    w.run.mice = true;
    w.run.mice_bytes = 4096;
    w.run.mice_interval = 1 * ms;
    w.subs = tiny ? 2 : 10;
    *out = std::move(w);
    return true;
  }
  if (name == "fuzz_oracles") {
    // A fixed block of generated scenarios through the oracles, as
    // `fuzz_sim --seed-range` runs them.
    Workload w = base(name, Kind::kFuzz, seed);
    w.fuzz_first = seed * 100'000;  // blocks of different seeds never overlap
    w.fuzz_count = tiny ? 10 : 200;
    w.subs = tiny ? 2 : 12;
    *out = std::move(w);
    return true;
  }
  return false;
}

Outcome run_driver(const Workload& w) {
  switch (w.kind) {
    case Kind::kPairs: {
      Stopwatch sw;
      harness::RunResult r = harness::run_pairs(w.cfg, w.pairs, w.run);
      const double cpu = sw.cpu();
      const double wall = sw.wall();
      Outcome o = pairs_outcome(w, r);
      o.cpu_s = cpu;
      o.wall_s = wall;
      return o;
    }
    case Kind::kOpenLoop: {
      auto gen = make_generator(w);
      Stopwatch sw;
      harness::OpenLoopResult r = harness::run_openloop(w.cfg, *gen, w.ol);
      const double cpu = sw.cpu();
      const double wall = sw.wall();
      Outcome o = openloop_outcome(w, r);
      o.cpu_s = cpu;
      o.wall_s = wall;
      return o;
    }
    case Kind::kFuzz:
      return run_fuzz(w, Probe::kPlain);
  }
  return Outcome();
}

Outcome run_mirror(const Workload& w, Probe probe, sim::Time slice) {
  switch (w.kind) {
    case Kind::kPairs: return mirror_pairs(w, probe, slice);
    case Kind::kOpenLoop: return mirror_openloop(w, probe, slice);
    case Kind::kFuzz: return run_fuzz(w, probe);
  }
  return Outcome();
}

double setup_once(const Workload& w) {
  if (w.kind == Kind::kPairs) {
    Stopwatch sw;
    auto rig = std::make_unique<PairsRig>(w, Probe::kPlain);
    const double s = sw.wall();
    rig.reset();
    return s;
  }
  Stopwatch sw;
  auto gen = make_generator(w);
  auto ex = std::make_unique<harness::Experiment>(w.cfg);
  const double s = sw.wall();
  ex.reset();
  return s;
}

}  // namespace perfbench
