// perfbench: the Presto simulator's benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures one workload for about <s> seconds of host time through
// the public drivers and prints the end-to-end metrics; --trace 1 runs the
// workload once untraced, once with timing decorators and once with the
// oracle Checker armed, and prints the per-layer metrics. Every run of one
// invocation must agree on the behaviour digest and the event count. The
// last stdout line is one JSON object: {correct, attempted, failed, metrics}.
// `--tiny` shrinks any workload for tests.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "layer_trace.h"
#include "net/tap.h"
#include "workloads.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

namespace {

using presto::net::TapDropCause;

/// The seed whose sub-experiment 0 every untraced run times (the default
/// seed).
constexpr std::uint64_t kTimedSeed = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;  // required
  int trace = 0;
  bool tiny = false;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--tiny") {
      a->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
      continue;
    }
    if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a->trace = static_cast<int>(std::strtol(v, &end, 10));
    } else {
      return false;
    }
    if (end == v || *end != '\0') return false;
  }
  return !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Metrics in print order, each with its unit.
class Report {
 public:
  void add(const char* name, double value, const char* unit) {
    rows_.push_back({name, std::isfinite(value) ? value : 0, unit});
  }
  void fail(const std::string& why) {
    correct_ = false;
    std::printf("MISMATCH %s\n", why.c_str());
  }
  void print(std::uint64_t attempted, std::uint64_t failed) const {
    for (const Row& r : rows_) {
      std::printf("%-32s %.6g %s\n", r.name, r.value, r.unit);
    }
    std::string json = "{\"correct\": ";
    json += correct_ ? "true" : "false";
    char buf[96];
    std::snprintf(buf, sizeof(buf), ", \"attempted\": %" PRIu64
                  ", \"failed\": %" PRIu64 ", \"metrics\": {",
                  attempted, failed);
    json += buf;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                    i == 0 ? "" : ", ", rows_[i].name, rows_[i].value);
      json += buf;
      json += "\"unit\": \"";
      json += rows_[i].unit;
      json += "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  struct Row {
    const char* name;
    double value;
    const char* unit;
  };
  std::vector<Row> rows_;
  bool correct_ = true;
};

/// Every run of one invocation must reproduce the first one's behaviour.
void check_same(Report& rep, const Outcome& ref, const Outcome& o,
                const char* what) {
  if (o.digest != ref.digest) {
    rep.fail(std::string(what) + ": behaviour digest differs");
  }
  if (o.events != ref.events) {
    rep.fail(std::string(what) + ": sim.events " + std::to_string(o.events) +
             " vs " + std::to_string(ref.events));
  }
}

const char* sample_kind(Kind k) {
  switch (k) {
    case Kind::kPairs: return "mice RPCs";
    case Kind::kOpenLoop: return "flows";
    case Kind::kFuzz: return "scenarios";
  }
  return "";
}

int run_untraced(const Workload& w, const Args& a) {
  Report rep;
  std::vector<Workload> subs;
  for (std::uint32_t i = 0; i < w.subs; ++i) subs.push_back(w.sub(i));
  // Set-up is timed a few times before every driver run, so its median
  // spans the same stretch of host time as the other metrics (fuzz: the
  // summed ScenarioRun set-up of each chunk run).
  std::vector<double> setups;

  // The first pass runs every sub-experiment through its public driver and
  // fixes the simulated results. Pairs/open-loop sub-experiments also run
  // once through the mirror, which counts the frame-hops and stalled RPCs
  // the driver does not report; the mirror is never timed.
  //
  // Host time is measured on one fixed sub-experiment, the same for every
  // seed: single sub-experiments of one workload differ in host cost per
  // simulated second by up to 1.4x with their seed, well beyond their
  // event counts. It runs through its driver between every two first-pass
  // sub-experiments and then until the time is up, so its timed runs span
  // the whole run, and every repeat must reproduce its first run exactly.
  // On a shared host, noise only ever slows a run, in episodes of tens of
  // seconds that some repeats miss, so the estimate is the fastest repeat
  // of each timed unit (a pairs/open-loop run, or one scenario of a fuzz
  // chunk). On a shared 4-vCPU VM, the median of one input's repeats
  // spread two to three times as much across processes as their minimum.
  Workload timed_w;
  make_workload(w.name, kTimedSeed, a.tiny, &timed_w);
  timed_w = timed_w.sub(0);
  std::vector<std::vector<Cost>> timed;  // per timed run, per unit
  auto time_run = [&](const Outcome& o, std::uint64_t hops) {
    if (w.kind == Kind::kFuzz) {
      timed.push_back(o.scenarios);
    } else {
      timed.push_back({Cost{o.cpu_s, o.wall_s, o.sim_s, hops}});
    }
  };
  std::size_t runs = 0;
  auto drive = [&](const Workload& sub) {
    if (w.kind != Kind::kFuzz) {
      for (int j = 0; j < 3; ++j) setups.push_back(setup_once(sub));
    }
    ++runs;
    Outcome o = run_driver(sub);
    if (w.kind == Kind::kFuzz) setups.push_back(o.setup_s);
    return o;
  };
  auto drive_and_mirror = [&](const Workload& sub, const std::string& what) {
    Outcome d = drive(sub);
    if (w.kind != Kind::kFuzz) {
      Outcome m = run_mirror(sub, Probe::kPlain, 0);
      ++runs;
      check_same(rep, d, m, (what + " mirror").c_str());
      d.frame_hops = m.frame_hops;
      d.attempted = m.attempted;
      d.failed = m.failed;
    }
    return d;
  };
  const std::int64_t t0 = mono_ns();
  const Outcome timed_first = drive_and_mirror(timed_w, "timed sub-experiment");
  time_run(timed_first, timed_first.frame_hops);
  auto repeat_timed = [&] {
    const Outcome d = drive(timed_w);
    check_same(rep, timed_first, d, "timed sub-experiment repeat");
    time_run(d, timed_first.frame_hops);
  };
  std::vector<Outcome> first(subs.size());
  for (std::size_t k = 0; k < subs.size(); ++k) {
    first[k] = drive_and_mirror(subs[k], "sub-experiment " + std::to_string(k));
    repeat_timed();
  }
  while (1e-9 * static_cast<double>(mono_ns() - t0) < a.seconds) {
    repeat_timed();
  }

  std::vector<double> cpu_per_sim, wall_per_sim, ns_per_hop;
  for (std::size_t u = 0; u < timed.front().size(); ++u) {
    double cpu = timed.front()[u].cpu_s, wall = timed.front()[u].wall_s;
    for (const std::vector<Cost>& t : timed) {
      cpu = std::min(cpu, t[u].cpu_s);
      wall = std::min(wall, t[u].wall_s);
    }
    const Cost& c = timed.front()[u];
    cpu_per_sim.push_back(ratio(cpu, c.sim_s));
    wall_per_sim.push_back(ratio(wall, c.sim_s));
    ns_per_hop.push_back(ratio(cpu * 1e9, static_cast<double>(c.frame_hops)));
  }

  // Pool the first pass.
  presto::stats::DDSketch fct;
  double goodput = 0, weight = 0, sim_s = 0;
  std::uint64_t attempted = 0, failed = 0, hops = 0, events = 0;
  for (const Outcome& o : first) {
    fct.merge(o.fct_ms);
    goodput += o.goodput_gbps * o.goodput_weight;
    weight += o.goodput_weight;
    attempted += o.attempted;
    failed += o.failed;
    hops += o.frame_hops;
    events += o.events;
    sim_s += o.sim_s;
  }
  goodput = ratio(goodput, weight);
  if (hops == 0 || fct.empty() || goodput <= 0) {
    rep.fail("workload produced no frames, completions or goodput");
  }

  rep.add("setup_s", median(setups), "s");
  rep.add("cpu_s_per_sim_s", median(cpu_per_sim), "s/s");
  rep.add("wall_s_per_sim_s", median(wall_per_sim), "s/s");
  rep.add("ns_per_frame_hop", median(ns_per_hop), "ns");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  rep.add("goodput_gbps", goodput, "Gbps");
  rep.add("fct_p50_ms", fct.percentile(50), "ms");
  rep.add("fct_p99_ms", fct.percentile(99), "ms");
  std::printf("# %s seed=%" PRIu64 ": %u sub-experiments, %.6g simulated s,"
              " %" PRIu64 " frame-hops, %" PRIu64 " events; %zu runs\n",
              w.name.c_str(), a.seed, w.subs, sim_s, hops, events, runs);
  std::printf("# sub-experiment 0: digest %016" PRIx64 ", %" PRIu64
              " events\n",
              first.front().digest, first.front().events);
  {
    std::vector<double> v;
    for (const std::vector<Cost>& t : timed) {
      double cpu = 0, sim = 0;
      for (const Cost& c : t) {
        cpu += c.cpu_s;
        sim += c.sim_s;
      }
      v.push_back(ratio(cpu, sim));
    }
    std::sort(v.begin(), v.end());
    std::printf("# timed sub-experiment (seed %" PRIu64 ", sub-experiment 0):"
                " digest %016" PRIx64 "; cpu_s_per_sim_s over %zu timed runs:"
                " min %.4g median %.4g max %.4g\n",
                kTimedSeed, timed_first.digest, v.size(), v.front(),
                median(v), v.back());
  }
  std::printf("# fct ms p90 %.4g p95 %.4g p98 %.4g p99.5 %.4g max %.4g\n",
              fct.percentile(90), fct.percentile(95), fct.percentile(98),
              fct.percentile(99.5), fct.max());
  std::printf("# fct samples: %" PRIu64 " %s; fail_frac %.6g (%" PRIu64
              "/%" PRIu64 " operations)\n",
              fct.count(), sample_kind(w.kind),
              ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              failed, attempted);
  rep.print(attempted, failed);
  return 0;
}

int run_traced(const Workload& full, const Args& a) {
  // The traced run measures the first sub-experiment.
  const Workload w = full.sub(0);
  Report rep;
  constexpr presto::sim::Time kSlice = 100 * presto::sim::kMicrosecond;
  std::vector<double> untraced_cpu;
  std::vector<Outcome> plain;
  const std::int64_t t0 = mono_ns();
  do {
    plain.push_back(run_driver(w));
    untraced_cpu.push_back(plain.back().cpu_s);
  } while (1e-9 * static_cast<double>(mono_ns() - t0) < a.seconds / 3 &&
           plain.size() < 3);
  const Outcome traced = run_mirror(w, Probe::kTrace, kSlice);
  const Outcome checked = w.kind == Kind::kFuzz
                              ? traced
                              : run_mirror(w, Probe::kChecked, kSlice);
  const Outcome& ref = plain.front();
  for (std::size_t i = 1; i < plain.size(); ++i) {
    check_same(rep, ref, plain[i], "untraced repeat");
  }
  check_same(rep, ref, traced, "traced run");
  check_same(rep, ref, checked, "checked run");

  const LayerCounts& t = traced.layers;
  const LayerCounts& c = checked.layers;
  if (t.counter_drops != c.counter_drops) {
    rep.fail("drop counters differ between traced and checked runs");
  }
  // The checker's tap and the port/switch/host counters must agree on
  // every frame destroyed, cause by cause.
  auto tap = [&c](TapDropCause k) {
    return c.tap_drops[static_cast<std::size_t>(k)];
  };
  const std::array<std::uint64_t, 5> by_tap = {
      tap(TapDropCause::kQueueFull) + tap(TapDropCause::kLinkDown) +
          tap(TapDropCause::kLinkDownTx),
      tap(TapDropCause::kLossModel), tap(TapDropCause::kCorrupt),
      tap(TapDropCause::kNoRoute), tap(TapDropCause::kHostRing)};
  if (by_tap != c.counter_drops) {
    rep.fail("tap drop causes disagree with port/switch/host counters");
  }

  const double hops = static_cast<double>(t.frame_hops);
  const double events = static_cast<double>(traced.events);
  const double run_ns = static_cast<double>(t.run_ns);
  const double u_cpu = median(untraced_cpu);
  rep.add("sim.events", events, "count");
  rep.add("sim.events_per_frame_hop", ratio(events, hops), "1");
  rep.add("sim.ns_per_event", ratio(u_cpu * 1e9, events), "ns");
  rep.add("sim.allocs_per_frame_hop", ratio(static_cast<double>(t.allocs), hops),
          "1");
  rep.add("sim.pending_peak", static_cast<double>(t.pending_peak), "count");
  rep.add("net.frame_hops", hops, "count");
  rep.add("net.switch.rx_calls", static_cast<double>(t.switch_rx_calls),
          "count");
  rep.add("net.switch.ns_per_rx",
          ratio(static_cast<double>(t.switch_self_ns),
                static_cast<double>(t.switch_rx_calls)),
          "ns");
  rep.add("net.switch.cpu_share",
          ratio(static_cast<double>(t.switch_self_ns), run_ns), "1");
  rep.add("net.drops.queue_full",
          static_cast<double>(tap(TapDropCause::kQueueFull)), "count");
  rep.add("net.drops.loss_model",
          static_cast<double>(tap(TapDropCause::kLossModel)), "count");
  rep.add("net.drops.corrupt",
          static_cast<double>(tap(TapDropCause::kCorrupt)), "count");
  rep.add("net.drops.link_down",
          static_cast<double>(tap(TapDropCause::kLinkDown) +
                              tap(TapDropCause::kLinkDownTx)),
          "count");
  rep.add("net.drops.no_route",
          static_cast<double>(tap(TapDropCause::kNoRoute)), "count");
  rep.add("host.rx_calls", static_cast<double>(t.host_rx_calls), "count");
  rep.add("host.ns_per_rx",
          ratio(static_cast<double>(t.host_self_ns),
                static_cast<double>(t.host_rx_calls)),
          "ns");
  rep.add("host.cpu_share", ratio(static_cast<double>(t.host_self_ns), run_ns),
          "1");
  rep.add("host.ring_drops", static_cast<double>(tap(TapDropCause::kHostRing)),
          "count");
  rep.add("offload.gro.segments", static_cast<double>(t.gro_segments),
          "count");
  rep.add("offload.gro.frames_per_segment",
          ratio(static_cast<double>(t.gro_frames),
                static_cast<double>(t.gro_segments)),
          "1");
  rep.add("offload.rx_cpu_util", t.rx_cpu_util, "1");
  rep.add("tcp.fast_retransmits", static_cast<double>(t.fast_retransmits),
          "count");
  rep.add("tcp.timeouts", static_cast<double>(t.timeouts), "count");
  rep.add("tcp.retx_bytes_frac",
          ratio(static_cast<double>(t.retx_bytes),
                static_cast<double>(t.sent_bytes)),
          "1");
  rep.add("core.flowcells", static_cast<double>(t.flowcells), "count");
  rep.add("core.bytes_per_flowcell",
          ratio(static_cast<double>(t.flowcell_bytes),
                static_cast<double>(t.flowcells)),
          "B");
  rep.add("workload.flows_offered", static_cast<double>(t.flows_offered),
          "count");
  rep.add("workload.flows_completed", static_cast<double>(t.flows_completed),
          "count");
  rep.add("workload.measured_load", t.measured_load, "1");
  rep.add("controller.ticks", static_cast<double>(t.ctl_ticks), "count");
  rep.add("controller.pushes", static_cast<double>(t.ctl_pushes), "count");
  rep.add("controller.damped", static_cast<double>(t.ctl_damped), "count");
  rep.add("controller.recomputes_skipped",
          static_cast<double>(t.ctl_recomputes_skipped), "count");
  rep.add("telemetry.reports_sent", static_cast<double>(t.reports_sent),
          "count");
  rep.add("telemetry.reports_dropped", static_cast<double>(t.reports_dropped),
          "count");
  rep.add("check.tap_calls", static_cast<double>(c.tap_calls), "count");
  rep.add("check.ns_per_tap",
          ratio(static_cast<double>(c.tap_self_ns),
                static_cast<double>(c.tap_calls)),
          "ns");
  rep.add("check.cpu_share",
          ratio(static_cast<double>(c.tap_self_ns),
                static_cast<double>(c.run_ns)),
          "1");
  rep.add("check.violations", static_cast<double>(c.violations), "count");
  rep.add("sim.residual_cpu_share",
          1 - ratio(static_cast<double>(t.switch_self_ns + t.host_self_ns),
                    run_ns),
          "1");
  rep.add("trace.overhead_pct", 100 * (ratio(traced.cpu_s, u_cpu) - 1), "%");
  std::printf("# %s seed=%" PRIu64 " traced\n", w.name.c_str(), a.seed);
  std::printf("# sub-experiment 0: digest %016" PRIx64 ", %" PRIu64
              " events\n",
              ref.digest, ref.events);
  std::printf("# host cpu s: untraced");
  for (double v : untraced_cpu) std::printf(" %.4g", v);
  std::printf(", traced %.4g, checked %.4g\n", traced.cpu_s, checked.cpu_s);
  if (c.violations > 0) {
    std::printf("# FINDING: %" PRIu64 " oracle violation(s)\n", c.violations);
  }
  // The mirror counts what the driver cannot see (stalled RPCs). The
  // checked run is one more operation, failed by any oracle firing (fuzz
  // scenarios already count their own violations).
  if (w.kind == Kind::kFuzz) {
    rep.print(traced.attempted, traced.failed);
  } else {
    rep.print(traced.attempted + 1,
              traced.failed + (c.violations > 0 ? 1 : 0));
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s>"
                 " --trace <0|1> [--tiny]\n");
    return 2;
  }
  Workload w;
  if (!make_workload(a.workload, a.seed, a.tiny, &w)) {
    std::fprintf(stderr, "unknown workload: %s\n", a.workload.c_str());
    return 2;
  }
  return a.trace == 1 ? run_traced(w, a) : run_untraced(w, a);
}
