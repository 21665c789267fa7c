// Figure 19 (beyond-paper robustness study): goodput through a flapping
// fabric link, with and without edge-side path-health degradation.
//
// A leaf-spine link flaps (down/up cycles) while stride elephants cross the
// fabric. Controller-only recovery waits out the ingress-reroute detection
// delay on every transition (5 ms) and the weighted push lands long after
// the flap ends (200 ms), so each down window blackholes the dead tree's
// flowcells. With edge suspicion enabled, senders quarantine the suspect
// label within a loss-recovery RTT and steer flowcells around it, so
// goodput during the fault windows is higher and the post-fault recovery
// to baseline is faster. Both variants are byte-deterministic per seed.

#include "bench_util.h"

using namespace presto;
using namespace presto::bench;

namespace {

struct FaultRun {
  double pre_gbps = 0;       ///< goodput before the first down transition
  double fault_gbps = 0;     ///< goodput across the whole flap interval
  double recovery_ms = 0;    ///< time after the last restore to reach 90%
  bool recovered = false;    ///< hit the 90% bar within the probe horizon
};

FaultRun run_flap(bool suspicion, std::uint64_t seed, bool telemetry,
                  harness::RunResult* rr) {
  harness::ExperimentConfig cfg;
  cfg.scheme = harness::Scheme::kPresto;
  cfg.seed = seed;
  cfg.lb.edge_suspicion = suspicion;
  cfg.telemetry.metrics = telemetry;
  if (telemetry) {
    // JSON runs carry the in-fabric telemetry plane: the flapping link's
    // tree shows up in the fabric_health label/loss anomaly sections.
    cfg.telemetry.fabric.monitors = true;
    cfg.telemetry.fabric.flush_period = scaled(5 * sim::kMillisecond);
  }
  // Goodput windows come from the flight recorder's app.delivered_bytes
  // series (one continuous run) instead of ad-hoc run_until probing.
  cfg.telemetry.timeseries = true;
  cfg.telemetry.sample_interval = scaled(500 * sim::kMicrosecond);
  if (!trace_out().empty()) {
    cfg.telemetry.span_sample_every = trace_span_every();
  }
  // "Hardware failover latency ranges from several to tens of milliseconds"
  // (§3.3) — use the upper end: the regime where waiting out the reroute
  // delay on every flap transition is expensive and edge reaction pays off.
  cfg.controller.failover_detect_delay = 20 * sim::kMillisecond;

  const sim::Time warmup = scaled(100 * sim::kMillisecond);
  const sim::Time fail_at = warmup + scaled(50 * sim::kMillisecond);
  const sim::Time period = scaled(60 * sim::kMillisecond);
  const std::uint32_t flaps = 3;
  // Spines are created before leaves, so spine 0 is switch 0 and leaf 0 is
  // switch `spines` (see net::make_clos).
  const net::SwitchId leaf0 = cfg.spines;
  cfg.fault_plan = "flap@" + std::to_string(fail_at) + "ns leaf=" +
                   std::to_string(leaf0) + " spine=0 group=0 period=" +
                   std::to_string(period) + "ns count=" +
                   std::to_string(flaps);

  harness::Experiment ex(cfg);
  std::vector<workload::ElephantApp*> els;
  for (const auto& [s, d] : workload::stride_pairs(16, 4)) {
    els.push_back(&ex.add_elephant(s, d, 0));
  }

  // Last restore: flap i goes down at fail_at + i*period, up period/2 later.
  const sim::Time flap_end =
      fail_at + static_cast<sim::Time>(flaps - 1) * period + period / 2;
  const sim::Time probe = scaled(10 * sim::kMillisecond);
  const sim::Time horizon = scaled(400 * sim::kMillisecond);

  // One continuous run; all goodput windows are sliced out of the recorded
  // app.delivered_bytes curve afterwards.
  ex.sim().run_until(flap_end + horizon);

  const telemetry::TimeSeries* delivered =
      ex.sampler()->find("app.delivered_bytes");
  auto bytes_at = [delivered](sim::Time t) {
    double v = 0;
    for (const telemetry::SeriesPoint& p : delivered->points()) {
      if (p.at > t) break;
      v = p.value;
    }
    return v;
  };
  auto window_gbps = [&](sim::Time from, sim::Time to) {
    return 8.0 * (bytes_at(to) - bytes_at(from)) / sim::to_seconds(to - from) /
           1e9 / static_cast<double>(els.size());
  };

  FaultRun out;
  out.pre_gbps = window_gbps(warmup, fail_at);
  out.fault_gbps = window_gbps(fail_at, flap_end);
  // Walk post-fault goodput in fixed windows until it recovers to 90% of
  // the pre-fault baseline (or the horizon expires).
  sim::Time t = flap_end;
  while (t < flap_end + horizon) {
    const double g = window_gbps(t, t + probe);
    t += probe;
    if (g >= 0.9 * out.pre_gbps) {
      out.recovered = true;
      break;
    }
  }
  out.recovery_ms = sim::to_millis(t - flap_end);
  if (rr != nullptr) {
    rr->telemetry = ex.telemetry_snapshot();
    rr->fabric_health_json = ex.fabric_health_json();
    if (ex.flight_recorder_enabled() && !trace_out().empty()) {
      rr->trace_json = ex.export_trace_json();
      rr->timeseries_csv = ex.export_timeseries_csv();
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  JsonReporter json("fig19_fault_recovery", argc, argv);
  json.note_run_config(seed_count(), time_scale());
  std::printf(
      "Figure 19: goodput through a flapping link, edge suspicion on/off\n");
  std::printf("%-16s %10s %10s %12s %10s\n", "variant", "Pre", "Fault",
              "Recovery_ms", "Recovered");
  for (const bool suspicion : {false, true}) {
    const std::vector<harness::RunResult> runs = harness::run_indexed(
        seed_count(), thread_count(), [&](int s) {
          harness::RunResult rr;
          const FaultRun r =
              run_flap(suspicion, 9100 + 7 * s, json.enabled(), &rr);
          rr.per_flow_gbps = {r.pre_gbps, r.fault_gbps, r.recovery_ms,
                              r.recovered ? 1.0 : 0.0};
          return rr;
        });
    FaultRun avg;
    double recovered = 0;
    harness::SweepResult agg;
    agg.runs = runs;
    for (const harness::RunResult& r : runs) {
      avg.pre_gbps += r.per_flow_gbps[0] / seed_count();
      avg.fault_gbps += r.per_flow_gbps[1] / seed_count();
      avg.recovery_ms += r.per_flow_gbps[2] / seed_count();
      recovered += r.per_flow_gbps[3] / seed_count();
      agg.telemetry.merge(r.telemetry);
      if (agg.fabric_health_json.empty() && !r.fabric_health_json.empty()) {
        agg.fabric_health_json = r.fabric_health_json;
      }
    }
    const char* name = suspicion ? "edge-suspicion" : "controller-only";
    if (!trace_out().empty()) {
      detail::write_trace_files(trace_out() + "." + name, 0, agg);
    }
    if (json.enabled()) {
      agg.avg_tput_gbps = avg.fault_gbps;
      harness::ExperimentConfig cfg;
      cfg.scheme = harness::Scheme::kPresto;
      cfg.lb.edge_suspicion = suspicion;
      json.set_point(name, {{"pre_gbps", avg.pre_gbps},
                            {"fault_gbps", avg.fault_gbps},
                            {"recovery_ms", avg.recovery_ms},
                            {"recovered_frac", recovered}});
      json.record(cfg, agg);
    }
    std::printf("%-16s %10.2f %10.2f %12.1f %10.2f\n", name, avg.pre_gbps,
                avg.fault_gbps, avg.recovery_ms, recovered);
    std::fflush(stdout);
  }
  return 0;
}
