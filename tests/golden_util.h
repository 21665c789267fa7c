// Pinned golden scenarios for the determinism lock-down tests.
//
// These two runs — a miniature Figure-7 stride workload and a miniature
// Figure-19 link-flap recovery — are digested down to a single 64-bit FNV
// value covering goodput, drop counters, executed-event count, telemetry
// counters, and the full flight-recorder exports. The digests were captured
// on the pre-overhaul simulator core (std::priority_queue + std::function)
// and must stay byte-identical forever: any change to event ordering, RNG
// consumption, or telemetry emission shows up as a digest mismatch.
//
// Everything here is deliberately env-independent: no PRESTO_BENCH_* knobs,
// fixed seeds, fixed (unscaled) durations.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "harness/runners.h"
#include "harness/sweep.h"
#include "telemetry/timeseries.h"
#include "workload/trace_dist.h"

namespace presto::testing {

/// FNV-1a 64-bit over a byte string.
inline std::uint64_t fnv1a(const std::string& s,
                           std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g|", v);
  out += buf;
}

inline void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
  out += '|';
}

/// Canonical string for a RunResult: every number that reaches a bench JSON
/// document, plus the scheduler identity (executed-event count) and the
/// rendered trace/time-series exports.
inline std::string canonical(const harness::RunResult& r) {
  std::string s;
  append_double(s, r.avg_tput_gbps);
  append_double(s, r.fairness);
  append_double(s, r.loss_pct);
  for (const double g : r.per_flow_gbps) append_double(s, g);
  append_u64(s, r.mice_timeouts);
  append_u64(s, r.executed_events);
  append_u64(s, static_cast<std::uint64_t>(r.rtt_ms.count()));
  append_double(s, r.rtt_ms.percentile(50.0));
  append_double(s, r.rtt_ms.percentile(99.0));
  append_u64(s, static_cast<std::uint64_t>(r.fct_ms.count()));
  append_double(s, r.fct_ms.percentile(50.0));
  append_double(s, r.fct_ms.percentile(99.0));
  for (const auto& [name, v] : r.telemetry.counters) {
    s += name;
    s += '=';
    append_u64(s, v);
  }
  s += "trace:";
  append_u64(s, fnv1a(r.trace_json));
  s += "csv:";
  append_u64(s, fnv1a(r.timeseries_csv));
  return s;
}

inline std::uint64_t digest(const harness::RunResult& r) {
  return fnv1a(canonical(r));
}

/// Miniature Figure 7: 4 paths, one elephant pair per path, mice + RTT
/// probes, full telemetry + flight recorder. ~50 ms of simulated time.
inline harness::ExperimentConfig golden_fig07_config() {
  harness::ExperimentConfig cfg;
  cfg.scheme = harness::Scheme::kPresto;
  cfg.spines = 4;
  cfg.leaves = 2;
  cfg.hosts_per_leaf = 4;
  cfg.seed = 4242;
  cfg.telemetry.metrics = true;
  cfg.telemetry.timeseries = true;
  cfg.telemetry.sample_interval = 500 * sim::kMicrosecond;
  cfg.telemetry.span_sample_every = 16;
  return cfg;
}

inline harness::RunResult golden_fig07_run(const harness::ExperimentConfig& cfg) {
  std::vector<workload::HostPair> pairs;
  for (std::uint32_t i = 0; i < 4; ++i) pairs.emplace_back(i, 4 + i);
  harness::RunOptions opt;
  opt.warmup = 10 * sim::kMillisecond;
  opt.measure = 40 * sim::kMillisecond;
  opt.mice = true;
  opt.rtt_probes = true;
  return harness::run_pairs(cfg, pairs, opt);
}

/// Miniature Figure 19: a leaf-spine link flaps twice while stride
/// elephants cross the fabric; edge suspicion on. The digest additionally
/// covers the goodput windows sliced from the recorded delivered-bytes
/// curve (the numbers fig19 reports).
inline harness::RunResult golden_fig19_run() {
  harness::ExperimentConfig cfg;
  cfg.scheme = harness::Scheme::kPresto;
  cfg.seed = 9107;
  cfg.lb.edge_suspicion = true;
  cfg.telemetry.metrics = true;
  cfg.telemetry.timeseries = true;
  cfg.telemetry.sample_interval = 500 * sim::kMicrosecond;
  cfg.telemetry.span_sample_every = 32;
  cfg.controller.failover_detect_delay = 20 * sim::kMillisecond;

  const sim::Time warmup = 20 * sim::kMillisecond;
  const sim::Time fail_at = warmup + 10 * sim::kMillisecond;
  const sim::Time period = 12 * sim::kMillisecond;
  const std::uint32_t flaps = 2;
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
  const sim::Time flap_end =
      fail_at + static_cast<sim::Time>(flaps - 1) * period + period / 2;
  ex.sim().run_until(flap_end + 60 * sim::kMillisecond);

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
    return 8.0 * (bytes_at(to) - bytes_at(from)) /
           sim::to_seconds(to - from) / 1e9 /
           static_cast<double>(els.size());
  };

  harness::RunResult r;
  r.per_flow_gbps = {window_gbps(warmup, fail_at),
                     window_gbps(fail_at, flap_end),
                     window_gbps(flap_end, flap_end + 40 * sim::kMillisecond)};
  r.avg_tput_gbps = r.per_flow_gbps[1];
  r.executed_events = ex.sim().executed();
  r.telemetry = ex.telemetry_snapshot();
  r.trace_json = ex.export_trace_json();
  r.timeseries_csv = ex.export_timeseries_csv();
  return r;
}

/// Miniature Table 1: the trace-driven workload loop from
/// bench/table1_trace_fct.cc (long-lived per-pair RPC channels, empirical
/// flow sizes, Poisson arrivals, cross-rack receivers) shrunk to one seed
/// and ~25 ms of measured time. Digest covers the mice-FCT sample stream,
/// per-elephant throughput, telemetry counters, and the executed-event
/// count — the full RNG draw order of the arrival processes. The scheme is
/// a parameter so golden_scheme_test can pin one digest per registry rival;
/// the default keeps the original Presto digest byte-identical.
inline harness::RunResult golden_table1_run(
    harness::Scheme scheme = harness::Scheme::kPresto) {
  harness::ExperimentConfig cfg;
  cfg.scheme = scheme;
  cfg.seed = 7013;
  cfg.telemetry.metrics = true;
  harness::Experiment ex(cfg);
  sim::Rng rng = ex.fork_rng();
  workload::TraceFlowDist dist(10.0);

  std::map<std::pair<net::HostId, net::HostId>, workload::RpcChannel*> chans;
  auto channel = [&](net::HostId s, net::HostId d) -> workload::RpcChannel& {
    auto key = std::make_pair(s, d);
    auto it = chans.find(key);
    if (it == chans.end()) it = chans.emplace(key, &ex.open_rpc(s, d)).first;
    return *it->second;
  };

  auto mice = std::make_shared<stats::Samples>();
  auto elephants = std::make_shared<stats::Samples>();
  const double target_load_bps = 1.2e9;
  const double mean_gap_s = dist.mean_bytes() * 8.0 / target_load_bps;
  const sim::Time warmup = 5 * sim::kMillisecond;
  const sim::Time stop = warmup + 25 * sim::kMillisecond;
  for (net::HostId src : ex.servers()) {
    auto schedule_next = std::make_shared<std::function<void()>>();
    auto host_rng = std::make_shared<sim::Rng>(rng.fork());
    *schedule_next = [&ex, &channel, &dist, src, schedule_next, host_rng,
                      stop, warmup, mean_gap_s, mice, elephants]() {
      if (ex.sim().now() >= stop) return;
      net::HostId dst;
      do {
        dst = static_cast<net::HostId>(host_rng->below(16));
      } while (dst == src || ex.logical_pod(dst) == ex.logical_pod(src));
      const std::uint64_t bytes = dist.sample(*host_rng);
      const sim::Time issued = ex.sim().now();
      channel(src, dst).issue(bytes, [=](sim::Time fct) {
        if (issued < warmup) return;
        if (bytes < 100'000) {
          mice->add(sim::to_millis(fct));
        } else if (bytes > 1'000'000) {
          elephants->add(8.0 * static_cast<double>(bytes) /
                         static_cast<double>(fct));
        }
      });
      ex.sim().schedule(
          static_cast<sim::Time>(host_rng->exponential(mean_gap_s) * 1e9),
          [schedule_next] { (*schedule_next)(); });
    };
    ex.sim().schedule(
        static_cast<sim::Time>(rng.exponential(mean_gap_s) * 1e9),
        [schedule_next] { (*schedule_next)(); });
  }
  ex.sim().run_until(stop + 100 * sim::kMillisecond);  // drain

  harness::RunResult r;
  r.fct_ms = stats::DDSketch::of(*mice);
  r.per_flow_gbps = elephants->values();
  r.avg_tput_gbps = elephants->mean();
  r.executed_events = ex.sim().executed();
  r.telemetry = ex.telemetry_snapshot();
  return r;
}

/// Miniature Figure 16: stride(8) mice-FCT run from bench/fig16_mice_fct.cc
/// with one seed and a short window. Digest covers the mice FCT samples,
/// timeout counter, telemetry, and executed events. Scheme parameterized
/// like golden_table1_run; default = the original Presto digest.
inline harness::RunResult golden_fig16_run(
    harness::Scheme scheme = harness::Scheme::kPresto) {
  harness::ExperimentConfig cfg;
  cfg.scheme = scheme;
  cfg.seed = 3013;
  cfg.telemetry.metrics = true;
  harness::RunOptions opt;
  opt.warmup = 10 * sim::kMillisecond;
  opt.measure = 30 * sim::kMillisecond;
  opt.mice = true;
  opt.mice_interval = 2 * sim::kMillisecond;
  return harness::run_pairs(cfg, workload::stride_pairs(16, 8), opt);
}

}  // namespace presto::testing
