// Table 2: east-west mice FCT with north-south cross traffic, normalized to
// ECMP, plus average east-west elephant throughput.
//
// Setup per §6: one remote user hangs off each spine behind a 100 Mbps WAN
// link; every server keeps a long-lived TCP connection to each remote user
// and fires a web-object-sized flow ([29]-shaped, log-uniform 500 B..50 KB)
// at a random remote user every 2 ms. A stride(8) east-west workload (with
// 50 KB mice) runs simultaneously.
//
// Paper result: avg east-west throughputs 5.7 / 7.4 / 8.2 / 8.9 Gbps for
// ECMP / MPTCP / Presto / Optimal; Presto cuts tail mice FCT by ~86-87%
// vs ECMP while MPTCP hits min-RTO timeouts at the 99.9th percentile.

#include <cmath>
#include <map>
#include <memory>

#include "bench_util.h"

using namespace presto;
using namespace presto::bench;

namespace {

struct NsResult {
  stats::DDSketch mice_fct_ms;
  double avg_tput_gbps = 0;
  std::uint64_t mice_timeouts = 0;
  telemetry::Snapshot telemetry;
};

NsResult run_ns(harness::Scheme scheme, std::uint64_t seed, bool telemetry) {
  harness::ExperimentConfig cfg;
  cfg.scheme = scheme;
  cfg.seed = seed;
  cfg.telemetry.metrics = telemetry;
  cfg.remote_users_per_spine = 1;
  harness::Experiment ex(cfg);
  sim::Rng rng = ex.fork_rng();

  const sim::Time warmup = scaled(100 * sim::kMillisecond);
  const sim::Time measure = scaled(500 * sim::kMillisecond);
  const sim::Time stop = warmup + measure;

  // East-west: stride(8) elephants + mice RPCs.
  const auto pairs = workload::stride_pairs(16, 8);
  std::vector<workload::ElephantApp*> els;
  for (const auto& [s, d] : pairs) els.push_back(&ex.add_elephant(s, d, 0));
  std::vector<std::unique_ptr<workload::PeriodicRpcApp>> mice;
  std::vector<workload::RpcChannel*> mice_chans;
  std::size_t i = 0;
  for (const auto& [s, d] : pairs) {
    auto& rpc = ex.open_rpc(s, d);
    mice_chans.push_back(&rpc);
    auto app = std::make_unique<workload::PeriodicRpcApp>(
        ex.sim(), rpc, 50'000, 5 * sim::kMillisecond,
        sim::kMillisecond * static_cast<sim::Time>(++i) / 4, stop,
        /*ping_pong=*/true);
    app->set_measure_from(warmup);
    mice.push_back(std::move(app));
  }

  // North-south: every server sends a web-object flow to a random remote
  // user every 2 ms over a persistent plain-TCP connection (the paper load
  // balances north-south with ECMP regardless of the east-west scheme).
  std::map<std::pair<net::HostId, net::HostId>,
           std::unique_ptr<workload::ByteChannel>>
      ns_chans;
  auto ns_channel = [&](net::HostId s, net::HostId r)
      -> workload::ByteChannel& {
    auto key = std::make_pair(s, r);
    auto it = ns_chans.find(key);
    if (it == ns_chans.end()) {
      it = ns_chans.emplace(key, ex.open_channel(s, r, /*allow_mptcp=*/false))
               .first;
    }
    return *it->second;
  };
  auto ns_rng = std::make_shared<sim::Rng>(rng.fork());
  const auto& remotes = ex.remote_users();
  for (net::HostId src : ex.servers()) {
    auto tick = std::make_shared<std::function<void()>>();
    *tick = [&, src, tick, ns_rng, stop] {
      if (ex.sim().now() >= stop) return;
      const net::HostId remote =
          remotes[ns_rng->below(remotes.size())];
      // Log-uniform 500 B .. 50 KB web object.
      const double u = ns_rng->uniform();
      const auto bytes = static_cast<std::uint64_t>(
          500.0 * std::pow(100.0, u));
      ns_channel(src, remote).send(bytes);
      ex.sim().schedule(2 * sim::kMillisecond, [tick] { (*tick)(); });
    };
    ex.sim().schedule(static_cast<sim::Time>(ns_rng->below(2000)) *
                          sim::kMicrosecond,
                      [tick] { (*tick)(); });
  }

  ex.sim().run_until(warmup);
  std::vector<std::uint64_t> base;
  for (auto* e : els) base.push_back(e->delivered());
  ex.sim().run_until(stop);

  NsResult r;
  double sum = 0;
  for (std::size_t k = 0; k < els.size(); ++k) {
    sum += 8.0 * static_cast<double>(els[k]->delivered() - base[k]) /
           sim::to_seconds(measure) / 1e9;
  }
  r.avg_tput_gbps = sum / static_cast<double>(els.size());
  for (const auto& app : mice) {
    for (double fct_ns : app->fcts().values()) r.mice_fct_ms.add(fct_ns / 1e6);
  }
  for (auto* ch : mice_chans) r.mice_timeouts += ch->timeouts();
  r.telemetry = ex.telemetry_snapshot();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  JsonReporter json("table2_north_south", argc, argv);
  json.note_run_config(seed_count(), time_scale());
  std::map<harness::Scheme, NsResult> results;
  for (harness::Scheme scheme : headline_schemes()) {
    const std::vector<harness::RunResult> runs = harness::run_indexed(
        seed_count(), thread_count(), [&](int s) {
          NsResult r = run_ns(scheme, 8000 + 17 * s, json.enabled());
          harness::RunResult rr;
          rr.fct_ms = std::move(r.mice_fct_ms);
          rr.avg_tput_gbps = r.avg_tput_gbps;
          rr.mice_timeouts = r.mice_timeouts;
          rr.telemetry = std::move(r.telemetry);
          return rr;
        });
    NsResult agg;
    for (const harness::RunResult& r : runs) {
      agg.mice_fct_ms.merge(r.fct_ms);
      agg.avg_tput_gbps += r.avg_tput_gbps / seed_count();
      agg.mice_timeouts += r.mice_timeouts;
      agg.telemetry.merge(r.telemetry);
    }
    if (json.enabled()) {
      harness::SweepResult sweep;
      sweep.avg_tput_gbps = agg.avg_tput_gbps;
      sweep.mice_timeouts = agg.mice_timeouts;
      sweep.fct_ms = agg.mice_fct_ms;
      sweep.telemetry = agg.telemetry;
      sweep.runs = runs;
      harness::ExperimentConfig cfg;
      cfg.scheme = scheme;
      json.set_point(harness::scheme_name(scheme));
      json.record(cfg, sweep);
    }
    results[scheme] = std::move(agg);
    std::fprintf(stderr, "%s done\n", harness::scheme_name(scheme));
  }

  const NsResult& ecmp = results[harness::Scheme::kEcmp];
  std::printf("Table 2: east-west mice FCT with north-south cross traffic,\n");
  std::printf("normalized to ECMP (negative = shorter FCT)\n\n");
  std::printf("%-12s %8s %9s %9s %9s\n", "Percentile", "ECMP", "Optimal",
              "Presto", "MPTCP");
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    const double base = ecmp.mice_fct_ms.percentile(p);
    std::printf("%-12.1f %8.1f", p, 1.0);
    for (harness::Scheme s :
         {harness::Scheme::kOptimal, harness::Scheme::kPresto,
          harness::Scheme::kMptcp}) {
      const double v = results[s].mice_fct_ms.percentile(p);
      if (s == harness::Scheme::kMptcp && p > 99.0 &&
          results[s].mice_timeouts > 0 && v > 100.0) {
        std::printf("  %8s", "TIMEOUT");
      } else {
        std::printf("  %+7.0f%%",
                    base > 0 ? 100.0 * (v - base) / base : 0.0);
      }
    }
    std::printf("   (ECMP: %.2f ms)\n", base);
  }
  std::printf("\nAvg east-west throughput (Gbps): ECMP %.1f, MPTCP %.1f, "
              "Presto %.1f, Optimal %.1f\n",
              ecmp.avg_tput_gbps,
              results[harness::Scheme::kMptcp].avg_tput_gbps,
              results[harness::Scheme::kPresto].avg_tput_gbps,
              results[harness::Scheme::kOptimal].avg_tput_gbps);
  std::printf("(paper: 5.7 / 7.4 / 8.2 / 8.9 Gbps)\n");
  return 0;
}
