// Figure 13: Presto vs flowlet switching (100 us and 500 us inactivity
// timers) — throughput and RTT under stride(8) on the Figure-3 Clos.
//
// Paper result: Presto 9.3 Gbps; flowlet-500us 7.6 Gbps (big flowlets still
// collide); flowlet-100us 4.3 Gbps (13-29% of packets reordered, stock GRO
// melts down); Presto cuts the 99.9th-percentile RTT 2-3.6x.

#include "bench_util.h"

using namespace presto;
using namespace presto::bench;

int main(int argc, char** argv) {
  JsonReporter json("fig13_flowlet_comparison", argc, argv);
  harness::RunOptions opt;
  opt.warmup = 100 * sim::kMillisecond;
  opt.measure = 400 * sim::kMillisecond;
  opt.rtt_probes = true;

  struct Variant {
    const char* name;
    harness::Scheme scheme;
    sim::Time gap;
  };
  const Variant variants[] = {
      {"Flowlet100us", harness::Scheme::kFlowlet, 100 * sim::kMicrosecond},
      {"Flowlet500us", harness::Scheme::kFlowlet, 500 * sim::kMicrosecond},
      {"Presto", harness::Scheme::kPresto, 0},
  };

  std::vector<MultiRun> results;
  std::printf("Figure 13: flowlet switching vs Presto, stride(8)\n");
  std::printf("%-14s %10s %10s %10s\n", "scheme", "tput Gbps", "fairness",
              "loss %");
  for (const Variant& v : variants) {
    harness::ExperimentConfig cfg;
    cfg.scheme = v.scheme;
    if (v.gap > 0) cfg.lb.flowlet_gap = v.gap;
    json.set_point(v.name,
                   {{"flowlet_gap_us", static_cast<double>(v.gap) / 1000.0}});
    results.push_back(run_seeds(cfg, stride_factory(16, 8), opt));
    const MultiRun& r = results.back();
    std::printf("%-14s %10.2f %10.3f %10.4f\n", v.name, r.avg_tput_gbps,
                r.fairness, r.loss_pct);
    std::fflush(stdout);
  }
  print_cdf_table("Figure 13: RTT, flowlet vs Presto", "ms",
                  {{"Flowlet100us", &results[0].rtt_ms},
                   {"Flowlet500us", &results[1].rtt_ms},
                   {"Presto", &results[2].rtt_ms}});
  std::printf("\n99.9th percentile RTT ratio (flowlet / Presto): "
              "100us=%.2fx 500us=%.2fx\n",
              results[0].rtt_ms.percentile(99.9) /
                  results[2].rtt_ms.percentile(99.9),
              results[1].rtt_ms.percentile(99.9) /
                  results[2].rtt_ms.percentile(99.9));
  return 0;
}
