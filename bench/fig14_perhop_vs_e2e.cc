// Figure 14: Presto with end-to-end shadow-MAC paths vs Presto with per-hop
// ECMP hashing on the flowcell ID, stride(8) workload.
//
// Paper result: shadow MACs average 9.3 Gbps vs 8.9 Gbps for per-hop
// hashing, with a better RTT distribution — randomized per-hop choices
// transiently pile flowcells onto one link, round-robin trees cannot.

#include "bench_util.h"

using namespace presto;
using namespace presto::bench;

int main(int argc, char** argv) {
  JsonReporter json("fig14_perhop_vs_e2e", argc, argv);
  harness::RunOptions opt;
  opt.warmup = 100 * sim::kMillisecond;
  opt.measure = 400 * sim::kMillisecond;
  opt.rtt_probes = true;

  std::vector<MultiRun> results;
  std::printf("Figure 14: Presto path selection, stride(8)\n");
  std::printf("%-22s %10s %10s\n", "variant", "tput Gbps", "loss %");
  for (harness::Scheme scheme :
       {harness::Scheme::kPrestoEcmp, harness::Scheme::kPresto}) {
    harness::ExperimentConfig cfg;
    cfg.scheme = scheme;
    json.set_point(harness::scheme_name(scheme));
    results.push_back(run_seeds(cfg, stride_factory(16, 8), opt));
    std::printf("%-22s %10.2f %10.4f\n", harness::scheme_name(scheme),
                results.back().avg_tput_gbps, results.back().loss_pct);
    std::fflush(stdout);
  }
  print_cdf_table("Figure 14: RTT, per-hop vs end-to-end", "ms",
                  {{"Presto+ECMP", &results[0].rtt_ms},
                   {"Presto+ShadowMAC", &results[1].rtt_ms}});
  return 0;
}
