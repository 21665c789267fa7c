// Ablation: flowcell size sweep (16/32/64/128 KB threshold).
//
// The paper picks 64 KB because it equals the maximum TSO segment — finer
// granularity balances load better but multiplies reordering events and
// per-flowcell overhead; coarser granularity approaches flowlet-style
// collision behaviour. (128 KB exceeds the TSO limit, so consecutive
// segments share a flowcell.)

#include "bench_util.h"

using namespace presto;
using namespace presto::bench;

int main(int argc, char** argv) {
  JsonReporter json("ablation_flowcell_size", argc, argv);
  harness::RunOptions opt;
  opt.warmup = 100 * sim::kMillisecond;
  opt.measure = 400 * sim::kMillisecond;
  opt.rtt_probes = true;

  std::printf("Ablation: flowcell threshold sweep, stride(8)\n");
  std::printf("%-10s %10s %10s %12s %12s\n", "flowcell", "tput Gbps",
              "fairness", "RTT p99 ms", "loss %%");
  for (std::uint32_t kb : {16, 32, 64, 128}) {
    harness::ExperimentConfig cfg;
    cfg.scheme = harness::Scheme::kPresto;
    // The flowcell threshold lives in the sender LB config; Experiment
    // constructs FlowcellEngine from the host template, so override the
    // segment size the TCP stack emits as well when below 64 KB.
    cfg.lb.flowcell_bytes = kb * 1024;
    json.set_point("flowcell=" + std::to_string(kb) + "KB",
                   {{"flowcell_kb", static_cast<double>(kb)}});
    const MultiRun r = run_seeds(cfg, stride_factory(16, 8), opt);
    std::printf("%-10u %10.2f %10.3f %12.3f %12.4f\n", kb, r.avg_tput_gbps,
                r.fairness, r.rtt_ms.percentile(99), r.loss_pct);
    std::fflush(stdout);
  }
  return 0;
}
