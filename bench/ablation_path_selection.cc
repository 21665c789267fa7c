// Ablation: round-robin vs random shadow-MAC selection per flowcell, and
// Presto GRO's beta "recently merged" hold extension on/off.
//
// §2.1 argues round robin assigns flowcells "very evenly" where randomized
// selection can transiently pile flowcells onto one link; §3.2's beta rule
// keeps actively-filling segments held slightly past the timeout.

#include "bench_util.h"

using namespace presto;
using namespace presto::bench;

int main(int argc, char** argv) {
  JsonReporter json("ablation_path_selection", argc, argv);
  harness::RunOptions opt;
  opt.warmup = 100 * sim::kMillisecond;
  opt.measure = 400 * sim::kMillisecond;
  opt.rtt_probes = true;

  std::printf("Ablation: flowcell path selection + GRO beta rule, stride(8)\n");
  std::printf("%-24s %10s %10s %12s %10s\n", "variant", "tput Gbps",
              "fairness", "RTT p99 ms", "loss %");

  struct Variant {
    const char* name;
    bool random_selection;
    double beta;  // 0 disables the hold extension
  };
  const Variant variants[] = {
      {"round-robin (paper)", false, 2.0},
      {"random per flowcell", true, 2.0},
      {"round-robin, no beta", false, 1e9},
  };
  for (const Variant& v : variants) {
    harness::ExperimentConfig cfg;
    cfg.scheme = harness::Scheme::kPresto;
    cfg.lb.flowcell_random_selection = v.random_selection;
    cfg.host.presto_gro.beta = v.beta;
    json.set_point(v.name);
    const MultiRun r = run_seeds(cfg, stride_factory(16, 8), opt);
    std::printf("%-24s %10.2f %10.3f %12.3f %10.4f\n", v.name,
                r.avg_tput_gbps, r.fairness, r.rtt_ms.percentile(99),
                r.loss_pct);
    std::fflush(stdout);
  }
  return 0;
}
