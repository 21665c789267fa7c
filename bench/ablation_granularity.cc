// Ablation: load-balancing granularity — per-packet spraying vs 64 KB
// flowcells vs flowlets vs per-flow (ECMP).
//
// §2.1's central argument: per-packet spraying balances load best but
// defeats TSO/GRO (segment-per-packet => CPU melt + TCP reordering), per-flow
// hashing collides, flowlets are non-uniform; 64 KB flowcells hit the sweet
// spot because they match the TSO segment size.

#include "bench_util.h"

using namespace presto;
using namespace presto::bench;

int main(int argc, char** argv) {
  JsonReporter json("ablation_granularity", argc, argv);
  harness::RunOptions opt;
  opt.warmup = 100 * sim::kMillisecond;
  opt.measure = 400 * sim::kMillisecond;

  struct Variant {
    const char* name;
    harness::Scheme scheme;
  };
  const Variant variants[] = {
      {"per-flow (ECMP)", harness::Scheme::kEcmp},
      {"flowlet 500us", harness::Scheme::kFlowlet},
      {"flowcell 64KB (Presto)", harness::Scheme::kPresto},
      {"per-packet", harness::Scheme::kPerPacket},
  };

  std::printf("Ablation: LB granularity, stride(8), 16 hosts\n");
  std::printf("%-24s %10s %10s %10s\n", "granularity", "tput Gbps",
              "fairness", "loss %");
  for (const Variant& v : variants) {
    harness::ExperimentConfig cfg;
    cfg.scheme = v.scheme;
    json.set_point(v.name);
    const MultiRun r = run_seeds(cfg, stride_factory(16, 8), opt);
    std::printf("%-24s %10.2f %10.3f %10.4f\n", v.name, r.avg_tput_gbps,
                r.fairness, r.loss_pct);
    std::fflush(stdout);
  }
  std::printf("\n(expected ordering: flowcells ~ line rate; per-packet is\n"
              "balanced but capped by per-packet receive costs; per-flow\n"
              "collides; flowlets sit between)\n");
  return 0;
}
