// Seeded fuzz scenarios for the invariant oracles.
//
// A Scenario is a small, fully serializable description of one randomized
// run: topology shape, scheme, workload mix, a fault plan made of
// *recoverable units* (every injected fault heals before the scenario cap,
// so a correct simulation always quiesces), and an optional test-only bug
// hook. `generate(seed)` derives everything deterministically from the seed;
// `to_string()`/`parse()` round-trip a one-line spec so a failing case can
// be replayed from the command line verbatim.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/oracle.h"
#include "controller/control_loop.h"
#include "harness/experiment.h"
#include "net/sink.h"

namespace presto::check {

struct FlowSpec {
  net::HostId src = 0;
  net::HostId dst = 0;
  std::uint64_t bytes = 0;
};

struct RpcSpec {
  net::HostId src = 0;
  net::HostId dst = 0;
  std::uint64_t bytes = 0;
  std::uint32_t count = 1;
};

struct Scenario {
  std::uint64_t seed = 1;
  harness::Scheme scheme = harness::Scheme::kPresto;
  /// Fabric shape; non-Clos kinds fuzz the asymmetric-path regimes. The
  /// one-line spec omits the key when it is kClos, so pre-existing specs
  /// replay unchanged.
  net::TopologyKind topo = net::TopologyKind::kClos;
  std::uint32_t spines = 2;
  std::uint32_t leaves = 2;
  std::uint32_t hosts_per_leaf = 2;
  std::uint32_t gamma = 1;
  std::uint64_t switch_buffer_bytes = 200 * 1024;
  bool edge_suspicion = false;
  std::vector<FlowSpec> flows;
  std::vector<RpcSpec> rpcs;
  /// Fault-plan statements (FaultPlan grammar). Each element is one
  /// self-recovering unit — possibly several ';'-joined statements (down
  /// then up, degrade then heal) — so the shrinker can drop whole units
  /// without leaving a permanent fault behind.
  std::vector<std::string> fault_units;
  /// Closed-loop controller re-weighting (DESIGN.md §17). Disabled (the
  /// default) keeps the static controller, so every pre-existing spec and
  /// pinned digest replays verbatim; the one-line spec carries it as a
  /// `ctl=` token only when enabled. The experiment derives the loop's
  /// stop_after from the scenario cap so capped runs still quiesce.
  controller::ControlLoopConfig ctl;
  sim::Time cap = 20 * sim::kSecond;
  /// Test-only defect to plant. "eat:12" destroys the 12th data frame
  /// serialized anywhere in the fabric without any accounting (the
  /// conservation oracle's shrinker demo); "eat@100000us:12" is the same
  /// defect armed only once the simulated clock passes 100 ms — a slow-burn
  /// bug that stays invisible through early soak epochs (no spaces: the
  /// value must survive the one-line spec round-trip). "stripe" swaps every
  /// server's sender policy for ungated striping, which reorders (the
  /// ordering oracle's demo on a reordering_free scheme). Empty = healthy.
  std::string bug;

  /// Joined fault plan as fed to ExperimentConfig::fault_plan.
  std::string fault_plan() const;

  /// One-line `key=value` spec (quoted where needed); parse() inverts it.
  std::string to_string() const;
  static bool parse(const std::string& text, Scenario* out,
                    std::string* err);

  /// Deterministic scenario from a fuzz seed.
  static Scenario generate(std::uint64_t seed);
};

struct RunOutcome {
  bool ok = true;
  bool drained = true;
  std::uint64_t total_violations = 0;
  /// Bitmask over OracleKind of every recorded violation.
  std::uint32_t kind_mask = 0;
  /// Kind of the first recorded violation (valid when !ok).
  OracleKind first_kind = OracleKind::kConservation;
  std::string report;
  std::uint64_t frames_delivered = 0;

  bool has_kind(OracleKind k) const {
    return (kind_mask & (1u << static_cast<unsigned>(k))) != 0;
  }
};

/// A fully built, armed, ready-to-run scenario: experiment + checker +
/// planted bug + scheduled workload, with the run control left to the
/// caller. run_scenario() drives one straight to the cap; the soak driver
/// (src/check/soak) instead advances it epoch by epoch, auditing and
/// digesting state at each boundary. Replaying the same Scenario through a
/// fresh ScenarioRun reproduces the identical event sequence — determinism
/// is the checkpoint serializer.
class ScenarioRun {
 public:
  ScenarioRun(const Scenario& sc, CheckerOptions opt = {});
  ScenarioRun(const ScenarioRun&) = delete;
  ScenarioRun& operator=(const ScenarioRun&) = delete;

  sim::Simulation& sim() { return ex_.sim(); }
  harness::Experiment& experiment() { return ex_; }
  Checker& checker() { return chk_; }
  const Scenario& scenario() const { return sc_; }

  /// Workload completion so far.
  std::size_t expected() const { return expected_; }
  std::size_t completed() const { return completed_; }

  /// Sum of every receiver's in-order frontier — application bytes
  /// delivered so far. This is the scheme-independent quantity the
  /// differential soak compares across load balancers.
  std::uint64_t app_delivered_bytes();

  /// Digest of the full simulation state: clock/queue/watermark, every
  /// host's datapath (TCP endpoints, GRO, LB policy, ring, uplink), and the
  /// checker's conservation books. Two runs of the same scenario agree on
  /// this value at equal executed-event watermarks; a mismatch at a resume
  /// boundary means the replay diverged.
  std::uint64_t state_digest();

  /// End-of-run audit (Checker::finish + workload-completion liveness) and
  /// outcome collection. Call once, at the scenario cap.
  RunOutcome finish();

  /// Outcome snapshot without the end-of-run audit (soak probes stop at an
  /// epoch boundary where undrained queues are legitimate).
  RunOutcome outcome();

 private:
  Scenario sc_;
  harness::Experiment ex_;
  Checker chk_;
  /// The planted bug's decorators, spliced between switch ports and their
  /// peers (empty when the scenario plants none).
  std::vector<std::unique_ptr<net::PacketSink>> bug_sinks_;
  std::size_t expected_ = 0;
  std::size_t completed_ = 0;
};

/// Builds the experiment, arms a Checker, plants the bug hook, runs the
/// workload to quiesce (or the cap), and audits. `opt` selects which
/// oracles run (strict tree-spine pinning is additionally cleared whenever
/// the scenario carries fault units).
RunOutcome run_scenario(const Scenario& sc, CheckerOptions opt = {});

}  // namespace presto::check
