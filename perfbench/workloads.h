// The benchmark's workloads and the runs that measure them.
//
// Each workload is built from the workload seed alone. An untraced run goes
// through the public drivers users call (harness::run_pairs,
// harness::run_openloop, check::ScenarioRun), so an optimisation anywhere
// under them shows up. Those drivers build and destroy their experiment
// internally, so the traced runs replay the same driver steps on a
// harness::Experiment the benchmark can reach ("mirror" runs); the
// behaviour digest and event count of every run must agree, which proves
// both that the mirror is faithful and that the decorators are transparent.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/openloop.h"
#include "harness/runners.h"
#include "stats/ddsketch.h"
#include "workload/patterns.h"

namespace perfbench {

enum class Kind { kPairs, kOpenLoop, kFuzz };

struct Workload {
  std::string name;
  Kind kind = Kind::kPairs;
  presto::harness::ExperimentConfig cfg;
  // kPairs: harness::run_pairs over fixed host pairs.
  std::vector<presto::workload::HostPair> pairs;
  presto::harness::RunOptions run;
  // kOpenLoop: harness::run_openloop over websearch Poisson arrivals plus a
  // synchronized incast tenant.
  double load = 0;
  std::uint32_t incast_fanin = 0;
  std::uint64_t incast_bytes = 0;
  presto::sim::Time incast_interval = 0;
  presto::harness::OpenLoopOptions ol;
  // kFuzz: check::Scenario::generate over [fuzz_first, fuzz_first+count).
  std::uint64_t fuzz_first = 0;
  std::uint32_t fuzz_count = 0;

  /// A run measures `subs` independent sub-experiments and pools their
  /// simulated results, so one seed's figures average over several
  /// draws. Sub-experiment i of seed s runs with experiment seed
  /// s * 1000 + i (fuzz: the i-th chunk of the scenario block).
  std::uint32_t subs = 1;
  Workload sub(std::uint32_t i) const;

  /// Simulated time of one pairs/open-loop run.
  presto::sim::Time sim_time() const;
};

/// Builds workload `name` from `seed`: fabric256_elephants,
/// websearch_openloop, gray_asym_ctl or fuzz_oracles. `tiny` shrinks any
/// of them for tests.
bool make_workload(const std::string& name, std::uint64_t seed, bool tiny,
                   Workload* out);

/// Exact per-layer counts, read through public accessors after a mirror run.
struct LayerCounts {
  std::uint64_t frame_hops = 0;        ///< Frames serialized on any link.
  std::uint64_t pending_peak = 0;      ///< Event-queue depth, slice maximum.
  std::uint64_t allocs = 0;            ///< operator new calls while running.
  std::int64_t run_ns = 0;             ///< Host CPU time of the run.
  // Decorator spans (traced runs).
  std::uint64_t switch_rx_calls = 0;
  std::int64_t switch_self_ns = 0;
  std::uint64_t host_rx_calls = 0;
  std::int64_t host_self_ns = 0;
  std::uint64_t tap_calls = 0;
  std::int64_t tap_self_ns = 0;
  /// Frames destroyed, by net::TapDropCause (checked runs only).
  std::array<std::uint64_t, 7> tap_drops{};
  /// Frames destroyed, from port/switch/host counters: {queue full or link
  /// down, loss model, corrupt, no route, host ring}.
  std::array<std::uint64_t, 5> counter_drops{};
  // Offload.
  std::uint64_t gro_segments = 0;
  std::uint64_t gro_frames = 0;
  double rx_cpu_util = 0;
  // TCP and the Presto edge.
  std::uint64_t fast_retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t retx_bytes = 0;
  std::uint64_t sent_bytes = 0;
  std::uint64_t flowcells = 0;
  std::uint64_t flowcell_bytes = 0;
  // Workload.
  std::uint64_t flows_offered = 0;
  std::uint64_t flows_completed = 0;
  double measured_load = 0;
  // Controller and fabric telemetry.
  std::uint64_t ctl_ticks = 0;
  std::uint64_t ctl_pushes = 0;
  std::uint64_t ctl_damped = 0;
  std::uint64_t ctl_recomputes_skipped = 0;
  std::uint64_t reports_sent = 0;
  std::uint64_t reports_dropped = 0;
  // Oracles.
  std::uint64_t violations = 0;
};

/// Host cost of one timed piece of work and what it simulated.
struct Cost {
  double cpu_s = 0;
  double wall_s = 0;
  double sim_s = 0;
  std::uint64_t frame_hops = 0;
};

/// What one run of a workload produced.
struct Outcome {
  /// Behaviour digest: delivered bytes, FCT sketch and drops as far as the
  /// public driver reports them — never the executed-event count.
  std::uint64_t digest = 0;
  std::uint64_t events = 0;         ///< Simulator events executed.
  double sim_s = 0;                 ///< Simulated seconds.
  double goodput_gbps = 0;
  double goodput_weight = 0;        ///< Flows behind goodput_gbps.
  presto::stats::DDSketch fct_ms;
  std::uint64_t attempted = 0;      ///< Flows, RPCs or scenarios.
  std::uint64_t failed = 0;         ///< Unfinished, stalled or violating.
  double cpu_s = 0;                 ///< Host CPU time of the whole run.
  double wall_s = 0;                ///< Host wall time of the whole run.
  double setup_s = 0;               ///< Fuzz only: summed scenario set-up.
  std::uint64_t frame_hops = 0;     ///< 0 when the driver hides it.
  /// Fuzz, untraced: one entry per scenario, the timed unit there (a
  /// chunk's simulated time depends on how many of its scenarios wait out
  /// a retransmission timeout, its host time hardly at all).
  std::vector<Cost> scenarios;
  LayerCounts layers;               ///< Mirror runs only.
};

/// Runs the workload through the public drivers, untraced.
Outcome run_driver(const Workload& w);

enum class Probe {
  kPlain,    ///< Mirror run with no decorators (untraced reference).
  kTrace,    ///< Timing decorators on every switch and host.
  kChecked,  ///< Decorators plus an armed Checker behind a timing tap.
};

/// Replays the driver's steps on a reachable experiment (see file comment),
/// advancing in fixed `slice`s of simulated time.
Outcome run_mirror(const Workload& w, Probe probe, presto::sim::Time slice);

/// Host wall seconds from config to the first simulated event of one
/// pairs/open-loop run (experiment built, workload attached).
double setup_once(const Workload& w);

/// Global operator new calls (the benchmark binary counts them).
std::uint64_t alloc_count();

}  // namespace perfbench
