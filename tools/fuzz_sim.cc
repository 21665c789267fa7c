// Seeded scenario fuzzer: random topologies/workloads/fault plans run with
// every invariant oracle armed; the first violation is automatically shrunk
// to a minimal one-line reproducer.
//
// Usage:
//   fuzz_sim --seed-range 0:500 --check all           # fuzz a seed range
//   fuzz_sim --seed 1234                              # one seed
//   fuzz_sim --replay 'seed=12 scheme=presto ...'     # re-run a repro spec
//   fuzz_sim --bug eat:40                             # plant a test defect
//   fuzz_sim ... --repro-out repro.txt                # save the minimized
//                                                     # spec + command
//   fuzz_sim ... --no-shrink -v
//
// Soak tier (long-horizon runs with per-epoch checkpoints):
//   fuzz_sim --seed 7 --soak --epoch-us 50000 --manifest soak.json
//   fuzz_sim --seed 7 --soak --epochs 40 --epoch-events 200000
//   fuzz_sim --seed 7 --soak --diff-schemes presto,ecmp,flowlet
//   fuzz_sim --resume soak.json                       # replay + continue,
//                                                     # validating digests
//   fuzz_sim ... --watchdog 120                       # wall-clock bound
//
// On SIGINT/SIGTERM or a watchdog expiry the current scenario's one-line
// repro is printed before exiting, so a hung or killed soak is never lost.
//
// Exit codes: 0 = no violations, 1 = violation found, 2 = usage/config,
// 3 = watchdog expired, 130 = interrupted.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <unistd.h>

#include "check/scenario.h"
#include "check/shrink.h"
#include "check/soak.h"

namespace {

using presto::check::CheckerOptions;
using presto::check::DiffOptions;
using presto::check::DiffResult;
using presto::check::EpochRecord;
using presto::check::OracleKind;
using presto::check::ResumeResult;
using presto::check::RunOutcome;
using presto::check::Scenario;
using presto::check::SoakManifest;
using presto::check::SoakOptions;
using presto::check::SoakResult;

struct Args {
  std::uint64_t seed_lo = 0;
  std::uint64_t seed_hi = 0;
  bool have_range = false;
  std::string replay;
  std::string bug;
  std::string check = "all";
  std::string repro_out;
  bool no_shrink = false;
  bool verbose = false;
  // Soak tier.
  bool soak = false;
  std::uint32_t epochs = 0;
  std::int64_t epoch_us = 0;
  std::uint64_t epoch_events = 0;
  std::uint32_t audit_every = 1;
  std::int64_t leak_age_us = 20'000;
  std::string diff_schemes;
  std::string manifest;
  std::string resume;
  unsigned watchdog_s = 0;
  std::int64_t shrink_deadline_ms = 0;
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seed N | --seed-range A:B | --replay 'spec' | "
      "--resume MANIFEST]\n"
      "          [--check all|conservation,tcp,gro,topology,ordering]\n"
      "          [--bug eat:N|eat@Tus:N|stripe] [--repro-out PATH]\n"
      "          [--no-shrink]\n"
      "          [--soak] [--epochs N] [--epoch-us T] [--epoch-events M]\n"
      "          [--audit-every N] [--leak-age-us T]\n"
      "          [--diff-schemes a,b,c|all] [--manifest PATH]\n"
      "          [--watchdog SECONDS] [--shrink-deadline-ms T] [-v]\n",
      argv0);
  return 2;
}

// ---------------------------------------------------------------------------
// Watchdog + interruption: the handler must be async-signal-safe, so the
// one-line repro is pre-formatted into a static buffer before each run and
// the handler only write()s it and exits.
// ---------------------------------------------------------------------------

char g_repro_buf[1536];
volatile std::size_t g_repro_len = 0;

extern "C" void repro_signal_handler(int sig) {
  const std::size_t n = g_repro_len;
  if (n > 0) {
    ssize_t ignored = write(STDERR_FILENO, g_repro_buf, n);
    (void)ignored;
  }
  _exit(sig == SIGALRM ? 3 : 130);
}

/// Pre-formats the handler's message for the scenario about to run.
void arm_repro_line(const Scenario& sc, const char* cause) {
  std::string line = "\n[fuzz_sim] ";
  line += cause;
  line += "; reproduce the in-flight scenario with:\n  fuzz_sim --replay '";
  line += sc.to_string();
  line += "'\n";
  const std::size_t n = line.size() < sizeof(g_repro_buf)
                            ? line.size()
                            : sizeof(g_repro_buf) - 1;
  std::memcpy(g_repro_buf, line.data(), n);
  g_repro_len = n;
}

void install_signal_handlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = repro_signal_handler;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGALRM, &sa, nullptr);
}

/// RAII wall-clock bound around one scenario execution (0 disables).
struct WatchdogScope {
  explicit WatchdogScope(unsigned seconds) { if (seconds > 0) alarm(seconds); }
  ~WatchdogScope() { alarm(0); }
};

bool parse_check(const std::string& spec, CheckerOptions* opt) {
  if (spec == "all") return true;
  opt->conservation = opt->tcp = opt->gro = opt->topology = false;
  opt->ordering = false;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string item = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (item == "conservation") opt->conservation = true;
    else if (item == "tcp") opt->tcp = true;
    else if (item == "gro") opt->gro = true;
    else if (item == "topology") opt->topology = true;
    else if (item == "ordering") opt->ordering = true;
    else return false;
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return true;
}

bool parse_schemes(const std::string& spec,
                   std::vector<presto::harness::Scheme>* out) {
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string item = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    presto::harness::Scheme s;
    if (!presto::check::parse_scheme_name(item, &s)) return false;
    out->push_back(s);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return !out->empty();
}

SoakOptions soak_options(const Args& args, const CheckerOptions& copt) {
  SoakOptions opt;
  opt.checker = copt;
  if (args.epoch_events > 0) {
    opt.epoch_length = 0;
    opt.epoch_events = args.epoch_events;
  } else if (args.epoch_us > 0) {
    opt.epoch_length = args.epoch_us * presto::sim::kMicrosecond;
  }
  opt.max_epochs = args.epochs;
  opt.audit_every = args.audit_every;
  opt.leak_age = args.leak_age_us * presto::sim::kMicrosecond;
  return opt;
}

void fill_manifest_params(SoakManifest* man, const SoakOptions& opt) {
  man->epoch_length = opt.epoch_length;
  man->epoch_events = opt.epoch_events;
  man->audit_every = opt.audit_every;
  man->leak_age = opt.leak_age;
}

/// Prints the violation, shrinks (unless disabled), and emits the repro.
/// `runner` (optional) replaces plain run_scenario during shrinking so
/// soak-only oracles still fire; `window_note` is appended to the repro
/// file when the soak tier narrowed a time window first.
int handle_violation(const Scenario& sc, const RunOutcome& out,
                     const Args& args,
                     std::function<RunOutcome(const Scenario&)> runner = {},
                     const std::string& window_note = {}) {
  std::printf("VIOLATION (seed %llu, %llu total):\n%s",
              static_cast<unsigned long long>(sc.seed),
              static_cast<unsigned long long>(out.total_violations),
              out.report.c_str());

  Scenario minimal = sc;
  RunOutcome final_out = out;
  if (!args.no_shrink) {
    presto::check::ShrinkOptions sopt;
    sopt.runner = std::move(runner);
    if (args.shrink_deadline_ms > 0) {
      sopt.deadline = std::chrono::milliseconds(args.shrink_deadline_ms);
    }
    if (args.verbose) {
      sopt.on_progress = [](const Scenario& s, std::uint32_t runs) {
        std::printf("  shrink (%u runs): %s\n", runs, s.to_string().c_str());
      };
    }
    const auto res = presto::check::shrink(sc, out.first_kind, sopt);
    minimal = res.minimal;
    final_out = res.outcome;
    std::printf("shrunk in %u runs%s: %zu flows, %zu rpcs, %zu fault units\n",
                res.runs, res.deadline_hit ? " (deadline hit)" : "",
                minimal.flows.size(), minimal.rpcs.size(),
                minimal.fault_units.size());
  }

  const std::string spec = minimal.to_string();
  const std::string cmd = "fuzz_sim --replay '" + spec + "' --check all";
  std::printf("minimal reproducer:\n  %s\nreplay with:\n  %s\n", spec.c_str(),
              cmd.c_str());
  std::printf("minimal run report:\n%s", final_out.report.c_str());
  if (!args.repro_out.empty()) {
    std::ofstream f(args.repro_out);
    f << spec << '\n' << cmd << '\n';
    if (!window_note.empty()) f << window_note << '\n';
    f << final_out.report;
    std::printf("repro written to %s\n", args.repro_out.c_str());
  }
  return 1;
}

/// Single-scheme soak of one scenario: per-epoch manifest, time-window
/// shrinking on violation, then item-wise shrinking with a soak runner.
int run_soak_one(const Scenario& sc, const CheckerOptions& copt,
                 const Args& args) {
  SoakOptions opt = soak_options(args, copt);

  SoakManifest man;
  man.scenario = sc.to_string();
  fill_manifest_params(&man, opt);
  const bool keep_manifest = !args.manifest.empty();
  if (keep_manifest || args.verbose) {
    opt.on_epoch = [&man, &args, keep_manifest](const EpochRecord& rec) {
      if (keep_manifest) {
        man.epochs.push_back(rec);
        if (man.first_bad_epoch == 0 && rec.violations > 0) {
          man.first_bad_epoch = rec.epoch;
          man.status = "violation";
        }
        std::string err;
        if (!man.save(args.manifest, &err)) {
          std::fprintf(stderr, "manifest save failed: %s\n", err.c_str());
        }
      }
      if (args.verbose) {
        std::printf("epoch %u: t=%lld us, executed=%llu, delivered=%llu, "
                    "violations=%llu%s\n",
                    rec.epoch,
                    static_cast<long long>(rec.sim_time /
                                           presto::sim::kMicrosecond),
                    static_cast<unsigned long long>(rec.executed),
                    static_cast<unsigned long long>(rec.delivered_bytes),
                    static_cast<unsigned long long>(rec.violations),
                    rec.audited ? " [audited]" : "");
        std::fflush(stdout);
      }
      return true;
    };
  }

  const SoakResult res = presto::check::run_soak(sc, opt);
  auto finalize_manifest = [&] {
    if (!keep_manifest) return;
    man.status = res.outcome.ok ? "clean" : "violation";
    man.first_bad_epoch = res.first_bad_epoch;
    man.report = res.outcome.report;
    std::string err;
    if (!man.save(args.manifest, &err)) {
      std::fprintf(stderr, "manifest save failed: %s\n", err.c_str());
    }
  };
  finalize_manifest();

  if (res.outcome.ok) {
    std::printf("soak clean: %zu epochs, %llu frames delivered, "
                "completed=%d\n",
                res.epochs.size(),
                static_cast<unsigned long long>(
                    res.outcome.frames_delivered),
                res.completed ? 1 : 0);
    return 0;
  }

  // Narrow the violation to the smallest epoch window before item-wise
  // shrinking: replay probes audit only at their final boundary.
  std::string window_note;
  std::function<RunOutcome(const Scenario&)> runner;
  const std::uint32_t detected =
      res.first_bad_epoch != 0
          ? res.first_bad_epoch
          : static_cast<std::uint32_t>(res.epochs.size());
  const auto window =
      presto::check::shrink_time(sc, opt, res.outcome.first_kind, detected);
  if (window.valid) {
    std::printf("time window: clean through epoch %u, violating by epoch %u "
                "(%u probes; %lld..%lld us)\n",
                window.clean_epoch, window.bad_epoch, window.probes,
                static_cast<long long>(window.window_start /
                                       presto::sim::kMicrosecond),
                static_cast<long long>(window.window_end /
                                       presto::sim::kMicrosecond));
    window_note = "time window: epochs (" +
                  std::to_string(window.clean_epoch) + ", " +
                  std::to_string(window.bad_epoch) + "]";
    // Item-wise shrinking replays candidates through the bad boundary with
    // the soak oracles armed, so soak-only violations (frame aging) stay
    // reproducible while the scenario shrinks.
    SoakOptions probe = opt;
    probe.max_epochs = window.bad_epoch;
    probe.audit_every = 0;
    probe.on_epoch = nullptr;
    runner = [probe](const Scenario& cand) {
      return presto::check::run_soak(cand, probe).outcome;
    };
  }
  return handle_violation(sc, res.outcome, args, std::move(runner),
                          window_note);
}

/// Differential lock-step soak across schemes.
int run_diff_one(const Scenario& sc, const CheckerOptions& copt,
                 const Args& args) {
  SoakOptions opt = soak_options(args, copt);
  DiffOptions dopt;
  if (args.diff_schemes == "all") {
    dopt.all_schemes = true;
  } else if (!args.diff_schemes.empty() &&
             !parse_schemes(args.diff_schemes, &dopt.schemes)) {
    std::fprintf(stderr, "bad --diff-schemes spec: %s\n",
                 args.diff_schemes.c_str());
    return 2;
  }

  const DiffResult res =
      presto::check::run_differential_soak(sc, opt, dopt);

  if (!args.manifest.empty()) {
    SoakManifest man;
    man.scenario = sc.to_string();
    fill_manifest_params(&man, opt);
    for (presto::harness::Scheme s : res.schemes_run) {
      man.schemes.push_back(presto::check::scheme_spec_name(s));
    }
    if (!res.per_scheme.empty()) man.epochs = res.per_scheme[0].epochs;
    man.status = res.ok ? "clean" : "violation";
    man.first_bad_epoch = res.divergence_epoch;
    man.disagreements = res.disagreements;
    man.report = res.report;
    for (const SoakResult& sr : res.per_scheme) {
      if (!sr.outcome.ok) man.report += sr.outcome.report;
    }
    std::string err;
    if (!man.save(args.manifest, &err)) {
      std::fprintf(stderr, "manifest save failed: %s\n", err.c_str());
    }
  }

  for (std::size_t i = 0; i < res.per_scheme.size(); ++i) {
    const SoakResult& sr = res.per_scheme[i];
    std::printf("scheme %-12s: %zu epochs, delivered=%llu, violations=%llu\n",
                presto::check::scheme_spec_name(res.schemes_run[i]),
                sr.epochs.size(),
                static_cast<unsigned long long>(
                    sr.epochs.empty() ? 0
                                      : sr.epochs.back().delivered_bytes),
                static_cast<unsigned long long>(
                    sr.outcome.total_violations));
  }
  if (res.ok) {
    std::printf("differential soak clean across %zu schemes\n",
                res.per_scheme.size());
    return 0;
  }
  if (res.divergence_epoch != 0) {
    std::printf("cross-scheme divergence first flagged at epoch %u\n",
                res.divergence_epoch);
  }
  std::printf("%s", res.report.c_str());
  std::printf("reproduce with:\n  fuzz_sim --replay '%s' --soak "
              "--diff-schemes %s\n",
              sc.to_string().c_str(),
              args.diff_schemes.empty() ? "presto,ecmp,flowlet"
                                        : args.diff_schemes.c_str());
  return 1;
}

/// Replays a manifest's scenario from scratch, validating every recorded
/// digest at its boundary, then continues to the cap.
int run_resume(const Args& args, const CheckerOptions& copt) {
  SoakManifest man;
  std::string err;
  if (!SoakManifest::load(args.resume, &man, &err)) {
    std::fprintf(stderr, "cannot load manifest: %s\n", err.c_str());
    return 2;
  }
  Scenario sc;
  if (!Scenario::parse(man.scenario, &sc, &err)) {
    std::fprintf(stderr, "manifest scenario does not parse: %s\n",
                 err.c_str());
    return 2;
  }
  arm_repro_line(sc, "resume interrupted");
  WatchdogScope wd(args.watchdog_s);

  SoakOptions opt = man.options();
  opt.checker = copt;
  if (args.epochs > 0) opt.max_epochs = args.epochs;
  if (args.verbose) {
    opt.on_epoch = [](const EpochRecord& rec) {
      std::printf("epoch %u: executed=%llu violations=%llu\n", rec.epoch,
                  static_cast<unsigned long long>(rec.executed),
                  static_cast<unsigned long long>(rec.violations));
      return true;
    };
  }
  const ResumeResult res = presto::check::resume_soak(man, opt);
  if (!res.digests_match) {
    std::fprintf(stderr,
                 "resume diverged from the manifest (stale build or edited "
                 "spec?):\n  %s\n",
                 res.mismatch.c_str());
    return 2;
  }
  std::printf("resume validated %zu recorded epochs (digests match), ran "
              "%zu total\n",
              man.epochs.size(), res.soak.epochs.size());
  if (!res.soak.outcome.ok) {
    std::printf("VIOLATION (first bad epoch %u):\n%s",
                res.soak.first_bad_epoch, res.soak.outcome.report.c_str());
    return 1;
  }
  std::printf("soak clean after resume: %llu frames delivered\n",
              static_cast<unsigned long long>(
                  res.soak.outcome.frames_delivered));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto next_u64 = [&](std::uint64_t* out) {
      const char* v = next();
      if (v == nullptr) return false;
      *out = std::strtoull(v, nullptr, 10);
      return true;
    };
    std::uint64_t u = 0;
    if (a == "--seed") {
      if (!next_u64(&args.seed_lo)) return usage(argv[0]);
      args.seed_hi = args.seed_lo + 1;
      args.have_range = true;
    } else if (a == "--seed-range") {
      const char* v = next();
      const char* colon = v != nullptr ? std::strchr(v, ':') : nullptr;
      if (colon == nullptr) return usage(argv[0]);
      args.seed_lo = std::strtoull(v, nullptr, 10);
      args.seed_hi = std::strtoull(colon + 1, nullptr, 10);
      args.have_range = true;
    } else if (a == "--replay") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      args.replay = v;
    } else if (a == "--check") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      args.check = v;
    } else if (a == "--bug") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      args.bug = v;
    } else if (a == "--repro-out") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      args.repro_out = v;
    } else if (a == "--no-shrink") {
      args.no_shrink = true;
    } else if (a == "--soak") {
      args.soak = true;
    } else if (a == "--epochs") {
      if (!next_u64(&u)) return usage(argv[0]);
      args.epochs = static_cast<std::uint32_t>(u);
    } else if (a == "--epoch-us") {
      if (!next_u64(&u)) return usage(argv[0]);
      args.epoch_us = static_cast<std::int64_t>(u);
    } else if (a == "--epoch-events") {
      if (!next_u64(&args.epoch_events)) return usage(argv[0]);
    } else if (a == "--audit-every") {
      if (!next_u64(&u)) return usage(argv[0]);
      args.audit_every = static_cast<std::uint32_t>(u);
    } else if (a == "--leak-age-us") {
      if (!next_u64(&u)) return usage(argv[0]);
      args.leak_age_us = static_cast<std::int64_t>(u);
    } else if (a == "--diff-schemes") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      args.diff_schemes = v;
      args.soak = true;
    } else if (a == "--manifest") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      args.manifest = v;
    } else if (a == "--resume") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      args.resume = v;
    } else if (a == "--watchdog") {
      if (!next_u64(&u)) return usage(argv[0]);
      args.watchdog_s = static_cast<unsigned>(u);
    } else if (a == "--shrink-deadline-ms") {
      if (!next_u64(&u)) return usage(argv[0]);
      args.shrink_deadline_ms = static_cast<std::int64_t>(u);
    } else if (a == "-v" || a == "--verbose") {
      args.verbose = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (args.replay.empty() && !args.have_range && args.resume.empty()) {
    return usage(argv[0]);
  }

  CheckerOptions copt;
  if (!parse_check(args.check, &copt)) {
    std::fprintf(stderr, "bad --check spec: %s\n", args.check.c_str());
    return 2;
  }

  install_signal_handlers();

  try {
    if (!args.resume.empty()) return run_resume(args, copt);

    auto run_one = [&](const Scenario& sc) {
      arm_repro_line(sc, args.watchdog_s > 0
                             ? "watchdog or signal fired"
                             : "interrupted");
      WatchdogScope wd(args.watchdog_s);
      if (args.soak && !args.diff_schemes.empty()) {
        return run_diff_one(sc, copt, args);
      }
      if (args.soak) return run_soak_one(sc, copt, args);
      const RunOutcome out = presto::check::run_scenario(sc, copt);
      if (!out.ok) return handle_violation(sc, out, args);
      if (args.verbose || !args.replay.empty()) {
        std::printf("%s clean: %llu frames delivered, drained=%d\n",
                    args.replay.empty() ? "run" : "replay",
                    static_cast<unsigned long long>(out.frames_delivered),
                    out.drained ? 1 : 0);
      }
      return 0;
    };

    if (!args.replay.empty()) {
      Scenario sc;
      std::string err;
      if (!Scenario::parse(args.replay, &sc, &err)) {
        std::fprintf(stderr, "bad --replay spec: %s\n", err.c_str());
        return 2;
      }
      if (!args.bug.empty()) sc.bug = args.bug;
      return run_one(sc);
    }

    std::uint64_t clean = 0;
    for (std::uint64_t seed = args.seed_lo; seed < args.seed_hi; ++seed) {
      Scenario sc = Scenario::generate(seed);
      if (!args.bug.empty()) sc.bug = args.bug;
      const int rc = run_one(sc);
      if (rc != 0) return rc;
      ++clean;
      if (!args.verbose && clean % 50 == 0) {
        std::printf("... %llu scenarios clean\n",
                    static_cast<unsigned long long>(clean));
        std::fflush(stdout);
      }
    }
    std::printf("%llu scenarios, 0 violations\n",
                static_cast<unsigned long long>(clean));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
