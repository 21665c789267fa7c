// Load-balancing scheme registry (ISSUE 9 tentpole).
//
// One table maps every scheme to its stable spec name (the token used by
// scenario specs, bench CLIs, and CI matrices), display name, receiver-side
// offload expectation, capability flags, and a factory building the sender
// vSwitch policy. ExperimentConfig, the benches, fuzz_sim, and the soak
// runners all select schemes through this table, so adding a scheme is one
// registry row + one policy class.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "lb/sender_lb.h"
#include "net/packet.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace presto::core {
class LabelMap;
}

namespace presto::lb {

/// Load-balancing scheme under test (§4 "Performance Evaluation" plus the
/// rival schemes from PAPERS.md). The enum stays the primary programmatic
/// key; the registry is the single source of truth for names and behavior.
enum class Scheme {
  kEcmp,        ///< Per-flow random end-to-end path.
  kMptcp,       ///< 8 coupled subflows over ECMP paths.
  kPresto,      ///< Flowcells + shadow-MAC round robin + Presto GRO.
  kOptimal,     ///< Single non-blocking switch.
  kFlowlet,     ///< Flowlet switching (fixed gap) + stock GRO.
  kPrestoEcmp,  ///< Flowcells hashed per hop (Figure 14 variant).
  kPerPacket,   ///< Per-packet spraying (granularity ablation).
  kFlowDyn,     ///< Flowlet switching with an RTT-tracking dynamic gap.
  kDiffFlow,    ///< Mice on ECMP, elephants sprayed as flowcells.
  kSprinklers,  ///< Randomized variable-size striping, reordering-free.
};

/// Receiver-side offload a scheme expects. The harness maps this onto
/// host::GroKind (kept abstract here so lb does not depend on host).
enum class RxOffload {
  kOfficialGro,  ///< Stock kernel GRO.
  kPrestoGro,    ///< Flowcell-aware Presto GRO (§3.2).
};

/// The scheme knobs experiments vary; ExperimentConfig embeds one as `lb`.
/// Every other policy parameter lives only in its policy's own Config
/// defaults (FlowletLb, DiffFlowLb, SprinklersLb, core::FlowcellConfig).
struct LbTuning {
  /// Flowlet inactivity timer; FlowDyn's gap until the first RTT sample.
  sim::Time flowlet_gap = 500 * sim::kMicrosecond;
  /// Flowcell size (Presto, DiffFlow) and Sprinklers' stripe unit; the
  /// paper uses 64 KB.
  std::uint32_t flowcell_bytes = net::kMaxTsoBytes;
  /// Ablation: random instead of round-robin label selection per flowcell.
  bool flowcell_random_selection = false;
  /// Edge graceful degradation: Presto senders track per-label loss/timeout
  /// suspicion and steer flowcells off suspect labels (beyond-paper; only
  /// meaningful for kPresto).
  bool edge_suspicion = false;
};

/// Everything a scheme factory may need to build one host's sender policy.
struct LbContext {
  sim::Simulation* sim = nullptr;
  const core::LabelMap* labels = nullptr;
  std::uint64_t seed = 1;  ///< Per-host derived seed.
  LbTuning tuning;
};

struct SchemeInfo {
  Scheme id = Scheme::kEcmp;
  /// Stable machine token ("ecmp", "presto", ...): scenario specs, CLI
  /// flags, manifest JSON, CI matrix entries.
  const char* spec_name = "";
  /// Human-facing name ("ECMP", "Presto+ECMP", ...): bench tables/JSON.
  const char* display = "";
  RxOffload rx = RxOffload::kOfficialGro;
  /// Channels must be MPTCP byte channels (8 coupled subflows).
  bool uses_mptcp_channel = false;
  /// Runs on the single non-blocking switch instead of a fabric (Optimal).
  bool single_switch = false;
  /// Fault-free in-order delivery guarantee: every data frame of a flow
  /// arrives at the destination NIC in nondecreasing sequence order
  /// (checked by the kOrdering oracle).
  bool reordering_free = false;
  /// Eligible for lock-step differential soaks (comparable delivered-bytes
  /// trajectories on the same scenario).
  bool differential_ok = false;
  /// Builds the per-host sender policy; null for single-switch schemes
  /// (plain real-MAC forwarding needs no policy).
  std::function<std::unique_ptr<SenderLb>(const LbContext&)> factory;
};

class SchemeRegistry {
 public:
  static const SchemeRegistry& instance();

  /// Registry row for a scheme (the enum indexes the table directly).
  const SchemeInfo& info(Scheme s) const;
  /// Row by spec name, or null for an unknown token.
  const SchemeInfo* find(std::string_view spec_name) const;
  /// All rows in registration (= enum) order.
  const std::vector<SchemeInfo>& all() const { return infos_; }
  /// Schemes eligible for lock-step differential soaks (rows with
  /// `differential_ok`).
  std::vector<Scheme> differential_schemes() const;

 private:
  SchemeRegistry();
  std::vector<SchemeInfo> infos_;
};

/// Display name ("Presto") — the historical harness::scheme_name.
const char* scheme_display_name(Scheme s);
/// Stable spec token ("presto") — the historical scheme_spec_name.
const char* scheme_spec_id(Scheme s);
/// Parses a spec token; returns false and leaves `*out` untouched on an
/// unknown name.
bool parse_scheme_id(std::string_view name, Scheme* out);

/// Builds the sender policy for `scheme` (null for single-switch schemes).
std::unique_ptr<SenderLb> make_scheme_lb(Scheme scheme, const LbContext& ctx);

}  // namespace presto::lb
