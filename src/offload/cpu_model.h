// Receiver CPU cost model.
//
// The paper's receive-side story (§2.2) is that per-*segment* stack
// traversal cost dominates once CPUs prefetch well, so GRO's job is to keep
// pushed segments large. We model the receive path as a single-server FIFO:
// each poll batch costs
//     per_packet * packets  (+ presto_extra * packets when Presto GRO runs)
//   + per_segment * pushed_segments
//   + per_byte * pushed_bytes
// and segments are only delivered to TCP after the CPU has "executed" that
// work. A saturated CPU therefore delays ACKs and bounds achievable
// throughput, reproducing the 100%-CPU / ~5.5 Gbps behaviour with offloads
// disabled and the small-segment-flooding collapse (§2.2, §5).
//
// Defaults are calibrated so that, at 10 GbE line rate:
//   * official GRO without reordering  ->  ~64% utilization @ 9.3 Gbps,
//   * Presto GRO                        ->  ~+6% over official (Figure 6),
//   * all-MTU segments saturate one core near ~4.6-5.5 Gbps (Figure 5b).
#pragma once

#include <cstdint>

#include "sim/event_fn.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace presto::offload {

/// Cycle-cost constants, expressed as nanoseconds on the receive core.
struct CpuCosts {
  sim::Time per_packet = 120;      ///< Driver poll + GRO merge attempt.
  sim::Time per_segment = 1394;    ///< Stack traversal per pushed segment.
  double per_byte_ns = 0.45;       ///< Copy/checksum per payload byte.
  sim::Time presto_extra_per_packet = 40;  ///< Presto GRO bookkeeping.
  /// Extra TCP-layer work for a segment arriving out of order: ooo-queue
  /// insertion, SACK block generation, rbtree maintenance. This is why the
  /// paper measures official GRO at *higher* CPU despite half the
  /// throughput under reordering (§5, Figure 5).
  sim::Time per_ooo_segment = 1500;
};

/// Single-core FIFO executor with utilization accounting.
class CpuModel {
 public:
  explicit CpuModel(sim::Simulation& sim) : sim_(sim) {}

  /// Enqueues `cost_ns` of work; runs `done` when it completes (FIFO).
  void submit(sim::Time cost_ns, sim::EventFn done) {
    const sim::Time start = std::max(sim_.now(), free_at_);
    free_at_ = start + cost_ns;
    busy_ns_ += cost_ns;
    sim_.schedule_at(free_at_, std::move(done));
  }

  /// Pending work in the queue, as time-to-drain from now.
  sim::Time backlog() const {
    return free_at_ > sim_.now() ? free_at_ - sim_.now() : 0;
  }

  /// Total busy nanoseconds accumulated since construction.
  sim::Time busy_ns() const { return busy_ns_; }

 private:
  sim::Simulation& sim_;
  sim::Time free_at_ = 0;
  sim::Time busy_ns_ = 0;
};

}  // namespace presto::offload
