// Telemetry tests: registry/snapshot semantics, JSON emission, and the
// determinism guarantee — same seed + config => byte-identical flight
// recorder trace and metrics.
#include <gtest/gtest.h>

#include "harness/runners.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/probes.h"

namespace presto::telemetry {
namespace {

TEST(Registry, InstrumentsAreStableAcrossLookups) {
  Registry r;
  Counter& c = r.counter("x");
  c.inc(3);
  EXPECT_EQ(r.counter("x").value(), 3u);
  r.gauge("g").set(1.5);
  EXPECT_EQ(r.gauge("g").value(), 1.5);
}

TEST(Histogram, BucketOfEdges) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(-4), 0u);
  EXPECT_EQ(Histogram::bucket_of(std::nan("")), 0u);
  EXPECT_EQ(Histogram::bucket_of(0.5), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(1e300), Histogram::kBuckets - 1);
}

TEST(Histogram, TracksCountSumMinMaxMean) {
  Histogram h;
  h.add(2);
  h.add(10);
  h.add(6);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 18);
  EXPECT_EQ(h.min(), 2);
  EXPECT_EQ(h.max(), 10);
  EXPECT_EQ(h.mean(), 6);
}

TEST(Snapshot, MergeSumsCountersAndKeepsMaxGauge) {
  Snapshot a, b;
  a.counters["c"] = 2;
  b.counters["c"] = 3;
  b.counters["only_b"] = 7;
  a.gauges["g"] = 1.0;
  b.gauges["g"] = 4.0;
  a.merge(b);
  EXPECT_EQ(a.counters["c"], 5u);
  EXPECT_EQ(a.counters["only_b"], 7u);
  EXPECT_EQ(a.gauges["g"], 4.0);
}

TEST(Snapshot, HistogramMergeCombinesBuckets) {
  HistogramSnapshot a, b;
  a.count = 2;
  a.sum = 6;
  a.min = 1;
  a.max = 5;
  a.buckets = {0, 1, 0, 1};
  b.count = 1;
  b.sum = 9;
  b.min = 9;
  b.max = 9;
  b.buckets = {0, 0, 0, 0, 1};
  a.merge(b);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.sum, 15);
  EXPECT_EQ(a.min, 1);
  EXPECT_EQ(a.max, 9);
  ASSERT_EQ(a.buckets.size(), 5u);
  EXPECT_EQ(a.buckets[1], 1u);
  EXPECT_EQ(a.buckets[4], 1u);
}

TEST(Session, EagerlyRegistersFullKeySet) {
  TelemetryConfig cfg;
  cfg.metrics = true;
  Session s(cfg);
  const Snapshot snap = s.snapshot();
  // One representative per layer: net, offload, core, tcp, controller.
  EXPECT_TRUE(snap.counters.count("net.port.enqueued_packets"));
  EXPECT_TRUE(snap.counters.count("offload.gro.merges"));
  EXPECT_TRUE(snap.counters.count("core.flowcell.cells"));
  EXPECT_TRUE(snap.counters.count("tcp.retx.fast"));
  EXPECT_TRUE(snap.counters.count("controller.schedules_set"));
}

TEST(JsonWriter, EmitsWellFormedDocument) {
  JsonWriter w;
  w.begin_object();
  w.key("name");
  w.value("a\"b\n");
  w.key("n");
  w.value(std::uint64_t{42});
  w.key("list");
  w.begin_array();
  w.value(1.5);
  w.value(true);
  w.end_array();
  w.end_object();
  const std::string doc = std::move(w).str();
  EXPECT_NE(doc.find("\"a\\\"b\\n\""), std::string::npos);
  EXPECT_NE(doc.find("\"n\": 42"), std::string::npos);
  EXPECT_NE(doc.find("1.5"), std::string::npos);
  EXPECT_EQ(doc.front(), '{');
  EXPECT_EQ(doc.back(), '}');
}

// Same seed + config => the whole stack replays identically, so the
// Perfetto export (sampled series plus flowcell spans) and the metrics
// snapshot are byte-identical run to run.
class TraceDeterminismTest
    : public ::testing::TestWithParam<harness::Scheme> {};

std::pair<std::string, Snapshot> traced_run(harness::Scheme scheme) {
  harness::ExperimentConfig cfg;
  cfg.scheme = scheme;
  cfg.spines = 2;
  cfg.leaves = 2;
  cfg.hosts_per_leaf = 2;
  cfg.seed = 1234;
  cfg.telemetry.metrics = true;
  cfg.telemetry.timeseries = true;
  cfg.telemetry.span_sample_every = 4;
  harness::Experiment ex(cfg);
  std::vector<workload::ElephantApp*> els;
  for (const auto& [s, d] : workload::stride_pairs(4, 2)) {
    els.push_back(&ex.add_elephant(s, d, 0));
  }
  ex.sim().run_until(60 * sim::kMillisecond);
  std::uint64_t delivered = 0;
  for (auto* e : els) delivered += e->delivered();
  EXPECT_GT(delivered, 0u);
  return {ex.export_trace_json(), ex.telemetry_snapshot()};
}

TEST_P(TraceDeterminismTest, SameSeedSameTrace) {
  const auto [trace1, snap1] = traced_run(GetParam());
  const auto [trace2, snap2] = traced_run(GetParam());
  EXPECT_NE(trace1.find("\"ph\": \"C\""), std::string::npos)
      << "the trace carries sampled series";
  EXPECT_EQ(trace1, trace2);
  EXPECT_EQ(snap1.counters, snap2.counters);
  EXPECT_EQ(snap1.gauges, snap2.gauges);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, TraceDeterminismTest,
    ::testing::Values(harness::Scheme::kEcmp, harness::Scheme::kMptcp,
                      harness::Scheme::kPresto, harness::Scheme::kOptimal,
                      harness::Scheme::kFlowlet, harness::Scheme::kPrestoEcmp,
                      harness::Scheme::kPerPacket),
    [](const auto& info) {
      std::string n = harness::scheme_name(info.param);
      n.erase(std::remove_if(n.begin(), n.end(),
                             [](char c) { return !isalnum(c); }),
              n.end());
      return n;
    });

// TCP counts only in TcpSenderStats: each tcp.* counter of a snapshot is
// the sum over every host's senders (MPTCP subflows included), current on
// every call.
TEST(Telemetry, TcpCountersAreTheSumOfSenderStats) {
  for (harness::Scheme scheme :
       {harness::Scheme::kPresto, harness::Scheme::kMptcp}) {
    SCOPED_TRACE(harness::scheme_name(scheme));
    harness::ExperimentConfig cfg;
    cfg.scheme = scheme;
    cfg.spines = 2;
    cfg.leaves = 2;
    cfg.hosts_per_leaf = 2;
    cfg.seed = 7;
    cfg.fault_plan = "degrade@1ms leaf=0 spine=0 loss_bad=0.3";
    cfg.telemetry.metrics = true;
    harness::Experiment ex(cfg);
    for (const auto& [s, d] : workload::stride_pairs(4, 2)) {
      ex.add_elephant(s, d, 0);
    }
    tcp::TcpSenderStats sum;
    for (sim::Time until : {30 * sim::kMillisecond, 60 * sim::kMillisecond}) {
      ex.sim().run_until(until);
      const Snapshot snap = ex.telemetry_snapshot();
      sum = {};
      for (net::HostId h = 0; h < ex.topo().host_count(); ++h) {
        ex.host(h).for_each_sender([&sum](const tcp::TcpSender& snd) {
          sum.fast_retransmits += snd.stats().fast_retransmits;
          sum.timeouts += snd.stats().timeouts;
          sum.retransmitted_bytes += snd.stats().retransmitted_bytes;
          sum.dup_acks += snd.stats().dup_acks;
          sum.spurious_recoveries += snd.stats().spurious_recoveries;
        });
      }
      EXPECT_EQ(snap.counters.at("tcp.retx.fast"), sum.fast_retransmits);
      EXPECT_EQ(snap.counters.at("tcp.retx.timeout"), sum.timeouts);
      EXPECT_EQ(snap.counters.at("tcp.retx.bytes"), sum.retransmitted_bytes);
      EXPECT_EQ(snap.counters.at("tcp.dup_acks"), sum.dup_acks);
      EXPECT_EQ(snap.counters.at("tcp.spurious_recoveries"),
                sum.spurious_recoveries);
    }
    // The gray link makes the comparison non-trivial.
    EXPECT_GT(sum.fast_retransmits, 0u);
    EXPECT_GT(sum.retransmitted_bytes, 0u);
  }
}

TEST(Telemetry, DisabledExperimentReturnsEmptySnapshot) {
  harness::ExperimentConfig cfg;
  cfg.scheme = harness::Scheme::kPresto;
  cfg.spines = 2;
  cfg.leaves = 2;
  cfg.hosts_per_leaf = 2;
  harness::Experiment ex(cfg);
  ex.add_elephant(0, 2, 0);
  ex.sim().run_until(20 * sim::kMillisecond);
  EXPECT_TRUE(ex.telemetry_snapshot().empty());
  EXPECT_EQ(ex.telemetry(), nullptr);
}

}  // namespace
}  // namespace presto::telemetry
