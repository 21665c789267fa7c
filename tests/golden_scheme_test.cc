// Golden determinism digests for the rival schemes (ISSUE 9): each new
// registry scheme gets a pinned 64-bit digest over a miniature Table-1
// trace-driven run and a miniature Figure-16 mice-FCT run. Every run is
// executed twice in-process to prove rerun stability before comparing to
// the pin, so a digest mismatch is unambiguously a behavior change (event
// order, RNG draw order, policy state), never flakiness.
#include <gtest/gtest.h>

#include "golden_util.h"

namespace presto::testing {
namespace {

struct GoldenPin {
  harness::Scheme scheme;
  std::uint64_t table1_events;
  std::uint64_t table1_digest;
  std::uint64_t fig16_events;
  std::uint64_t fig16_digest;
};

// Captured on the run that introduced the schemes; byte-identical forever.
// The flowlet row was captured while the fixed-gap policy was a class of its
// own; it pins that FlowletLb with min_gap == max_gap behaves the same.
constexpr GoldenPin kPins[] = {
    {harness::Scheme::kFlowlet, 79073u, 0x0eb4d547466e3282ULL, 2276907u,
     0x29ad7b02b461cf43ULL},
    {harness::Scheme::kFlowDyn, 79066u, 0x3f0f1009e58e38d6ULL, 2049872u,
     0x8ef359cbeb83f26cULL},
    {harness::Scheme::kDiffFlow, 80547u, 0x615c325c59fa0015ULL, 4109208u,
     0x3af3d2771483a9d2ULL},
    {harness::Scheme::kSprinklers, 79075u, 0x6147f3c6b0b0f2efULL, 2656608u,
     0xf1ffccf40ce99865ULL},
};

TEST(GoldenScheme, Table1TraceRunsAreRerunStableAndPinned) {
  for (const GoldenPin& pin : kPins) {
    const harness::RunResult a = golden_table1_run(pin.scheme);
    const harness::RunResult b = golden_table1_run(pin.scheme);
    ASSERT_EQ(canonical(a), canonical(b))
        << harness::scheme_name(pin.scheme) << " is not rerun-stable";
    EXPECT_EQ(a.executed_events, pin.table1_events)
        << harness::scheme_name(pin.scheme);
    EXPECT_EQ(digest(a), pin.table1_digest)
        << harness::scheme_name(pin.scheme) << " canonical:\n" << canonical(a);
  }
}

TEST(GoldenScheme, Fig16MiceRunsAreRerunStableAndPinned) {
  for (const GoldenPin& pin : kPins) {
    const harness::RunResult a = golden_fig16_run(pin.scheme);
    const harness::RunResult b = golden_fig16_run(pin.scheme);
    ASSERT_EQ(canonical(a), canonical(b))
        << harness::scheme_name(pin.scheme) << " is not rerun-stable";
    EXPECT_EQ(a.executed_events, pin.fig16_events)
        << harness::scheme_name(pin.scheme);
    EXPECT_EQ(digest(a), pin.fig16_digest)
        << harness::scheme_name(pin.scheme) << " canonical:\n" << canonical(a);
  }
}

}  // namespace
}  // namespace presto::testing
