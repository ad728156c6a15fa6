#include "obs/eval_stats.h"

#include <gtest/gtest.h>

namespace sqo::obs {
namespace {

EvalStats MakeStats(uint64_t base) {
  EvalStats s;
  s.objects_fetched = base + 1;
  s.extent_scans = base + 2;
  s.index_probes = base + 3;
  s.relationship_traversals = base + 4;
  s.method_invocations = base + 5;
  s.comparisons = base + 6;
  s.negation_checks = base + 7;
  s.tuples_emitted = base + 8;
  s.results = base + 9;
  return s;
}

TEST(EvalStatsTest, DefaultsToZero) {
  EvalStats s;
  EXPECT_EQ(s.objects_fetched, 0u);
  EXPECT_EQ(s.extent_scans, 0u);
  EXPECT_EQ(s.index_probes, 0u);
  EXPECT_EQ(s.relationship_traversals, 0u);
  EXPECT_EQ(s.method_invocations, 0u);
  EXPECT_EQ(s.comparisons, 0u);
  EXPECT_EQ(s.negation_checks, 0u);
  EXPECT_EQ(s.tuples_emitted, 0u);
  EXPECT_EQ(s.results, 0u);
}

TEST(EvalStatsTest, PlusEqualsAccumulatesEveryField) {
  EvalStats a = MakeStats(10);
  const EvalStats b = MakeStats(100);
  EvalStats& ref = (a += b);
  EXPECT_EQ(&ref, &a);
  EXPECT_EQ(a.objects_fetched, 112u);
  EXPECT_EQ(a.extent_scans, 114u);
  EXPECT_EQ(a.index_probes, 116u);
  EXPECT_EQ(a.relationship_traversals, 118u);
  EXPECT_EQ(a.method_invocations, 120u);
  EXPECT_EQ(a.comparisons, 122u);
  EXPECT_EQ(a.negation_checks, 124u);
  EXPECT_EQ(a.tuples_emitted, 126u);
  EXPECT_EQ(a.results, 128u);
}

TEST(EvalStatsTest, ResetZeroesEveryField) {
  EvalStats s = MakeStats(50);
  s.Reset();
  EXPECT_EQ(s.objects_fetched, 0u);
  EXPECT_EQ(s.results, 0u);
  EXPECT_EQ(s.ToString(), EvalStats().ToString());
}

TEST(EvalStatsTest, ToStringNamesEveryCounter) {
  const std::string text = MakeStats(0).ToString();
  EXPECT_EQ(text,
            "fetched=1 scans=2 probes=3 traversals=4 methods=5 "
            "comparisons=6 negchecks=7 emitted=8 results=9");
}

}  // namespace
}  // namespace sqo::obs
