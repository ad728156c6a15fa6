// Differential suite for the evaluator: over a corpus covering every
// operator and access path (eval_corpus.h), on several generator seeds and
// option settings, the executor's rows must equal the naive reference
// evaluator's (reference_eval.h) as sorted bags. Plus pinned EvalStats for
// two plans, and concurrent reads racing the first probe of an adaptive
// index (the TSan target: `ctest -L perf` is the tsan preset's suite).
// The suites keep the `BatchEval` names they had when a second,
// set-at-a-time engine existed, so their test histories continue.

#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datalog/parser.h"
#include "engine/database.h"
#include "engine/evaluator.h"
#include "eval_corpus.h"
#include "obs/metrics.h"
#include "reference_eval.h"
#include "workload/university.h"

namespace sqo::engine {
namespace {

using Rows = std::vector<std::vector<sqo::Value>>;

struct World {
  std::unique_ptr<core::Pipeline> pipeline;
  std::unique_ptr<Database> db;
};

World MakeWorld(uint64_t seed, bool small = true) {
  World world;
  auto pipeline = workload::MakeUniversityPipeline();
  EXPECT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  world.pipeline = std::make_unique<core::Pipeline>(std::move(pipeline).value());
  world.db = std::make_unique<Database>(&world.pipeline->schema());
  workload::GeneratorConfig config;
  config.seed = seed;
  if (small) {
    config.n_plain_persons = 10;
    config.n_students = 30;
    config.n_faculty = 5;
    config.n_courses = 4;
    config.sections_per_course = 2;
    config.takes_per_student = 3;
  }
  sqo::Status populated =
      workload::PopulateUniversity(config, *world.pipeline, world.db.get());
  EXPECT_TRUE(populated.ok()) << populated.ToString();
  return world;
}

datalog::Query Parse(const World& world, const std::string& text) {
  auto q = datalog::ParseQueryText(text, &world.pipeline->schema().catalog);
  EXPECT_TRUE(q.ok()) << text << ": " << q.status().ToString();
  return *q;
}

/// Runs `text` under `options` and asserts the executor's rows equal the
/// reference evaluator's as sorted bags (or that both fail alike).
void ExpectMatchesOracle(const World& world, const std::string& text,
                         EvalOptions options = {}) {
  const datalog::Query query = Parse(world, text);
  auto rows = world.db->Run(query, nullptr, options);
  auto expected = ReferenceEvaluate(world.db->store(), query, options.distinct);
  ASSERT_EQ(rows.ok(), expected.ok())
      << text << ": executor="
      << (rows.ok() ? "ok" : rows.status().ToString()) << " reference="
      << (expected.ok() ? "ok" : expected.status().ToString());
  if (!rows.ok()) {
    EXPECT_EQ(rows.status().code(), expected.status().code()) << text;
    return;
  }
  EXPECT_EQ(SortedBag(*rows), SortedBag(*expected)) << text;
}

TEST(BatchEvalDifferential, IdenticalResultsAcrossSeeds) {
  for (uint64_t seed : {42u, 7u, 1234u}) {
    World world = MakeWorld(seed);
    for (const char* text : kEvalCorpus) {
      ExpectMatchesOracle(world, text);
    }
  }
}

TEST(BatchEvalDifferential, DistinctOff) {
  World world = MakeWorld(42);
  EvalOptions options;
  options.distinct = false;
  for (const char* text : kEvalCorpus) {
    ExpectMatchesOracle(world, text, options);
  }
}

TEST(BatchEvalDifferential, MaxTuplesEdgeCases) {
  // The limit counts bindings before DISTINCT, so evaluation overflows
  // exactly when the reference bag is larger than the limit — even when
  // the distinct result would fit (ages repeat across persons).
  World world = MakeWorld(42);
  for (const char* text : {"q(X, Y) :- student(oid: X), takes(X, Y).",
                           "q(A) :- person(oid: X, age: A)."}) {
    const datalog::Query query = Parse(world, text);
    auto bag = ReferenceEvaluate(world.db->store(), query, /*distinct=*/false);
    auto set = ReferenceEvaluate(world.db->store(), query);
    ASSERT_TRUE(bag.ok() && set.ok()) << text;
    ASSERT_GT(bag->size(), 2u) << text;
    for (uint64_t limit : {uint64_t{1}, uint64_t{2}, uint64_t{set->size()},
                           uint64_t{bag->size() - 1}, uint64_t{bag->size()},
                           uint64_t{bag->size() + 1}}) {
      EvalOptions options;
      options.max_tuples = limit;
      auto rows = world.db->Run(query, nullptr, options);
      EXPECT_EQ(rows.ok(), bag->size() <= limit) << text << " limit=" << limit;
      if (!rows.ok()) {
        EXPECT_EQ(rows.status().code(), sqo::StatusCode::kResourceExhausted);
      } else {
        EXPECT_EQ(SortedBag(*rows), SortedBag(*set)) << text;
      }
    }
  }
}

TEST(BatchEvalDifferential, UnsafeQueriesFailAlike) {
  World world = MakeWorld(42);
  // Comparison over a variable no positive atom binds.
  const char* text = "q(X) :- student(oid: X), Z > 5.";
  ExpectMatchesOracle(world, text);
  EXPECT_EQ(world.db->Run(Parse(world, text)).status().code(),
            sqo::StatusCode::kInvalidArgument);
}

TEST(BatchEvalDifferential, RepeatedNegatedVariableConstrainsTheAtom) {
  // `not faculty(oid: X, age: A, salary: A)` excludes only members whose
  // age equals their salary — none — so every faculty member qualifies,
  // whether the literal runs as a scan guard's fallback anti-join or as a
  // plain anti-join.
  World world = MakeWorld(1, /*small=*/false);
  const size_t faculty = world.db->store().Extent("faculty").size();
  ASSERT_EQ(faculty, 20u);
  ASSERT_TRUE(
      world.db->Run(Parse(world, "q(X) :- faculty(oid: X, age: A, salary: A)."))
          ->empty());
  for (const char* text :
       {"q(X) :- faculty(oid: X), not faculty(oid: X, age: A, salary: A).",
        "q(X, N) :- faculty(oid: X, name: N), "
        "not faculty(oid: X, name: N, age: A, salary: A)."}) {
    auto rows = world.db->Run(Parse(world, text));
    ASSERT_TRUE(rows.ok()) << text << ": " << rows.status().ToString();
    EXPECT_EQ(rows->size(), faculty) << text;
    ExpectMatchesOracle(world, text);
  }
}

TEST(BatchEvalDifferential, StatsAgreeOnIndexedSelection) {
  // The point lookup's plan starts with its pushed-down filter; the key
  // probe then runs once: one index probe, one fetch, no scan.
  World world = MakeWorld(42);
  const datalog::Query query =
      Parse(world, "q(X) :- student(oid: X, name: N), N = \"john\".");
  const Plan plan = PlanQuery(query, world.db->store());
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(plan.steps[0].kind, StepKind::kFilter)
      << plan.ToString(query, world.pipeline->schema().catalog);
  obs::EvalStats stats;
  auto rows = world.db->Run(query, &stats);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 1u);
  EXPECT_EQ(stats.index_probes, 1u);
  EXPECT_EQ(stats.extent_scans, 0u);
  EXPECT_EQ(stats.objects_fetched, 1u);
  EXPECT_EQ(stats.results, 1u);
}

TEST(BatchEvalDifferential, StatsOfAnAdaptiveIndexJoin) {
  // Age join: the first relation access scans once; the second step has
  // a bound attribute and no declared index, so every binding probes the
  // adaptive index its first probe built. Each probe fetches only its
  // bucket, and every bucket candidate matches on the one compared
  // attribute.
  World world = MakeWorld(42);
  const std::string text =
      "q(X, Y) :- student(oid: X, age: A), ta(oid: Y, age: A).";
  const datalog::Query query = Parse(world, text);
  auto run = world.db->ProfileQuery(query);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->profile.nodes.size(), 3u);  // two steps + emit
  EXPECT_EQ(run->profile.nodes[0].op, "extent-scan");
  EXPECT_EQ(run->profile.nodes[1].op, "index-probe");
  EXPECT_TRUE(run->profile.nodes[1].index_used);
  const uint64_t outer =
      world.db->store().Extent(run->profile.nodes[0].relation).size();
  EXPECT_EQ(run->profile.nodes[1].rows_in, outer);
  EXPECT_EQ(run->stats.extent_scans, 1u);
  EXPECT_EQ(run->stats.index_probes, outer);
  EXPECT_EQ(run->stats.objects_fetched, outer + run->stats.tuples_emitted);
  EXPECT_EQ(run->stats.comparisons, run->stats.tuples_emitted);
  EXPECT_GT(run->stats.results, 0u);
  ExpectMatchesOracle(world, text);
}

TEST(BatchEvalConcurrency, ParallelReadsOverLazyIndexes) {
  // Concurrent evaluations sharing one store race the first probe of the
  // adaptive indexes neither query has built yet: one thread builds each
  // index, the others wait for it or probe the published table without a
  // lock. Run under TSan via the perf-label preset.
  World world = MakeWorld(42);
  const datalog::Query query =
      Parse(world, "q(X) :- student(oid: X, age: A), A = 21.");
  const datalog::Query join = Parse(
      world, "q(X, Y) :- student(oid: X, age: A), ta(oid: Y, age: A).");
  auto expected = ReferenceEvaluate(world.db->store(), query);
  auto expected_join = ReferenceEvaluate(world.db->store(), join);
  ASSERT_TRUE(expected.ok() && expected_join.ok());
  ASSERT_TRUE(world.db->store().DumpSecondaryIndexes().empty());
  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  std::vector<obs::MetricsRegistry> metrics(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      obs::ScopedMetrics install(&metrics[t]);
      start.arrive_and_wait();
      for (int i = 0; i < 20; ++i) {
        auto rows = world.db->Run(query);
        if (!rows.ok() || SortedBag(*rows) != SortedBag(*expected)) {
          ++failures[t];
        }
        auto joined = world.db->Run(join);
        if (!joined.ok() || SortedBag(*joined) != SortedBag(*expected_join)) {
          ++failures[t];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  uint64_t builds = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
    builds += metrics[t].CounterValue("index.lazy_builds");
  }
  // Each index the queries probe was built exactly once.
  EXPECT_EQ(builds, world.db->store().DumpSecondaryIndexes().size());
  EXPECT_GT(builds, 0u);
}

}  // namespace
}  // namespace sqo::engine
