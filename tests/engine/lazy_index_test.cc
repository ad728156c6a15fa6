#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "datalog/parser.h"
#include "engine/database.h"
#include "engine/evaluator.h"
#include "obs/metrics.h"
#include "reference_eval.h"
#include "workload/university.h"

namespace sqo::engine {
namespace {

using sqo::Value;

class LazyIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto pipeline = workload::MakeUniversityPipeline();
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    pipeline_ = std::make_unique<core::Pipeline>(std::move(pipeline).value());
    db_ = std::make_unique<Database>(&pipeline_->schema());

    workload::GeneratorConfig config;
    config.n_plain_persons = 20;
    config.n_students = 60;
    config.n_faculty = 8;
    config.n_courses = 5;
    config.sections_per_course = 3;
    ASSERT_TRUE(workload::PopulateUniversity(config, *pipeline_, db_.get()).ok());
  }

  datalog::Query ParseQ(const std::string& text) {
    auto q = datalog::ParseQueryText(text, &pipeline_->schema().catalog);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *q;
  }

  size_t AgePos() const {
    const datalog::RelationSignature* sig =
        pipeline_->schema().catalog.Find("person");
    return *sig->AttributeIndex("age");
  }

  /// Evaluates `query` and asserts its rows equal the reference
  /// evaluator's, which reads no index.
  void ExpectMatchesReference(const datalog::Query& query,
                              obs::EvalStats* stats = nullptr) {
    auto rows = db_->Run(query, stats);
    auto expected = ReferenceEvaluate(db_->store(), query);
    ASSERT_TRUE(rows.ok()) << query.ToString() << ": " << rows.status().ToString();
    ASSERT_TRUE(expected.ok()) << query.ToString();
    EXPECT_EQ(SortedBag(*rows), SortedBag(*expected)) << query.ToString();
  }

  std::unique_ptr<core::Pipeline> pipeline_;
  std::unique_ptr<Database> db_;
};

TEST_F(LazyIndexTest, BuildsOnFirstProbeAndAnswersLookups) {
  ObjectStore& store = db_->store();
  const size_t age_pos = AgePos();
  const sqo::Oid first = store.Extent("person").front();
  auto age = store.AttributeOf("person", first, age_pos);
  ASSERT_TRUE(age.ok());

  obs::MetricsRegistry metrics;
  obs::ScopedMetrics install(&metrics);
  const std::vector<sqo::Oid>* oids = store.IndexLookup("person", age_pos, *age);
  ASSERT_NE(oids, nullptr);
  EXPECT_NE(std::find(oids->begin(), oids->end(), first), oids->end());
  EXPECT_EQ(metrics.CounterValue("index.lazy_builds"), 1u);
  // An adaptive index is not declared: pricing never sees it.
  EXPECT_FALSE(store.HasIndex("person", age_pos));
  EXPECT_EQ(store.IndexDistinct("person", age_pos), 0u);

  // Second probe reuses the built index.
  store.IndexLookup("person", age_pos, *age);
  EXPECT_EQ(metrics.CounterValue("index.lazy_builds"), 1u);
}

TEST_F(LazyIndexTest, MutationDeltaMaintainsLazyIndex) {
  ObjectStore& store = db_->store();
  const size_t age_pos = AgePos();
  const sqo::Oid first = store.Extent("person").front();
  auto old_age = store.AttributeOf("person", first, age_pos);
  ASSERT_TRUE(old_age.ok());

  ASSERT_NE(store.IndexLookup("person", age_pos, *old_age), nullptr);

  obs::MetricsRegistry metrics;
  obs::ScopedMetrics install(&metrics);
  ASSERT_TRUE(store.UpdateAttribute(first, "age", Value::Int(999)).ok());

  // The update was delta-applied in place (no drop/rebuild): the index
  // reflects the new value and the old entry is gone.
  const std::vector<sqo::Oid>* updated =
      store.IndexLookup("person", age_pos, Value::Int(999));
  ASSERT_NE(updated, nullptr);
  EXPECT_NE(std::find(updated->begin(), updated->end(), first), updated->end());
  const std::vector<sqo::Oid>* stale =
      store.IndexLookup("person", age_pos, *old_age);
  if (stale != nullptr) {
    EXPECT_EQ(std::find(stale->begin(), stale->end(), first), stale->end());
  }
  EXPECT_EQ(metrics.CounterValue("index.lazy_builds"), 0u);
  EXPECT_EQ(metrics.CounterValue("index.delta_applies"), 1u);
}

TEST_F(LazyIndexTest, SmallExtentsAreIndexedToo) {
  // Course has 5 members here: a bound attribute is still an index probe,
  // whatever the extent size.
  const datalog::Query query =
      ParseQ("q(C) :- course(oid: C, cname: N), N = \"course3\".");
  obs::MetricsRegistry metrics;
  obs::ScopedMetrics install(&metrics);
  obs::EvalStats stats;
  ExpectMatchesReference(query, &stats);
  EXPECT_EQ(stats.extent_scans, 0u);
  EXPECT_EQ(stats.index_probes, 1u);
  EXPECT_EQ(stats.objects_fetched, stats.results);
  EXPECT_EQ(metrics.CounterValue("index.lazy_builds"), 1u);
}

TEST_F(LazyIndexTest, EqualitySelectionUsesLazyIndexInsteadOfScan) {
  // `age` has no declared index: the constant selection probes the
  // adaptive index instead of scanning the person extent.
  const datalog::Query query = ParseQ("q(X) :- person(oid: X, age: A), A = 31.");
  obs::EvalStats stats;
  ExpectMatchesReference(query, &stats);
  EXPECT_EQ(stats.extent_scans, 0u);
  EXPECT_GT(stats.index_probes, 0u);
  EXPECT_EQ(stats.objects_fetched, stats.results);
  EXPECT_LT(stats.objects_fetched, db_->store().Extent("person").size());
}

TEST_F(LazyIndexTest, DifferentialAcrossEqualityQueries) {
  const char* queries[] = {
      // Constant selection on an unindexed attribute.
      "q(X) :- person(oid: X, age: A), A = 40.",
      // Constant selection matching the TA salary cohort.
      "q(N) :- employee(oid: X, name: N, salary: S), S = 18000.0.",
      // Join on a shared attribute: the second atom probes per binding.
      "q(N, M) :- faculty(oid: X, name: N, age: A), "
      "person(oid: Y, name: M, age: A).",
      // Relationship join plus selection.
      "q(N, Num) :- student(oid: X, name: N, age: A), A = 20, takes(X, Y), "
      "section(oid: Y, number: Num).",
  };
  for (const char* text : queries) ExpectMatchesReference(ParseQ(text));
}

TEST_F(LazyIndexTest, WorkloadAlternativesIdenticalWithAndWithoutIndexes) {
  // Every alternative of every paper query must return the reference
  // evaluator's rows (it reads no index) — and so the same rows across
  // alternatives, since they are semantically equivalent.
  const std::string queries[] = {
      workload::QueryScopeReduction(),
      workload::QueryJoinElimination(),
      workload::QueryAsrDirect(),
      workload::QueryAsrIndirect(),
  };
  for (const std::string& oql : queries) {
    auto result = pipeline_->OptimizeText(oql);
    ASSERT_TRUE(result.ok()) << oql;
    ASSERT_FALSE(result->contradiction);
    ASSERT_FALSE(result->alternatives.empty());
    auto reference = ReferenceEvaluate(db_->store(), result->original_datalog);
    ASSERT_TRUE(reference.ok()) << oql;
    for (const core::Alternative& alt : result->alternatives) {
      auto rows = db_->Run(alt.datalog);
      ASSERT_TRUE(rows.ok()) << alt.datalog.ToString();
      EXPECT_EQ(SortedBag(*rows), SortedBag(*reference))
          << alt.datalog.ToString();
    }
  }
}

TEST(ResultDedupTest, DistinguishesValuesContainingSeparatorByte) {
  // Regression: result dedup used to key on ToString() joined with '\x1f',
  // so the pairs ("a\x1f", "b") and ("a", "\x1fb") collapsed into one. The
  // hashed structural dedup must keep all combinations distinct.
  auto pipeline = workload::MakeUniversityPipeline();
  ASSERT_TRUE(pipeline.ok());
  Database db(&pipeline->schema());
  const std::string sep = "\x1f";
  for (const std::string& name : {std::string("a") + sep, std::string("b"),
                                  std::string("a"), sep + "b"}) {
    auto oid = db.store().CreateObject("Person", {{"name", Value::String(name)}});
    ASSERT_TRUE(oid.ok()) << oid.status().ToString();
  }
  auto q = datalog::ParseQueryText(
      "q(N, M) :- person(oid: X, name: N), person(oid: Y, name: M).",
      &pipeline->schema().catalog);
  ASSERT_TRUE(q.ok());
  auto rows = db.Run(*q);
  ASSERT_TRUE(rows.ok());
  // 4 × 4 distinct (N, M) pairs — a collision-prone dedup reports 15.
  EXPECT_EQ(rows->size(), 16u);
}

}  // namespace
}  // namespace sqo::engine
