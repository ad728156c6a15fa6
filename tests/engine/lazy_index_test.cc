#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "datalog/parser.h"
#include "engine/database.h"
#include "engine/evaluator.h"
#include "obs/metrics.h"
#include "workload/university.h"

namespace sqo::engine {
namespace {

using sqo::Value;

/// Order-insensitive canonical form of a result set, for differential
/// comparison between evaluation strategies.
std::multiset<std::string> Canon(const std::vector<std::vector<Value>>& rows) {
  std::multiset<std::string> out;
  for (const auto& row : rows) {
    std::string line;
    for (const Value& v : row) line += v.ToString() + "|";
    out.insert(std::move(line));
  }
  return out;
}

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
  bool built = false;
  const std::vector<sqo::Oid>* oids =
      store.LazyIndexLookup("person", age_pos, *age, 16, &built);
  ASSERT_TRUE(built);
  ASSERT_NE(oids, nullptr);
  EXPECT_NE(std::find(oids->begin(), oids->end(), first), oids->end());
  EXPECT_EQ(metrics.CounterValue("index.lazy_builds"), 1u);

  // Second probe reuses the built index.
  store.LazyIndexLookup("person", age_pos, *age, 16, &built);
  EXPECT_TRUE(built);
  EXPECT_EQ(metrics.CounterValue("index.lazy_builds"), 1u);
}

TEST_F(LazyIndexTest, MutationDeltaMaintainsLazyIndex) {
  ObjectStore& store = db_->store();
  const size_t age_pos = AgePos();
  const sqo::Oid first = store.Extent("person").front();
  auto old_age = store.AttributeOf("person", first, age_pos);
  ASSERT_TRUE(old_age.ok());

  bool built = false;
  store.LazyIndexLookup("person", age_pos, *old_age, 16, &built);
  ASSERT_TRUE(built);

  ASSERT_TRUE(store.UpdateAttribute(first, "age", Value::Int(999)).ok());

  // The update was delta-applied in place (no drop/rebuild): the index
  // reflects the new value and the old entry is gone.
  const std::vector<sqo::Oid>* updated =
      store.LazyIndexLookup("person", age_pos, Value::Int(999), 16, &built);
  ASSERT_TRUE(built);
  ASSERT_NE(updated, nullptr);
  EXPECT_NE(std::find(updated->begin(), updated->end(), first), updated->end());
  const std::vector<sqo::Oid>* stale =
      store.LazyIndexLookup("person", age_pos, *old_age, 16, &built);
  if (stale != nullptr) {
    EXPECT_EQ(std::find(stale->begin(), stale->end(), first), stale->end());
  }
}

TEST_F(LazyIndexTest, SmallExtentsAreNotIndexed) {
  ObjectStore& store = db_->store();
  bool built = true;
  const std::vector<sqo::Oid>* oids = store.LazyIndexLookup(
      "person", AgePos(), Value::Int(30), 1'000'000'000, &built);
  EXPECT_FALSE(built);
  EXPECT_EQ(oids, nullptr);
}

TEST_F(LazyIndexTest, EqualitySelectionUsesLazyIndexInsteadOfScan) {
  // `age` has no explicit index; with auto-indexing the constant selection
  // probes instead of scanning the person extent.
  const std::string text = "q(X) :- person(oid: X, age: A), A = 31.";
  EvalOptions indexed;
  EvalOptions linear;
  linear.auto_index = false;
  obs::EvalStats stats_indexed, stats_linear;
  auto rows_indexed = db_->Run(ParseQ(text), &stats_indexed, indexed);
  auto rows_linear = db_->Run(ParseQ(text), &stats_linear, linear);
  ASSERT_TRUE(rows_indexed.ok());
  ASSERT_TRUE(rows_linear.ok());
  EXPECT_EQ(Canon(*rows_indexed), Canon(*rows_linear));
  EXPECT_EQ(stats_indexed.extent_scans, 0u);
  EXPECT_GT(stats_indexed.index_probes, 0u);
  EXPECT_GT(stats_linear.extent_scans, 0u);
  EXPECT_LT(stats_indexed.objects_fetched, stats_linear.objects_fetched);
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
  for (const char* text : queries) {
    EvalOptions indexed;
    EvalOptions linear;
    linear.auto_index = false;
    auto rows_indexed = db_->Run(ParseQ(text), nullptr, indexed);
    auto rows_linear = db_->Run(ParseQ(text), nullptr, linear);
    ASSERT_TRUE(rows_indexed.ok()) << text;
    ASSERT_TRUE(rows_linear.ok()) << text;
    EXPECT_EQ(Canon(*rows_indexed), Canon(*rows_linear)) << text;
  }
}

TEST_F(LazyIndexTest, WorkloadAlternativesIdenticalWithAndWithoutIndexes) {
  // Every alternative of every paper query must return the same result set
  // under indexed and linear evaluation — and across alternatives, since
  // they are semantically equivalent.
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
    EvalOptions indexed;
    EvalOptions linear;
    linear.auto_index = false;
    std::multiset<std::string> reference;
    bool have_reference = false;
    for (const core::Alternative& alt : result->alternatives) {
      auto rows_indexed = db_->Run(alt.datalog, nullptr, indexed);
      auto rows_linear = db_->Run(alt.datalog, nullptr, linear);
      ASSERT_TRUE(rows_indexed.ok()) << alt.datalog.ToString();
      ASSERT_TRUE(rows_linear.ok()) << alt.datalog.ToString();
      EXPECT_EQ(Canon(*rows_indexed), Canon(*rows_linear))
          << alt.datalog.ToString();
      if (!have_reference) {
        reference = Canon(*rows_indexed);
        have_reference = true;
      } else {
        EXPECT_EQ(Canon(*rows_indexed), reference) << alt.datalog.ToString();
      }
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
