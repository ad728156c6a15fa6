#include "engine/evaluator.h"

#include <gtest/gtest.h>

#include <set>

#include "datalog/parser.h"
#include "engine/database.h"
#include "odl/parser.h"
#include "workload/university.h"

namespace sqo::engine {
namespace {

using sqo::Value;

class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto pipeline = workload::MakeUniversityPipeline();
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    pipeline_ = std::make_unique<core::Pipeline>(std::move(pipeline).value());
    db_ = std::make_unique<Database>(&pipeline_->schema());

    workload::GeneratorConfig config;
    config.n_plain_persons = 10;
    config.n_students = 20;
    config.n_faculty = 4;
    config.n_courses = 3;
    config.sections_per_course = 2;
    ASSERT_TRUE(workload::PopulateUniversity(config, *pipeline_, db_.get()).ok());
  }

  datalog::Query ParseQ(const std::string& text) {
    auto q = datalog::ParseQueryText(text, &pipeline_->schema().catalog);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *q;
  }

  std::vector<std::vector<Value>> Run(const std::string& text,
                                      obs::EvalStats* stats = nullptr) {
    auto rows = db_->Run(ParseQ(text), stats);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return rows.ok() ? *rows : std::vector<std::vector<Value>>{};
  }

  std::unique_ptr<core::Pipeline> pipeline_;
  std::unique_ptr<Database> db_;
};

TEST_F(EvaluatorTest, ExtentScanProjectsAttributes) {
  auto rows = Run("q(N) :- faculty(oid: X, name: N).");
  EXPECT_EQ(rows.size(), 4u);
  for (const auto& row : rows) {
    EXPECT_EQ(row.size(), 1u);
    EXPECT_EQ(row[0].kind(), sqo::ValueKind::kString);
  }
}

TEST_F(EvaluatorTest, SubclassMembersVisibleInSuperExtent) {
  auto persons = Run("q(X) :- person(oid: X).");
  auto students = Run("q(X) :- student(oid: X).");
  auto faculty = Run("q(X) :- faculty(oid: X).");
  auto tas = Run("q(X) :- ta(oid: X).");
  EXPECT_EQ(persons.size(),
            10u + 20u + 4u + 6u);  // plain + students + faculty + TAs
  EXPECT_EQ(students.size(), 26u);  // students + TAs
  EXPECT_EQ(faculty.size(), 4u);
  EXPECT_EQ(tas.size(), 6u);
}

TEST_F(EvaluatorTest, ComparisonFiltersRows) {
  auto rows = Run("q(N, A) :- person(oid: X, name: N, age: A), A >= 31.");
  for (const auto& row : rows) {
    EXPECT_GE(row[1].AsNumeric(), 31);
  }
  auto all = Run("q(N, A) :- person(oid: X, name: N, age: A).");
  EXPECT_LT(rows.size(), all.size());
}

TEST_F(EvaluatorTest, SelectionPushdownUsesKeyIndex) {
  obs::EvalStats stats;
  auto rows = Run("q(X) :- student(oid: X, name: N), N = \"john\".", &stats);
  EXPECT_EQ(rows.size(), 1u);
  EXPECT_EQ(stats.index_probes, 1u);
  EXPECT_EQ(stats.extent_scans, 0u);
  EXPECT_LE(stats.objects_fetched, 2u);
}

TEST_F(EvaluatorTest, RelationshipJoin) {
  auto rows = Run(
      "q(N, Num) :- student(oid: X, name: N), takes(X, Y), "
      "section(oid: Y, number: Num), N = \"john\".");
  EXPECT_FALSE(rows.empty());
}

TEST_F(EvaluatorTest, ReverseTraversal) {
  // dst bound, src free: uses backward adjacency.
  auto rows = Run(
      "q(S) :- section(oid: Y, number: \"0.0\"), is_taken_by(Y, S).");
  auto rows2 = Run(
      "q(S) :- section(oid: Y, number: \"0.0\"), takes(S, Y).");
  EXPECT_EQ(rows.size(), rows2.size());
  EXPECT_FALSE(rows.empty());
}

TEST_F(EvaluatorTest, MethodInvocation) {
  auto rows = Run(
      "q(V) :- faculty(oid: X), taxes_withheld(X, 10%, V).");
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& row : rows) {
    // Faculty salaries exceed 40K, so withheld > 4000.
    EXPECT_GT(row[0].AsNumeric(), 4000);
  }
}

TEST_F(EvaluatorTest, MethodResultFilter) {
  auto rows = Run(
      "q(V) :- faculty(oid: X), taxes_withheld(X, 10%, V), V < 1000.");
  EXPECT_TRUE(rows.empty());
}

TEST_F(EvaluatorTest, NegatedClassAtomAntiJoin) {
  auto all = Run("q(X) :- person(oid: X).");
  auto non_faculty = Run("q(X) :- person(oid: X), not faculty(oid: X).");
  EXPECT_EQ(non_faculty.size(), all.size() - 4u);
}

TEST_F(EvaluatorTest, MembershipGuardSkipsFetches) {
  obs::EvalStats guarded, unguarded;
  Run("q(X) :- person(oid: X), not faculty(oid: X).", &guarded);
  Run("q(X) :- person(oid: X).", &unguarded);
  // With the guard, faculty members are never fetched.
  EXPECT_EQ(guarded.objects_fetched + 4u, unguarded.objects_fetched);
  EXPECT_GT(guarded.negation_checks, 0u);
}

TEST_F(EvaluatorTest, RepeatedVariableComparesWithinTheCandidate) {
  // A variable repeated inside one atom and read nowhere else must still
  // be bound by its first occurrence, or the repeat compares against a
  // stale slot.
  ObjectStore& store = db_->store();
  std::set<uint64_t> same;
  for (const char* text : {"x", "y"}) {
    auto oid = store.CreateStruct(
        "Address", {{"street", Value::String(text)}, {"city", Value::String(text)}});
    ASSERT_TRUE(oid.ok());
    same.insert(oid->raw());
    ASSERT_TRUE(store
                    .CreateObject("Person", {{"name", Value::String(text)},
                                             {"address", Value::FromOid(*oid)}})
                    .ok());
  }
  for (const auto& row : Run("q(A, S, C) :- address(oid: A, street: S, city: C).")) {
    if (row[1] == row[2]) same.insert(row[0].AsOid().raw());
  }
  std::set<uint64_t> got;
  for (const auto& row : Run("q(A) :- address(oid: A, street: S, city: S).")) {
    got.insert(row[0].AsOid().raw());
  }
  EXPECT_EQ(got, same);

  std::set<uint64_t> kept, expected;
  for (const auto& row : Run(
           "q(P) :- person(oid: P, address: A), "
           "not address(oid: A, street: S, city: S).")) {
    kept.insert(row[0].AsOid().raw());
  }
  for (const auto& row : Run("q(P, A) :- person(oid: P, address: A).")) {
    if (row[1].kind() != sqo::ValueKind::kOid ||
        same.count(row[1].AsOid().raw()) == 0) {
      expected.insert(row[0].AsOid().raw());
    }
  }
  EXPECT_EQ(kept, expected);
  EXPECT_LT(kept.size(), Run("q(P) :- person(oid: P).").size());
}

TEST_F(EvaluatorTest, NegatedRelationshipAtom) {
  // Sections nobody takes: none, since TAs take every section.
  auto rows = Run("q(Y) :- section(oid: Y), not is_taken_by(Y, _).");
  EXPECT_TRUE(rows.empty());
}

TEST_F(EvaluatorTest, DistinctDeduplicates) {
  // Ages repeat across persons; distinct collapses them.
  obs::EvalStats stats;
  auto rows = Run("q(A) :- person(oid: X, age: A).", &stats);
  EXPECT_LT(rows.size(), stats.tuples_emitted);
  EXPECT_EQ(rows.size(), stats.results);
}

TEST_F(EvaluatorTest, BagSemanticsWhenDistinctOff) {
  EvalOptions options;
  options.distinct = false;
  Evaluator evaluator(&db_->store(), options);
  obs::EvalStats stats;
  auto rows = evaluator.Evaluate(ParseQ("q(A) :- person(oid: X, age: A)."),
                                 &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), stats.tuples_emitted);
}

TEST_F(EvaluatorTest, ConstantInHead) {
  auto rows = Run("q(X, 1) :- faculty(oid: X).");
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0][1], Value::Int(1));
}

TEST_F(EvaluatorTest, GroundAtomAsExistenceCheck) {
  auto rows = Run("q(1) :- faculty(oid: X, name: \"prof_31\").");
  // prof names are prof_<counter>; whether this one exists depends on the
  // counter, so just check the query runs and yields 0 or 1 rows.
  EXPECT_LE(rows.size(), 1u);
}

TEST_F(EvaluatorTest, UnsafeQueryRejected) {
  auto result = db_->Run(ParseQ("q(X) :- person(oid: X, age: A), B < A."));
  EXPECT_FALSE(result.ok());
}

TEST_F(EvaluatorTest, UnknownRelationRejected) {
  auto q = datalog::ParseQueryText("q(X) :- nothing(X).");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(db_->Run(*q).ok());
}

TEST_F(EvaluatorTest, UnorderableComparisonRejected) {
  auto result = db_->Run(ParseQ(
      "q(X) :- person(oid: X, name: N, age: A), N < A."));
  EXPECT_FALSE(result.ok());
}

TEST_F(EvaluatorTest, ExplicitOrderOverridesPlanner) {
  datalog::Query q = ParseQ("q(N) :- person(oid: X, name: N, age: A), A < 30.");
  Evaluator evaluator(&db_->store());
  std::vector<size_t> order = {0, 1};
  auto rows = evaluator.Evaluate(q, nullptr, &order);
  ASSERT_TRUE(rows.ok());
  std::vector<size_t> bad_order = {0};
  EXPECT_FALSE(evaluator.Evaluate(q, nullptr, &bad_order).ok());
}

TEST_F(EvaluatorTest, AsrBehavesLikeRelationship) {
  auto via_path = Run(
      "q(X, W) :- student(oid: X), takes(X, Y), is_section_of(Y, Z), "
      "has_sections(Z, V), has_ta(V, W).");
  auto via_asr = Run("q(X, W) :- student(oid: X), asr_student_ta(X, W).");
  EXPECT_EQ(via_path.size(), via_asr.size());
}

}  // namespace
}  // namespace sqo::engine
