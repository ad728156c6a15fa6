#include "engine/planner.h"

#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "engine/database.h"
#include "eval_corpus.h"
#include "workload/university.h"

namespace sqo::engine {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto pipeline = workload::MakeUniversityPipeline();
    ASSERT_TRUE(pipeline.ok());
    pipeline_ = std::make_unique<core::Pipeline>(std::move(pipeline).value());
    db_ = std::make_unique<Database>(&pipeline_->schema());
    workload::GeneratorConfig config;
    config.n_students = 50;
    ASSERT_TRUE(workload::PopulateUniversity(config, *pipeline_, db_.get()).ok());
  }

  datalog::Query ParseQ(const std::string& text) {
    auto q = datalog::ParseQueryText(text, &pipeline_->schema().catalog);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *q;
  }

  std::unique_ptr<core::Pipeline> pipeline_;
  std::unique_ptr<Database> db_;
};

TEST_F(PlannerTest, OrderCoversAllLiteralsExactlyOnce) {
  datalog::Query q = ParseQ(
      "q(N) :- student(oid: X, name: N), takes(X, Y), is_taught_by(Y, Z), "
      "faculty(oid: Z, salary: S), S > 50K.");
  Plan plan = PlanQuery(q, db_->store());
  ASSERT_EQ(plan.order.size(), q.body.size());
  std::set<size_t> seen(plan.order.begin(), plan.order.end());
  EXPECT_EQ(seen.size(), q.body.size());
}

TEST_F(PlannerTest, ComparisonsPlacedAfterBindings) {
  datalog::Query q = ParseQ(
      "q(N) :- S > 50K, faculty(oid: Z, name: N, salary: S).");
  Plan plan = PlanQuery(q, db_->store());
  // The comparison (index 0) must come after the faculty atom (index 1).
  ASSERT_EQ(plan.order.size(), 2u);
  EXPECT_EQ(plan.order[0], 1u);
  EXPECT_EQ(plan.order[1], 0u);
}

TEST_F(PlannerTest, SelectiveConstantStartsThePlan) {
  datalog::Query q = ParseQ(
      "q(Num) :- student(oid: X, name: N), takes(X, Y), "
      "section(oid: Y, number: Num), N = \"john\".");
  Plan plan = PlanQuery(q, db_->store());
  // The student atom (index-probeable thanks to constant pushdown on the
  // name key) is the first *relation* access in the plan; the constant
  // equality itself may be placed before it as a free filter.
  for (size_t i = 0; i < plan.order.size(); ++i) {
    const datalog::Literal& lit = q.body[plan.order[i]];
    if (!lit.atom.is_predicate()) continue;
    EXPECT_EQ(lit.atom.predicate(), "student");
    EXPECT_NE(plan.steps[i].find("index probe"), std::string::npos)
        << plan.ToString();
    break;
  }
}

TEST_F(PlannerTest, SmallerExtentPreferredWithoutBindings) {
  datalog::Query q = ParseQ("q(X, Y) :- person(oid: X), faculty(oid: Y).");
  Plan plan = PlanQuery(q, db_->store());
  // Faculty (20) is much smaller than person (120+): scan it first.
  EXPECT_EQ(q.body[plan.order[0]].atom.predicate(), "faculty");
}

TEST_F(PlannerTest, NegationAfterItsVariableIsBound) {
  datalog::Query q = ParseQ(
      "q(X) :- not faculty(oid: X), person(oid: X).");
  Plan plan = PlanQuery(q, db_->store());
  EXPECT_EQ(plan.order[0], 1u);  // person first
  EXPECT_EQ(plan.order[1], 0u);
}

TEST_F(PlannerTest, GuardedScanEstimatedCheaper) {
  datalog::Query guarded = ParseQ(
      "q(X) :- person(oid: X), not faculty(oid: X).");
  datalog::Query plain = ParseQ("q(X) :- person(oid: X).");
  Plan guarded_plan = PlanQuery(guarded, db_->store());
  Plan plain_plan = PlanQuery(plain, db_->store());
  // The guard shrinks the scan estimate below scan + separate anti-join.
  EXPECT_LT(guarded_plan.cost, plain_plan.cost * 1.5);
  EXPECT_NE(guarded_plan.ToString().find("guarded"), std::string::npos);
}

TEST_F(PlannerTest, BoundRelationshipTraversalCheaperThanPairScan) {
  datalog::Query bound = ParseQ(
      "q(Y) :- student(oid: X, name: \"john\"), takes(X, Y).");
  datalog::Query unbound = ParseQ("q(X, Y) :- takes(X, Y).");
  EXPECT_LT(PlanQuery(bound, db_->store()).cost,
            PlanQuery(unbound, db_->store()).cost);
}

TEST_F(PlannerTest, UnplaceableLiteralFallsBackToTextualOrder) {
  // B and C never bound: the planner still covers every literal.
  datalog::Query q = ParseQ("q(X) :- person(oid: X), B < C.");
  Plan plan = PlanQuery(q, db_->store());
  EXPECT_EQ(plan.order.size(), 2u);
}

TEST_F(PlannerTest, CardinalityEstimatePositive) {
  datalog::Query q = ParseQ("q(X) :- person(oid: X, age: A), A < 30.");
  Plan plan = PlanQuery(q, db_->store());
  EXPECT_GT(plan.cardinality, 0.0);
  EXPECT_GT(plan.cost, 0.0);
}

TEST_F(PlannerTest, PlanToStringListsSteps) {
  datalog::Query q = ParseQ("q(X) :- person(oid: X, age: A), A < 30.");
  Plan plan = PlanQuery(q, db_->store());
  std::string s = plan.ToString();
  EXPECT_NE(s.find("extent scan person"), std::string::npos);
  EXPECT_NE(s.find("filter"), std::string::npos);
}

TEST_F(PlannerTest, PlanStepsAreWhatTheEvaluatorRuns) {
  // `\plan` prints PlanQuery's steps; a profiled evaluation labels each of
  // its nodes with the step it executed. Over the differential corpus the
  // two must agree, so the printed plan is the plan that runs.
  for (const char* text : kEvalCorpus) {
    const datalog::Query q = ParseQ(text);
    const Plan plan = PlanQuery(q, db_->store());
    auto run = db_->ProfileQuery(q);
    ASSERT_TRUE(run.ok()) << text << ": " << run.status().ToString();
    std::vector<std::string> details;
    for (const obs::ProfileNode& node : run->profile.nodes) {
      if (node.op != "emit") details.push_back(node.detail);
    }
    EXPECT_EQ(plan.steps, details) << text;
  }
}

}  // namespace
}  // namespace sqo::engine
