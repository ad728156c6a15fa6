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

  const datalog::RelationCatalog& catalog() const {
    return pipeline_->schema().catalog;
  }

  /// Body indexes in plan order.
  static std::vector<size_t> Order(const Plan& plan) {
    std::vector<size_t> order;
    for (const PlanStep& step : plan.steps) order.push_back(step.literal);
    return order;
  }

  std::unique_ptr<core::Pipeline> pipeline_;
  std::unique_ptr<Database> db_;
};

TEST_F(PlannerTest, OrderCoversAllLiteralsExactlyOnce) {
  datalog::Query q = ParseQ(
      "q(N) :- student(oid: X, name: N), takes(X, Y), is_taught_by(Y, Z), "
      "faculty(oid: Z, salary: S), S > 50K.");
  Plan plan = PlanQuery(q, db_->store());
  const std::vector<size_t> order = Order(plan);
  ASSERT_EQ(order.size(), q.body.size());
  std::set<size_t> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), q.body.size());
}

TEST_F(PlannerTest, ComparisonsPlacedAfterBindings) {
  datalog::Query q = ParseQ(
      "q(N) :- S > 50K, faculty(oid: Z, name: N, salary: S).");
  Plan plan = PlanQuery(q, db_->store());
  // The comparison (index 0) must come after the faculty atom (index 1).
  EXPECT_EQ(Order(plan), (std::vector<size_t>{1, 0}));
}

TEST_F(PlannerTest, SelectiveConstantStartsThePlan) {
  datalog::Query q = ParseQ(
      "q(Num) :- student(oid: X, name: N), takes(X, Y), "
      "section(oid: Y, number: Num), N = \"john\".");
  Plan plan = PlanQuery(q, db_->store());
  // The student atom (index-probeable thanks to constant pushdown on the
  // name key) is the first *relation* access in the plan; the constant
  // equality itself may be placed before it as a free filter.
  for (const PlanStep& step : plan.steps) {
    const datalog::Literal& lit = q.body[step.literal];
    if (!lit.atom.is_predicate()) continue;
    EXPECT_EQ(lit.atom.predicate(), "student");
    EXPECT_EQ(step.kind, StepKind::kIndexProbe) << plan.ToString(q, catalog());
    break;
  }
}

TEST_F(PlannerTest, SmallerExtentPreferredWithoutBindings) {
  datalog::Query q = ParseQ("q(X, Y) :- person(oid: X), faculty(oid: Y).");
  Plan plan = PlanQuery(q, db_->store());
  // Faculty (20) is much smaller than person (120+): scan it first.
  EXPECT_EQ(q.body[plan.steps[0].literal].atom.predicate(), "faculty");
}

TEST_F(PlannerTest, NegationAfterItsVariableIsBound) {
  datalog::Query q = ParseQ(
      "q(X) :- not faculty(oid: X), person(oid: X).");
  Plan plan = PlanQuery(q, db_->store());
  EXPECT_EQ(Order(plan), (std::vector<size_t>{1, 0}));  // person first
}

TEST_F(PlannerTest, GuardedScanEstimatedCheaper) {
  datalog::Query guarded = ParseQ(
      "q(X) :- person(oid: X), not faculty(oid: X).");
  datalog::Query plain = ParseQ("q(X) :- person(oid: X).");
  Plan guarded_plan = PlanQuery(guarded, db_->store());
  Plan plain_plan = PlanQuery(plain, db_->store());
  // The guard shrinks the scan estimate below scan + separate anti-join.
  EXPECT_LT(guarded_plan.cost, plain_plan.cost * 1.5);
  EXPECT_NE(guarded_plan.ToString(guarded, catalog()).find("guarded"),
            std::string::npos);
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
  EXPECT_EQ(plan.steps.size(), 2u);
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
  std::string s = plan.ToString(q, catalog());
  EXPECT_NE(s.find("extent scan person"), std::string::npos);
  EXPECT_NE(s.find("filter"), std::string::npos);
}

/// The profile operator the executor records in the branch that runs each
/// planned step kind (kUnknownRelation fails before recording one).
std::string OpOf(StepKind kind) {
  switch (kind) {
    case StepKind::kFilter: return "filter";
    case StepKind::kOidLookup: return "oid-lookup";
    case StepKind::kIndexProbe: return "index-probe";
    case StepKind::kExtentScan: return "extent-scan";
    case StepKind::kSharedScan: return "shared-scan";
    case StepKind::kTraverse: return "traverse";
    case StepKind::kReverseTraverse: return "reverse-traverse";
    case StepKind::kEdgeCheck: return "edge-check";
    case StepKind::kPairScan: return "pair-scan";
    case StepKind::kInvoke: return "invoke";
    case StepKind::kAntiJoin: return "anti-join";
    case StepKind::kConsumedGuard: return "guard";
    case StepKind::kUnknownRelation: return "";
  }
  return "";
}

TEST_F(PlannerTest, PlanStepsAreWhatTheEvaluatorRuns) {
  // `\plan` prints PlanQuery's steps; a profiled evaluation labels each
  // node in the executor branch that performed the step. Over the
  // differential corpus and every alternative of the paper's shapes, each
  // executed node must be the operator its plan step names.
  std::vector<datalog::Query> queries;
  for (const char* text : kEvalCorpus) queries.push_back(ParseQ(text));
  for (const std::string& oql :
       {workload::QueryExample2(), workload::QueryScopeReduction(),
        workload::QueryJoinElimination(),
        workload::QueryJoinElimination() + " and s.name = \"james\"",
        workload::QueryAsrDirect(), workload::QueryAsrIndirect()}) {
    auto result = pipeline_->OptimizeText(oql);
    ASSERT_TRUE(result.ok()) << oql << ": " << result.status().ToString();
    queries.push_back(result->original_datalog);
    for (const core::Alternative& alt : result->alternatives) {
      queries.push_back(alt.datalog);
    }
  }
  std::set<StepKind> executed;
  for (const datalog::Query& q : queries) {
    const Plan plan = PlanQuery(q, db_->store());
    auto run = db_->ProfileQuery(q);
    ASSERT_TRUE(run.ok()) << q.ToString() << ": " << run.status().ToString();
    ASSERT_EQ(run->profile.nodes.size(), plan.steps.size() + 1) << q.ToString();
    for (size_t k = 0; k < plan.steps.size(); ++k) {
      const obs::ProfileNode& node = run->profile.nodes[k];
      EXPECT_EQ(node.literal_index, static_cast<int>(plan.steps[k].literal));
      if (node.op.empty()) continue;  // no binding reached the step
      EXPECT_EQ(node.op, OpOf(plan.steps[k].kind))
          << q.ToString() << "\n" << plan.ToString(q, catalog());
      executed.insert(plan.steps[k].kind);
    }
  }
  // Every operator but the unknown-relation failure ran somewhere.
  EXPECT_EQ(executed.size(), 12u);
}

}  // namespace
}  // namespace sqo::engine
