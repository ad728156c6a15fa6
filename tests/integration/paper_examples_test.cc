// End-to-end reproduction of the paper's §5 applications: each test drives
// the full Figure-2 pipeline (OQL → DATALOG → SQO → OQL) and evaluates the
// queries on a synthetic database, asserting both the *shape* of the
// optimization the paper describes and answer-set equivalence.

#include <gtest/gtest.h>

#include "engine/cost_model.h"
#include "engine/database.h"
#include "workload/university.h"

namespace sqo {
namespace {

class PaperExamplesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto pipeline = workload::MakeUniversityPipeline();
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    pipeline_ = std::make_unique<core::Pipeline>(std::move(pipeline).value());
    db_ = std::make_unique<engine::Database>(&pipeline_->schema());
    workload::GeneratorConfig config;
    ASSERT_TRUE(workload::PopulateUniversity(config, *pipeline_, db_.get()).ok());
    cost_model_ = std::make_unique<engine::EngineCostModel>(&db_->store());
  }

  core::PipelineResult Optimize(const std::string& oql) {
    auto result = pipeline_->OptimizeText(oql, cost_model_.get());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  std::unique_ptr<core::Pipeline> pipeline_;
  std::unique_ptr<engine::Database> db_;
  std::unique_ptr<engine::EngineCostModel> cost_model_;
};

TEST_F(PaperExamplesTest, Section51ContradictionDetection) {
  core::PipelineResult result = Optimize(workload::QueryExample2());
  ASSERT_TRUE(result.contradiction);
  // The derived IC3 (from IC1 + monotonicity + point fact) produced the
  // conflicting V > 3000 against the query's V < 1000.
  EXPECT_NE(result.contradiction_reason.find("> 3000"), std::string::npos)
      << result.contradiction_reason;
  // Cross-check with the engine: the query really is empty.
  obs::EvalStats stats;
  auto rows = db_->Run(result.original_datalog, &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
  EXPECT_GT(stats.objects_fetched + stats.method_invocations, 0u)
      << "evaluating the unoptimized query does real work SQO avoids";
}

TEST_F(PaperExamplesTest, Section52ScopeReduction) {
  core::PipelineResult result = Optimize(workload::QueryScopeReduction());
  ASSERT_FALSE(result.contradiction);

  // The cost model picks the scope-reduced variant.
  const core::Alternative& best = result.alternatives[result.best_index];
  bool has_not_faculty = false;
  for (const datalog::Literal& lit : best.datalog.body) {
    if (!lit.positive && lit.atom.predicate() == "faculty") {
      has_not_faculty = true;
    }
  }
  EXPECT_TRUE(has_not_faculty) << best.datalog.ToString();

  // Step 4 renders the paper's exact OQL.
  ASSERT_TRUE(best.oql_ok) << best.oql_error;
  bool rendered = false;
  for (const oql::FromEntry& entry : best.oql.from) {
    if (!entry.positive && entry.domain.front().base == "Faculty") {
      rendered = true;
    }
  }
  EXPECT_TRUE(rendered) << best.oql.ToString();

  // Equivalence + the claimed benefit: fewer objects fetched.
  obs::EvalStats before, after;
  auto rows_before = db_->Run(result.original_datalog, &before);
  auto rows_after = db_->Run(best.datalog, &after);
  ASSERT_TRUE(rows_before.ok() && rows_after.ok());
  EXPECT_EQ(rows_before->size(), rows_after->size());
  EXPECT_LT(after.objects_fetched, before.objects_fetched);
}

TEST_F(PaperExamplesTest, Section53JoinEliminationViaKey) {
  core::PipelineResult result = Optimize(workload::QueryJoinElimination());
  ASSERT_FALSE(result.contradiction);

  const core::Alternative& best = result.alternatives[result.best_index];
  // The best variant compares faculty OIDs instead of joining through two
  // distinct faculty objects: both is_taught_by atoms share one target.
  {
    std::vector<datalog::Term> taught_targets;
    for (const datalog::Literal& lit : best.datalog.body) {
      if (lit.atom.is_predicate() && lit.atom.predicate() == "is_taught_by") {
        taught_targets.push_back(lit.atom.args()[1]);
      }
    }
    ASSERT_EQ(taught_targets.size(), 2u);
    EXPECT_EQ(taught_targets[0], taught_targets[1]) << best.datalog.ToString();
  }
  // And some alternative removes the name join entirely (the fully reduced
  // §5.3 rewrite).
  bool some_without_name_join = false;
  for (const core::Alternative& alt : result.alternatives) {
    bool name_join = false;
    for (const datalog::Literal& lit : alt.datalog.body) {
      if (lit.atom.is_comparison() && lit.atom.lhs().is_variable() &&
          lit.atom.rhs().is_variable() &&
          lit.atom.lhs().var_name().rfind("Name", 0) == 0 &&
          lit.atom.rhs().var_name().rfind("Name", 0) == 0) {
        name_join = true;
      }
    }
    bool merged = false;
    std::vector<datalog::Term> taught_targets;
    for (const datalog::Literal& lit : alt.datalog.body) {
      if (lit.atom.is_predicate() && lit.atom.predicate() == "is_taught_by") {
        taught_targets.push_back(lit.atom.args()[1]);
      }
    }
    merged = taught_targets.size() == 2 && taught_targets[0] == taught_targets[1];
    if (!name_join && merged) some_without_name_join = true;
  }
  EXPECT_TRUE(some_without_name_join);

  // The list constructor survives Step 4 (the paper's §5.3 point).
  ASSERT_TRUE(best.oql_ok) << best.oql_error;
  ASSERT_EQ(best.oql.select_list.size(), 1u);
  EXPECT_EQ(best.oql.select_list[0].kind, oql::Expr::Kind::kCollection);

  // Equivalence + benefit: fewer object fetches.
  obs::EvalStats before, after;
  auto rows_before = db_->Run(result.original_datalog, &before);
  auto rows_after = db_->Run(best.datalog, &after);
  ASSERT_TRUE(rows_before.ok() && rows_after.ok());
  EXPECT_EQ(rows_before->size(), rows_after->size());
  EXPECT_LT(after.objects_fetched, before.objects_fetched);
}

TEST_F(PaperExamplesTest, Section54AsrJoinElimination) {
  core::PipelineResult result = Optimize(workload::QueryAsrDirect());
  ASSERT_FALSE(result.contradiction);

  // The paper's Q': student(X, Name), asr(X, W), Name = "james".
  const core::Alternative* folded = nullptr;
  for (const core::Alternative& alt : result.alternatives) {
    bool has_asr = false, has_path = false;
    for (const datalog::Literal& lit : alt.datalog.body) {
      if (!lit.atom.is_predicate()) continue;
      if (lit.atom.predicate() == "asr_student_ta") has_asr = true;
      if (lit.atom.predicate() == "takes" ||
          lit.atom.predicate() == "has_sections") {
        has_path = true;
      }
    }
    if (has_asr && !has_path &&
        (folded == nullptr ||
         alt.datalog.body.size() < folded->datalog.body.size())) {
      folded = &alt;
    }
  }
  ASSERT_NE(folded, nullptr) << "§5.4 Q' fold missing";
  // The paper's Q': student atom + asr atom + the name restriction.
  EXPECT_EQ(folded->datalog.body.size(), 3u) << folded->datalog.ToString();

  obs::EvalStats before, after;
  auto rows_before = db_->Run(result.original_datalog, &before);
  auto rows_after = db_->Run(folded->datalog, &after);
  ASSERT_TRUE(rows_before.ok() && rows_after.ok());
  EXPECT_EQ(rows_before->size(), rows_after->size());
  // The fold eliminates three joins' worth of traversals.
  EXPECT_LT(after.relationship_traversals, before.relationship_traversals);
}

TEST_F(PaperExamplesTest, Section54AsrJoinIntroduction) {
  core::PipelineResult result = Optimize(workload::QueryAsrIndirect());
  ASSERT_FALSE(result.contradiction);

  // The paper's Q1': student(X, Name), asr(X, W), has_ta(V, W), restriction.
  const core::Alternative* q1_prime = nullptr;
  for (const core::Alternative& alt : result.alternatives) {
    bool has_asr = false, has_ta = false, has_path = false;
    for (const datalog::Literal& lit : alt.datalog.body) {
      if (!lit.atom.is_predicate()) continue;
      if (lit.atom.predicate() == "asr_student_ta") has_asr = true;
      if (lit.atom.predicate() == "has_ta") has_ta = true;
      if (lit.atom.predicate() == "takes") has_path = true;
    }
    if (has_asr && has_ta && !has_path) q1_prime = &alt;
  }
  ASSERT_NE(q1_prime, nullptr) << "§5.4 Q1' missing";

  obs::EvalStats before, after;
  auto rows_before = db_->Run(result.original_datalog, &before);
  auto rows_after = db_->Run(q1_prime->datalog, &after);
  ASSERT_TRUE(rows_before.ok() && rows_after.ok());
  EXPECT_EQ(rows_before->size(), rows_after->size());
}

TEST_F(PaperExamplesTest, EveryMappableAlternativeRoundTripsThroughOql) {
  // Step 4 output re-parses and re-translates to an equivalent query.
  for (const std::string& query :
       {workload::QueryScopeReduction(), workload::QueryJoinElimination(),
        workload::QueryAsrDirect()}) {
    core::PipelineResult result = Optimize(query);
    auto rows_orig = db_->Run(result.original_datalog);
    ASSERT_TRUE(rows_orig.ok());
    for (const core::Alternative& alt : result.alternatives) {
      if (!alt.oql_ok) continue;
      auto rows_alt = db_->Run(alt.datalog);
      ASSERT_TRUE(rows_alt.ok()) << alt.datalog.ToString();
      EXPECT_EQ(rows_orig->size(), rows_alt->size())
          << "alternative changed the answers:\n"
          << alt.datalog.ToString();
    }
  }
}

}  // namespace
}  // namespace sqo
