#include "engine/database.h"

#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "workload/university.h"

namespace sqo::engine {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto pipeline = workload::MakeUniversityPipeline();
    ASSERT_TRUE(pipeline.ok());
    pipeline_ = std::make_unique<core::Pipeline>(std::move(pipeline).value());
    db_ = std::make_unique<Database>(&pipeline_->schema());
  }

  datalog::Query ParseQ(const std::string& text) {
    auto q = datalog::ParseQueryText(text, &pipeline_->schema().catalog);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *q;
  }

  std::unique_ptr<core::Pipeline> pipeline_;
  std::unique_ptr<Database> db_;
};

TEST_F(DatabaseTest, CreateKeyIndexesCoversDeclaringClassAndSubclasses) {
  ASSERT_TRUE(db_->CreateKeyIndexes().ok());
  // Key `name` is declared on Person; position 1 in every subclass relation.
  for (const char* rel : {"person", "employee", "faculty", "student", "ta"}) {
    EXPECT_TRUE(db_->store().HasIndex(rel, 1)) << rel;
  }
  // Course has no keys.
  EXPECT_FALSE(db_->store().HasIndex("course", 1));
}

TEST_F(DatabaseTest, RunOnEmptyDatabase) {
  auto rows = db_->Run(ParseQ("q(X) :- person(oid: X)."));
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST_F(DatabaseTest, MaxTuplesGuardTrips) {
  workload::GeneratorConfig config;
  config.n_students = 30;
  ASSERT_TRUE(workload::PopulateUniversity(config, *pipeline_, db_.get()).ok());
  EvalOptions options;
  options.max_tuples = 5;
  auto rows = db_->Run(ParseQ("q(X) :- person(oid: X)."), nullptr, options);
  EXPECT_FALSE(rows.ok());
  options.max_tuples = 0;  // unlimited
  EXPECT_TRUE(db_->Run(ParseQ("q(X) :- person(oid: X)."), nullptr, options).ok());
}

TEST_F(DatabaseTest, StatsAccumulateAcrossRuns) {
  workload::GeneratorConfig config;
  config.n_students = 10;
  ASSERT_TRUE(workload::PopulateUniversity(config, *pipeline_, db_.get()).ok());
  obs::EvalStats stats;
  ASSERT_TRUE(db_->Run(ParseQ("q(X) :- faculty(oid: X)."), &stats).ok());
  const uint64_t first = stats.objects_fetched;
  ASSERT_TRUE(db_->Run(ParseQ("q(X) :- faculty(oid: X)."), &stats).ok());
  EXPECT_EQ(stats.objects_fetched, 2 * first);
  obs::EvalStats other;
  other += stats;
  EXPECT_EQ(other.objects_fetched, stats.objects_fetched);
  EXPECT_NE(stats.ToString().find("fetched="), std::string::npos);
}

}  // namespace
}  // namespace sqo::engine
