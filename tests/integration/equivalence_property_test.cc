// Property suite: for a corpus of OQL queries, every rewriting the
// optimizer produces must return exactly the same answer set as the
// original — the defining property of *semantic* query optimization — and
// the original's answers must equal the naive reference evaluator's. Runs
// as a parameterized sweep over queries × generator seeds.

#include <gtest/gtest.h>

#include "engine/database.h"
#include "equivalence_corpus.h"
#include "reference_eval.h"
#include "workload/university.h"

namespace sqo {

std::ostream& operator<<(std::ostream& os, const EquivalenceCase& c) {
  return os << c.label;
}

namespace {

using Case = EquivalenceCase;

class EquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<Case, int>> {};

TEST_P(EquivalenceSweep, AllRewritingsPreserveAnswers) {
  const auto& [c, seed] = GetParam();

  auto pipeline = workload::MakeUniversityPipeline();
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  engine::Database db(&pipeline->schema());
  workload::GeneratorConfig config;
  config.seed = static_cast<uint64_t>(seed);
  config.n_plain_persons = 30;
  config.n_students = 60;
  config.n_faculty = 8;
  config.n_courses = 5;
  config.sections_per_course = 3;
  ASSERT_TRUE(workload::PopulateUniversity(config, *pipeline, &db).ok());

  auto result = pipeline->OptimizeText(c.oql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto rows_orig = db.Run(result->original_datalog);
  ASSERT_TRUE(rows_orig.ok()) << rows_orig.status().ToString();
  auto expected = engine::SortedBag(*rows_orig);
  auto reference =
      engine::ReferenceEvaluate(db.store(), result->original_datalog);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(expected, engine::SortedBag(*reference))
      << c.label << " seed " << seed << ": the evaluator disagrees with the "
      << "reference evaluator\n" << result->original_datalog.ToString();

  if (result->contradiction) {
    // A detected contradiction must mean the query is genuinely empty.
    EXPECT_TRUE(expected.empty())
        << c.label << ": contradiction claimed but query has answers";
    return;
  }

  for (const core::Alternative& alt : result->alternatives) {
    auto rows_alt = db.Run(alt.datalog);
    ASSERT_TRUE(rows_alt.ok())
        << c.label << ": " << rows_alt.status().ToString() << "\n"
        << alt.datalog.ToString();
    EXPECT_EQ(engine::SortedBag(*rows_alt), expected)
        << c.label << " seed " << seed << "\nrewriting: "
        << alt.datalog.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, EquivalenceSweep,
    ::testing::Combine(::testing::ValuesIn(kEquivalenceCorpus), ::testing::Values(1, 7)),
    [](const ::testing::TestParamInfo<std::tuple<Case, int>>& info) {
      return std::string(std::get<0>(info.param).label) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace sqo
