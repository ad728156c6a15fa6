// Property suite: for a corpus of OQL queries, every rewriting the
// optimizer produces must return exactly the same answer set as the
// original — the defining property of *semantic* query optimization — and
// the original's answers must equal the naive reference evaluator's. Runs
// as a parameterized sweep over queries × generator seeds.

#include <gtest/gtest.h>

#include "engine/database.h"
#include "reference_eval.h"
#include "workload/university.h"

namespace sqo {
namespace {

struct Case {
  const char* label;
  const char* oql;
};

std::ostream& operator<<(std::ostream& os, const Case& c) {
  return os << c.label;
}

constexpr Case kQueries[] = {
    {"scope", "select x.name from x in Person where x.age < 30"},
    {"scope_high", "select x.name from x in Person where x.age >= 40"},
    {"faculty_salary", "select x.name from x in Faculty where x.salary > 50K"},
    {"implied_restriction",
     "select x.name from x in Faculty where x.salary > 20K"},
    {"join2", "select y.number from x in Student, y in x.takes "
              "where x.name = \"john\""},
    {"join3",
     "select z.name from x in Student, y in x.takes, z in y.is_taught_by"},
    {"key_join",
     "select list(s.student_id, t.employee_id) from s in Student, "
     "y in s.takes, z in y.is_taught_by, t in TA, v in t.takes, "
     "w in v.is_taught_by where z.name = w.name"},
    {"asr_path",
     "select w from x in Student, y in x.takes, z in y.is_section_of, "
     "v in z.has_sections, w in v.has_ta where x.name = \"james\""},
    {"asr_prefix",
     "select v from x in Student, y in x.takes, z in y.is_section_of, "
     "v in z.has_sections where x.name = \"johnson\""},
    {"struct_path",
     "select w.city from x in Person, w in x.address"},
    {"not_in",
     "select x.name from x in Person, x not in Student where x.age < 50"},
    {"method",
     "select x.name from x in Faculty where x.taxes_withheld(10%) > 5000"},
    {"ta_double_role",
     "select t.employee_id from t in TA, y in t.takes"},
    {"exists_simple",
     "select x.name from x in Student "
     "where exists y in x.takes : y.number != \"zz\""},
    {"exists_faculty",
     "select x.name from x in Person "
     "where x.age < 30 and exists s in Student : s.name = x.name"},
};

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
    ::testing::Combine(::testing::ValuesIn(kQueries), ::testing::Values(1, 7)),
    [](const ::testing::TestParamInfo<std::tuple<Case, int>>& info) {
      return std::string(std::get<0>(info.param).label) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace sqo
