// §5.3 — Join reduction using key constraints.
//
// The query pairs students with TAs taking a section taught by a professor
// *of the same name*, projecting a `list` constructor. `name` is a key on
// Person, so the two Faculty retrievals joined on name denote the same
// object: SQO replaces the attribute join with an OID comparison (the
// paper's Q') and, in the fully reduced variant, collapses the two faculty
// atoms into one. The `list` constructor survives Step 4 untouched.
//
// Run: build/examples/join_elimination

#include <cstdio>

#include "engine/cost_model.h"
#include "engine/database.h"
#include "workload/university.h"

int main() {
  using namespace sqo;  // NOLINT: example brevity

  auto pipeline_or = workload::MakeUniversityPipeline();
  if (!pipeline_or.ok()) {
    std::fprintf(stderr, "%s\n", pipeline_or.status().ToString().c_str());
    return 1;
  }
  const core::Pipeline& pipeline = *pipeline_or;

  engine::Database db(&pipeline.schema());
  workload::GeneratorConfig config;
  config.n_students = 300;
  if (auto s = workload::PopulateUniversity(config, pipeline, &db); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  engine::EngineCostModel cost_model(&db.store());

  const std::string oql = workload::QueryJoinElimination();
  std::printf("== Input OQL ==\n%s\n", oql.c_str());

  auto result_or = pipeline.OptimizeText(oql, &cost_model);
  if (!result_or.ok()) {
    std::fprintf(stderr, "%s\n", result_or.status().ToString().c_str());
    return 1;
  }
  const core::PipelineResult& result = *result_or;

  std::printf("\n== DATALOG (Step 2) ==\n%s\n",
              result.original_datalog.ToString().c_str());
  std::printf("\n%zu equivalent queries produced; chosen [%d]:\n",
              result.alternatives.size(), result.best_index);
  const core::Alternative& best = result.alternatives[result.best_index];
  std::printf("%s\n", best.datalog.ToString().c_str());
  for (const std::string& step : best.derivation) {
    std::printf("  . %s\n", step.c_str());
  }
  if (best.oql_ok) {
    std::printf("\n== Optimized OQL (Step 4, constructor preserved) ==\n%s\n",
                best.oql.ToString().c_str());
  }

  obs::EvalStats before, after;
  auto rows_before = db.Run(result.original_datalog, &before);
  auto rows_after = db.Run(best.datalog, &after);
  if (!rows_before.ok() || !rows_after.ok()) return 1;
  std::printf("\n== Measured ==\n");
  std::printf("original : %s\n", before.ToString().c_str());
  std::printf("optimized: %s\n", after.ToString().c_str());
  std::printf("answers  : %zu vs %zu\n", rows_before->size(), rows_after->size());
  return rows_before->size() == rows_after->size() ? 0 : 1;
}
