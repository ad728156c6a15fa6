// §5.2 — Access scope reduction.
//
// "select x.name from x in Person where x.age < 30": IC4 (faculty are ≥ 30)
// composed with the subclass hierarchy yields IC6'; its residue adds
// `x not in Faculty`, and the engine evaluates Person − Faculty by extent
// difference, fetching fewer objects. This example prints the optimized
// OQL (which matches the paper's output exactly) and the measured
// object-fetch counts.
//
// Run: build/examples/scope_reduction

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
  config.n_faculty = 400;  // a large faculty share makes the effect visible
  config.n_students = 400;
  config.n_plain_persons = 200;
  if (auto s = workload::PopulateUniversity(config, pipeline, &db); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  engine::EngineCostModel cost_model(&db.store());

  const std::string oql = workload::QueryScopeReduction();
  std::printf("== Input OQL ==\n%s\n", oql.c_str());

  auto result_or = pipeline.OptimizeText(oql, &cost_model);
  if (!result_or.ok()) {
    std::fprintf(stderr, "%s\n", result_or.status().ToString().c_str());
    return 1;
  }
  const core::PipelineResult& result = *result_or;
  const core::Alternative& best = result.alternatives[result.best_index];

  std::printf("\n== Chosen rewriting (Step 3) ==\n%s\n",
              best.datalog.ToString().c_str());
  for (const std::string& step : best.derivation) {
    std::printf("  . %s\n", step.c_str());
  }
  if (best.oql_ok) {
    std::printf("\n== Optimized OQL (Step 4) ==\n%s\n",
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
  std::printf("object fetches saved: %llu (%.1f%%)\n",
              static_cast<unsigned long long>(before.objects_fetched -
                                              after.objects_fetched),
              100.0 *
                  static_cast<double>(before.objects_fetched -
                                      after.objects_fetched) /
                  static_cast<double>(before.objects_fetched));
  return rows_before->size() == rows_after->size() ? 0 : 1;
}
