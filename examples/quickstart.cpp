// Quickstart: build the university pipeline (Figure 2 Steps 1 + semantic
// compilation), translate an OQL query to DATALOG (Step 2), optimize it
// (Step 3), map the changes back to OQL (Step 4), and evaluate the best
// alternative on a synthetic database.
//
// Run: build/examples/quickstart

#include <cstdio>
#include <cstdlib>

#include "engine/cost_model.h"
#include "engine/database.h"
#include "workload/university.h"

namespace {

void Check(const sqo::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  using namespace sqo;  // NOLINT: example brevity

  // --- Schema + integrity constraints + ASR, compiled once. ---
  auto pipeline_or = workload::MakeUniversityPipeline();
  Check(pipeline_or.status(), "pipeline construction");
  const core::Pipeline& pipeline = *pipeline_or;

  std::printf("== DATALOG schema (Step 1) ==\n");
  for (const auto& [name, sig] : pipeline.schema().catalog.relations()) {
    std::printf("  %s\n", sig.ToString().c_str());
  }
  std::printf("\n%zu integrity constraints, %zu residues attached\n\n",
              pipeline.compiled().all_ics.size(),
              pipeline.compiled().total_residues());

  // --- A synthetic database. ---
  engine::Database db(&pipeline.schema());
  workload::GeneratorConfig config;
  Check(workload::PopulateUniversity(config, pipeline, &db), "data generation");
  engine::EngineCostModel cost_model(&db.store());

  // --- Optimize the paper's scope-reduction query (§5.2). ---
  const std::string oql = workload::QueryScopeReduction();
  std::printf("== Input OQL ==\n%s\n\n", oql.c_str());

  auto result_or = pipeline.OptimizeText(oql, &cost_model);
  Check(result_or.status(), "optimization");
  const core::PipelineResult& result = *result_or;

  std::printf("== DATALOG (Step 2) ==\n%s\n\n",
              result.original_datalog.ToString().c_str());

  std::printf("== Equivalent queries (Step 3) ==\n");
  for (size_t i = 0; i < result.alternatives.size(); ++i) {
    const core::Alternative& alt = result.alternatives[i];
    std::printf("[%zu] cost=%.1f %s\n", i, alt.cost,
                i == static_cast<size_t>(result.best_index) ? "<== chosen" : "");
    std::printf("    %s\n", alt.datalog.ToString().c_str());
    for (const std::string& step : alt.derivation) {
      std::printf("      . %s\n", step.c_str());
    }
  }

  const core::Alternative& best = result.alternatives[result.best_index];
  if (best.oql_ok) {
    std::printf("\n== Optimized OQL (Step 4) ==\n%s\n\n",
                best.oql.ToString().c_str());
  }

  // --- Evaluate original vs chosen, with instrumentation. ---
  obs::EvalStats before, after;
  auto rows_before = db.Run(result.original_datalog, &before);
  Check(rows_before.status(), "evaluating original");
  auto rows_after = db.Run(best.datalog, &after);
  Check(rows_after.status(), "evaluating optimized");

  std::printf("original : %s\n", before.ToString().c_str());
  std::printf("optimized: %s\n", after.ToString().c_str());
  std::printf("rows: %zu vs %zu %s\n", rows_before->size(), rows_after->size(),
              rows_before->size() == rows_after->size() ? "(equal — equivalence holds)"
                                                        : "(MISMATCH!)");
  return rows_before->size() == rows_after->size() ? 0 : 1;
}
