// §5.4 — Join elimination and introduction via access support relations.
//
// An ASR materializes the 4-hop path student→section→course→section→TA.
//  Q : the full-path query folds into `asr(X, W)` — join elimination.
//  Q1: the 3-hop prefix query first gains `has_ta(V, W)` from IC9 (every
//      section of a taken course has a TA) — join introduction — and the
//      prefix then folds into the ASR, giving the paper's Q1'.
//
// Run: build/examples/access_support

#include <cstdio>

#include "engine/cost_model.h"
#include "engine/database.h"
#include "workload/university.h"

namespace {

void Show(const sqo::core::Pipeline& pipeline, const sqo::engine::Database& db,
          const sqo::engine::EngineCostModel& cost_model, const char* label,
          const std::string& oql) {
  std::printf("==============  %s  ==============\n%s\n", label, oql.c_str());
  auto result_or = pipeline.OptimizeText(oql, &cost_model);
  if (!result_or.ok()) {
    std::fprintf(stderr, "%s\n", result_or.status().ToString().c_str());
    return;
  }
  const sqo::core::PipelineResult& result = *result_or;
  std::printf("\ndatalog: %s\n", result.original_datalog.ToString().c_str());
  for (size_t i = 0; i < result.alternatives.size(); ++i) {
    const sqo::core::Alternative& alt = result.alternatives[i];
    bool uses_asr = false;
    for (const sqo::datalog::Literal& lit : alt.datalog.body) {
      if (lit.atom.is_predicate() &&
          lit.atom.predicate() == "asr_student_ta") {
        uses_asr = true;
      }
    }
    if (i == 0 || uses_asr) {
      std::printf("[%zu]%s %s\n", i,
                  static_cast<int>(i) == result.best_index ? " *" : "  ",
                  alt.datalog.ToString().c_str());
      for (const std::string& step : alt.derivation) {
        std::printf("      . %s\n", step.c_str());
      }
    }
  }
  const sqo::core::Alternative& best = result.alternatives[result.best_index];
  sqo::obs::EvalStats before, after;
  auto rows_before = db.Run(result.original_datalog, &before);
  auto rows_after = db.Run(best.datalog, &after);
  if (rows_before.ok() && rows_after.ok()) {
    std::printf("\noriginal : %s\n", before.ToString().c_str());
    std::printf("best     : %s\n", after.ToString().c_str());
    std::printf("answers  : %zu vs %zu\n\n", rows_before->size(),
                rows_after->size());
  }
}

}  // namespace

int main() {
  using namespace sqo;  // NOLINT: example brevity

  auto pipeline_or = workload::MakeUniversityPipeline();
  if (!pipeline_or.ok()) {
    std::fprintf(stderr, "%s\n", pipeline_or.status().ToString().c_str());
    return 1;
  }
  const core::Pipeline& pipeline = *pipeline_or;

  std::printf("== ASR definition ==\n%s\n\n",
              pipeline.compiled().asrs.front().view.ToString().c_str());

  engine::Database db(&pipeline.schema());
  workload::GeneratorConfig config;
  config.n_students = 400;
  config.takes_per_student = 5;
  if (auto s = workload::PopulateUniversity(config, pipeline, &db); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  engine::EngineCostModel cost_model(&db.store());

  // The paper's queries (with the selective name constants).
  Show(pipeline, db, cost_model, "Q: join elimination",
       workload::QueryAsrDirect());
  Show(pipeline, db, cost_model, "Q1: join introduction",
       workload::QueryAsrIndirect());

  // Bulk variants so the traversal savings are visible in the counters.
  Show(pipeline, db, cost_model, "Q (bulk, no name filter)",
       "select w from x in Student, y in x.takes, z in y.is_section_of, "
       "v in z.has_sections, w in v.has_ta");
  return 0;
}
