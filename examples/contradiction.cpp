// §5.1 — Contradiction detection (paper Example 2 + IC3 derivation).
//
// The query asks for professors of john's sections whose withheld taxes at
// a 10% rate are under 1000. The knowledge base contains:
//   IC1: faculty salaries exceed 40K
//   monotone(taxes_withheld, salary, increasing)   — the paper's IC2
//   point(taxes_withheld, 30K, 10%, 3000)          — the paper's fact
// Inference derives IC3 (faculty taxes at 10% exceed 3000); the residue of
// IC3 attaches to taxes_withheld; applying it to the query adds V > 3000,
// which contradicts V < 1000 — the query need not be evaluated at all.
//
// Run: build/examples/contradiction

#include <cstdio>
#include <cstdlib>

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

  // Show the derived constraint the optimization hinges on.
  std::printf("== Derived integrity constraints ==\n");
  for (const datalog::Clause& ic : pipeline.compiled().all_ics) {
    if (ic.label.rfind("derived:method_bound", 0) == 0) {
      std::printf("  [%s]\n  %s\n", ic.label.c_str(), ic.ToString().c_str());
    }
  }

  const std::string oql = workload::QueryExample2();
  std::printf("\n== Input OQL (paper Example 2) ==\n%s\n", oql.c_str());

  auto result_or = pipeline.OptimizeText(oql);
  if (!result_or.ok()) {
    std::fprintf(stderr, "%s\n", result_or.status().ToString().c_str());
    return 1;
  }
  const core::PipelineResult& result = *result_or;

  std::printf("\n== DATALOG (Step 2) ==\n%s\n",
              result.original_datalog.ToString().c_str());

  if (!result.contradiction) {
    std::printf("\nexpected a contradiction but none was found\n");
    return 1;
  }
  std::printf("\n== Step 3 verdict ==\nCONTRADICTION: %s\n",
              result.contradiction_reason.c_str());
  std::printf("witness query (with the implied restriction):\n%s\n",
              result.contradiction_witness.ToString().c_str());

  // Cross-check against a real database: the answer set is indeed empty,
  // and computing that the hard way does real work.
  engine::Database db(&pipeline.schema());
  workload::GeneratorConfig config;
  if (auto s = workload::PopulateUniversity(config, pipeline, &db); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  obs::EvalStats stats;
  auto rows = db.Run(result.original_datalog, &stats);
  if (!rows.ok()) {
    std::fprintf(stderr, "%s\n", rows.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "\n== Brute-force cross-check ==\nrows=%zu (empty as predicted); "
      "work done without SQO: %s\n",
      rows->size(), stats.ToString().c_str());
  return 0;
}
