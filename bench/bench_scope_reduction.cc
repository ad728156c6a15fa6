// §5.2 — Access scope reduction. "select x.name from x in Person where
// x.age < 30": IC4 + IC5 derive IC6', SQO adds `x not in Faculty`, and the
// engine evaluates Person − Faculty by extent difference before fetching
// objects. The benefit grows with the faculty fraction of the person
// extent — the argument index sweeps that fraction (percent of persons
// that are faculty).
//
//   Original   — plain person scan
//   Optimized  — guarded scan with the ¬faculty membership filter

#include "bench/bench_common.h"
#include "bench/bench_main.h"

namespace sqo::bench {
namespace {

workload::GeneratorConfig ConfigForFacultyShare(int64_t percent) {
  // Keep the person extent near 2000 while varying the faculty share.
  workload::GeneratorConfig config;
  const size_t total = 2000;
  config.n_faculty = total * static_cast<size_t>(percent) / 100;
  config.n_students = (total - config.n_faculty) / 2;
  config.n_plain_persons = total - config.n_faculty - config.n_students;
  config.n_courses = 8;
  return config;
}

const core::Alternative& BestAlternative(core::PipelineResult& result) {
  return result.alternatives[result.best_index];
}

void BM_ScopeReduction_Original(benchmark::State& state) {
  World& world = CachedWorld(static_cast<int>(state.range(0)),
                             ConfigForFacultyShare(state.range(0)));
  auto result = world.pipeline->OptimizeText(workload::QueryScopeReduction(),
                                             world.cost_model.get());
  if (!result.ok()) {
    state.SkipWithError(result.status().ToString().c_str());
    return;
  }
  obs::EvalStats stats;
  for (auto _ : state) {
    stats.Reset();
    auto rows = world.db->Run(result->original_datalog, &stats);
    benchmark::DoNotOptimize(rows);
  }
  ExportStats(state, stats);
}
BENCHMARK(BM_ScopeReduction_Original)->Arg(5)->Arg(20)->Arg(50)->Arg(80);

void BM_ScopeReduction_Optimized(benchmark::State& state) {
  World& world = CachedWorld(static_cast<int>(state.range(0)),
                             ConfigForFacultyShare(state.range(0)));
  auto result = world.pipeline->OptimizeText(workload::QueryScopeReduction(),
                                             world.cost_model.get());
  if (!result.ok()) {
    state.SkipWithError(result.status().ToString().c_str());
    return;
  }
  const core::Alternative& best = BestAlternative(*result);
  obs::EvalStats stats;
  for (auto _ : state) {
    stats.Reset();
    auto rows = world.db->Run(best.datalog, &stats);
    benchmark::DoNotOptimize(rows);
  }
  ExportStats(state, stats);
  state.counters["scope_reduced"] =
      best.datalog.body.size() > result->original_datalog.body.size() ? 1 : 0;
}
BENCHMARK(BM_ScopeReduction_Optimized)->Arg(5)->Arg(20)->Arg(50)->Arg(80);

}  // namespace
}  // namespace sqo::bench

SQO_BENCH_MAIN("scope_reduction");
