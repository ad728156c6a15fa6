// §5.3 — Join reduction using key constraints. The student/TA pairing
// query joins two Faculty retrievals on the `name` attribute; the key IC
// on name lets SQO compare OIDs instead, skipping the second object
// retrieval entirely. The argument sweeps database scale (students).
//
//   Original   — join through two faculty objects on name
//   Optimized  — best SQO rewriting (OID comparison / merged variables)

#include "bench/bench_common.h"
#include "bench/bench_main.h"

namespace sqo::bench {
namespace {

workload::GeneratorConfig ConfigForScale(int64_t students) {
  workload::GeneratorConfig config;
  config.n_students = static_cast<size_t>(students);
  config.n_plain_persons = 20;
  config.n_faculty = static_cast<size_t>(std::max<int64_t>(4, students / 10));
  config.n_courses = static_cast<size_t>(std::max<int64_t>(2, students / 40));
  return config;
}

void BM_JoinElimination_Original(benchmark::State& state) {
  World& world = CachedWorld(static_cast<int>(state.range(0)),
                             ConfigForScale(state.range(0)));
  auto result = world.pipeline->OptimizeText(workload::QueryJoinElimination(),
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
BENCHMARK(BM_JoinElimination_Original)->Arg(100)->Arg(200)->Arg(400);

void BM_JoinElimination_Optimized(benchmark::State& state) {
  World& world = CachedWorld(static_cast<int>(state.range(0)),
                             ConfigForScale(state.range(0)));
  auto result = world.pipeline->OptimizeText(workload::QueryJoinElimination(),
                                             world.cost_model.get());
  if (!result.ok()) {
    state.SkipWithError(result.status().ToString().c_str());
    return;
  }
  const core::Alternative& best = result->alternatives[result->best_index];
  obs::EvalStats stats;
  for (auto _ : state) {
    stats.Reset();
    auto rows = world.db->Run(best.datalog, &stats);
    benchmark::DoNotOptimize(rows);
  }
  ExportStats(state, stats);
}
BENCHMARK(BM_JoinElimination_Optimized)->Arg(100)->Arg(200)->Arg(400);

// The time spent producing the rewritings (Step 3) — the "overhead" side of
// the §5.3 trade.
void BM_JoinElimination_SqoCompileTime(benchmark::State& state) {
  World& world = CachedWorld(100, ConfigForScale(100));
  const std::string oql = workload::QueryJoinElimination();
  for (auto _ : state) {
    auto result = world.pipeline->OptimizeText(oql, world.cost_model.get());
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_JoinElimination_SqoCompileTime);

}  // namespace
}  // namespace sqo::bench

SQO_BENCH_MAIN("join_elimination");
