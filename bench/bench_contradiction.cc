// §5.1 — Contradiction detection. The paper's Example-2 query asks for
// faculty whose withheld taxes at 10% are below 1000; the derived IC3
// (faculty taxes at 10% exceed 3000) makes it unsatisfiable. Without SQO
// the engine evaluates the whole join and method pipeline to produce zero
// rows; with SQO the query is rejected at compile time in microseconds,
// independent of database size.
//
// Series: database scale (number of students) on the x-axis.
//   SqoDetect      — Step 3 detects the contradiction (no evaluation)
//   EvaluateNoSqo  — full evaluation of the unoptimized query

#include "bench/bench_common.h"
#include "bench/bench_main.h"

namespace sqo::bench {
namespace {

workload::GeneratorConfig ConfigForScale(int64_t students) {
  workload::GeneratorConfig config;
  config.n_students = static_cast<size_t>(students);
  config.n_plain_persons = static_cast<size_t>(students / 4);
  config.n_faculty = static_cast<size_t>(std::max<int64_t>(4, students / 10));
  config.n_courses = static_cast<size_t>(std::max<int64_t>(2, students / 40));
  return config;
}

// The bulk variant of the Example-2 query: no selective name constant, so
// without SQO the engine joins every student's sections to their professor
// and invokes the method — work that grows with scale. SQO rejects it in
// near-constant time.
const char* kBulkQuery =
    "select z.name from x in Student, y in x.takes, z in y.is_taught_by "
    "where z.taxes_withheld(10%) < 1000";

void BM_Contradiction_SqoDetect(benchmark::State& state) {
  World& world = CachedWorld(static_cast<int>(state.range(0)),
                             ConfigForScale(state.range(0)));
  const std::string oql = kBulkQuery;
  bool detected = false;
  for (auto _ : state) {
    auto result = world.pipeline->OptimizeText(oql);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    detected = result->contradiction;
    benchmark::DoNotOptimize(result);
  }
  state.counters["contradiction"] = detected ? 1 : 0;
}
BENCHMARK(BM_Contradiction_SqoDetect)->Arg(100)->Arg(400)->Arg(1600);

void BM_Contradiction_EvaluateNoSqo(benchmark::State& state) {
  World& world = CachedWorld(static_cast<int>(state.range(0)),
                             ConfigForScale(state.range(0)));
  auto result = world.pipeline->OptimizeText(kBulkQuery);
  if (!result.ok()) {
    state.SkipWithError(result.status().ToString().c_str());
    return;
  }
  obs::EvalStats stats;
  for (auto _ : state) {
    stats.Reset();
    auto rows = world.db->Run(result->original_datalog, &stats);
    if (!rows.ok()) state.SkipWithError(rows.status().ToString().c_str());
    benchmark::DoNotOptimize(rows);
  }
  ExportStats(state, stats);
}
BENCHMARK(BM_Contradiction_EvaluateNoSqo)->Arg(100)->Arg(400)->Arg(1600);

}  // namespace
}  // namespace sqo::bench

SQO_BENCH_MAIN("contradiction");
