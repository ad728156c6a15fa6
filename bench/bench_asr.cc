// §5.4 — Access support relations. Two experiments from the paper:
//
//  Q  (join elimination): the 4-hop path student→…→TA folds into the
//     materialized asr(X, W); the saving grows with path fanout.
//  Q1 (join introduction): the 3-hop prefix query gains has_ta via IC9 +
//     one-to-one, enabling the ASR as an *alternate* plan.
//
// The argument sweeps enrollment (takes per student), which multiplies the
// path join's intermediate results while the ASR stays one probe wide.
// Queries use an unindexed predicate-free projection so the path cost is
// visible (the name-keyed versions are near-free either way; see
// EXPERIMENTS.md).

#include "bench/bench_common.h"
#include "bench/bench_main.h"

namespace sqo::bench {
namespace {

workload::GeneratorConfig ConfigForFanout(int64_t takes_per_student) {
  workload::GeneratorConfig config;
  config.n_students = 400;
  config.n_plain_persons = 0;
  config.n_faculty = 20;
  config.n_courses = 10;
  config.sections_per_course = 4;
  config.takes_per_student = static_cast<size_t>(takes_per_student);
  return config;
}

// The §5.4 queries without the selective name constant, so the whole path
// is exercised.
const char* kPathQuery =
    "select w from x in Student, y in x.takes, z in y.is_section_of, "
    "v in z.has_sections, w in v.has_ta";
const char* kPrefixQuery =
    "select v from x in Student, y in x.takes, z in y.is_section_of, "
    "v in z.has_sections";

void BM_Asr_PathJoin_Original(benchmark::State& state) {
  World& world = CachedWorld(static_cast<int>(state.range(0)),
                             ConfigForFanout(state.range(0)));
  auto result = world.pipeline->OptimizeText(kPathQuery, world.cost_model.get());
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
BENCHMARK(BM_Asr_PathJoin_Original)->Arg(2)->Arg(4)->Arg(8);

void BM_Asr_PathJoin_Folded(benchmark::State& state) {
  World& world = CachedWorld(static_cast<int>(state.range(0)),
                             ConfigForFanout(state.range(0)));
  auto result = world.pipeline->OptimizeText(kPathQuery, world.cost_model.get());
  if (!result.ok()) {
    state.SkipWithError(result.status().ToString().c_str());
    return;
  }
  // Pick the smallest rewriting that uses the ASR and drops the path.
  const core::Alternative* folded = nullptr;
  for (const core::Alternative& alt : result->alternatives) {
    bool has_asr = false, has_path = false;
    for (const datalog::Literal& lit : alt.datalog.body) {
      if (!lit.atom.is_predicate()) continue;
      if (lit.atom.predicate() == "asr_student_ta") has_asr = true;
      if (lit.atom.predicate() == "takes") has_path = true;
    }
    if (has_asr && !has_path &&
        (folded == nullptr ||
         alt.datalog.body.size() < folded->datalog.body.size())) {
      folded = &alt;
    }
  }
  if (folded == nullptr) {
    state.SkipWithError("ASR fold not produced");
    return;
  }
  obs::EvalStats stats;
  for (auto _ : state) {
    stats.Reset();
    auto rows = world.db->Run(folded->datalog, &stats);
    benchmark::DoNotOptimize(rows);
  }
  ExportStats(state, stats);
}
BENCHMARK(BM_Asr_PathJoin_Folded)->Arg(2)->Arg(4)->Arg(8);

void BM_Asr_JoinIntroduction_Original(benchmark::State& state) {
  World& world = CachedWorld(static_cast<int>(state.range(0)),
                             ConfigForFanout(state.range(0)));
  auto result =
      world.pipeline->OptimizeText(kPrefixQuery, world.cost_model.get());
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
BENCHMARK(BM_Asr_JoinIntroduction_Original)->Arg(2)->Arg(4)->Arg(8);

void BM_Asr_JoinIntroduction_Q1Prime(benchmark::State& state) {
  World& world = CachedWorld(static_cast<int>(state.range(0)),
                             ConfigForFanout(state.range(0)));
  auto result =
      world.pipeline->OptimizeText(kPrefixQuery, world.cost_model.get());
  if (!result.ok()) {
    state.SkipWithError(result.status().ToString().c_str());
    return;
  }
  const core::Alternative* q1_prime = nullptr;
  for (const core::Alternative& alt : result->alternatives) {
    bool has_asr = false, has_ta = false, has_path = false;
    for (const datalog::Literal& lit : alt.datalog.body) {
      if (!lit.atom.is_predicate()) continue;
      if (lit.atom.predicate() == "asr_student_ta") has_asr = true;
      if (lit.atom.predicate() == "has_ta") has_ta = true;
      if (lit.atom.predicate() == "takes") has_path = true;
    }
    if (has_asr && has_ta && !has_path) q1_prime = &alt;
  }
  if (q1_prime == nullptr) {
    state.SkipWithError("Q1' not produced");
    return;
  }
  obs::EvalStats stats;
  for (auto _ : state) {
    stats.Reset();
    auto rows = world.db->Run(q1_prime->datalog, &stats);
    benchmark::DoNotOptimize(rows);
  }
  ExportStats(state, stats);
}
BENCHMARK(BM_Asr_JoinIntroduction_Q1Prime)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace sqo::bench

SQO_BENCH_MAIN("asr");
