// §4.1 — Complexity of the optimization steps (Figure 2):
//   Step 1 (schema translation)  : linear in schema size
//   Step 2 (query translation)   : linear in query size
//   Step 3 (semantic optimization): grows with the number of applicable ICs
//   Step 4 (change mapping)      : linear in query size
//
// Each benchmark sweeps the relevant size knob so the scaling shape can be
// read off the time column.

#include <benchmark/benchmark.h>
#include "bench/bench_main.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <vector>

#include "common/context.h"
#include "datalog/parser.h"
#include "engine/database.h"
#include "engine/planner.h"
#include "obs/export.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "odl/parser.h"
#include "oql/parser.h"
#include "sqo/optimizer.h"
#include "sqo/pipeline.h"
#include "sqo/semantic_compiler.h"
#include "translate/change_mapper.h"
#include "translate/query_translator.h"
#include "translate/schema_translator.h"
#include "workload/university.h"

namespace sqo::bench {
namespace {

// ---- Step 1: schema translation, sweeping the number of classes. ----
std::string SyntheticOdl(int64_t n_classes) {
  std::string odl;
  for (int64_t i = 0; i < n_classes; ++i) {
    odl += "interface C" + std::to_string(i) +
           " { attribute long a; attribute string b; attribute double c; };\n";
  }
  return odl;
}

void BM_Step1_SchemaTranslation(benchmark::State& state) {
  auto ast = odl::ParseOdl(SyntheticOdl(state.range(0)));
  auto schema = odl::Schema::Resolve(*ast);
  for (auto _ : state) {
    auto translated = translate::TranslateSchema(*schema);
    benchmark::DoNotOptimize(translated);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Step1_SchemaTranslation)
    ->RangeMultiplier(2)
    ->Range(8, 128)
    ->Complexity(benchmark::oN);

// ---- Step 2: query translation, sweeping the length of the from chain. --
translate::TranslatedSchema& UniversitySchema() {
  static auto* schema = [] {
    auto ast = odl::ParseOdl(workload::UniversityOdl());
    auto resolved = odl::Schema::Resolve(*ast);
    return new translate::TranslatedSchema(
        std::move(translate::TranslateSchema(*resolved)).value());
  }();
  return *schema;
}

std::string ChainQuery(int64_t hops) {
  // Alternate takes / is_taken_by to build arbitrarily long chains.
  std::string from = "x0 in Student";
  for (int64_t i = 0; i < hops; ++i) {
    const bool fwd = i % 2 == 0;
    from += ", x" + std::to_string(i + 1) + " in x" + std::to_string(i) +
            (fwd ? ".takes" : ".is_taken_by");
  }
  return "select x0.name from " + from;
}

void BM_Step2_QueryTranslation(benchmark::State& state) {
  auto parsed = oql::ParseOql(ChainQuery(state.range(0)));
  for (auto _ : state) {
    auto translated = translate::TranslateQuery(UniversitySchema(), *parsed);
    benchmark::DoNotOptimize(translated);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Step2_QueryTranslation)
    ->RangeMultiplier(2)
    ->Range(2, 32)
    ->Complexity(benchmark::oN);

// ---- Step 3: optimization, sweeping the number of user ICs applicable to
// the query's relations. ----
std::string ManyIcs(int64_t n) {
  std::string ics{workload::UniversityIcs()};
  for (int64_t i = 0; i < n; ++i) {
    ics += "ICX" + std::to_string(i) + ": Salary > " + std::to_string(100 + i) +
           " <- faculty(oid: X, salary: Salary).\n";
  }
  return ics;
}

void BM_Step3_Optimization(benchmark::State& state) {
  auto pipeline = core::Pipeline::Create(workload::UniversityOdl(),
                                         ManyIcs(state.range(0)),
                                         {workload::UniversityAsr()});
  if (!pipeline.ok()) {
    state.SkipWithError(pipeline.status().ToString().c_str());
    return;
  }
  auto parsed = oql::ParseOql(
      "select x.name from x in Faculty where x.salary > 60K");
  for (auto _ : state) {
    auto result = pipeline->OptimizeParsed(*parsed);
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Step3_Optimization)
    ->RangeMultiplier(2)
    ->Range(1, 64)
    ->Complexity();

// ---- Semantic compilation (the amortized, per-schema part of Step 3). ----
void BM_Step3_SemanticCompilation(benchmark::State& state) {
  std::string ics = ManyIcs(state.range(0));
  auto parsed = datalog::ParseProgram(ics, &UniversitySchema().catalog);
  for (auto _ : state) {
    auto compiled =
        core::CompileSemantics(&UniversitySchema(), *parsed, {}, {});
    benchmark::DoNotOptimize(compiled);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Step3_SemanticCompilation)
    ->RangeMultiplier(2)
    ->Range(1, 64)
    ->Complexity(benchmark::oN);

// ---- Step 4: change mapping, sweeping query size. ----
void BM_Step4_ChangeMapping(benchmark::State& state) {
  auto parsed = oql::ParseOql(ChainQuery(state.range(0)));
  auto translated = translate::TranslateQuery(UniversitySchema(), *parsed);
  // Optimized = original plus one added restriction on the head attribute.
  datalog::Query optimized = translated->query;
  optimized.body.push_back(datalog::Literal::Pos(datalog::Atom::Comparison(
      datalog::CmpOp::kGt, translated->query.head_args[0],
      datalog::Term::String("a"))));
  translate::ChangeMapper mapper(&UniversitySchema(), &translated->map);
  for (auto _ : state) {
    auto mapped = mapper.Apply(*parsed, translated->query, optimized);
    benchmark::DoNotOptimize(mapped);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Step4_ChangeMapping)
    ->RangeMultiplier(2)
    ->Range(2, 32)
    ->Complexity(benchmark::oN);

// ---- Governance overhead: the full Step 2–4 pipeline with and without an
// installed ExecutionContext (generous deadline + budgets, so every check
// and charge runs but nothing ever trips). Arg(0) = baseline, Arg(1) =
// governed; the delta is the cost of resource governance on the happy path.
void BM_GovernanceOverhead(benchmark::State& state) {
  auto pipeline = workload::MakeUniversityPipeline();
  if (!pipeline.ok()) {
    state.SkipWithError(pipeline.status().ToString().c_str());
    return;
  }
  auto parsed = oql::ParseOql(workload::QueryScopeReduction());
  const bool governed = state.range(0) != 0;
  for (auto _ : state) {
    ExecutionContext context;
    std::optional<ScopedContext> install;
    if (governed) {
      context.SetDeadlineAfter(std::chrono::minutes(10));
      context.budgets().residue_applications = 1'000'000'000;
      context.budgets().alternatives = 1'000'000'000;
      install.emplace(&context);
    }
    auto result = pipeline->OptimizeParsed(*parsed);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(governed ? "governed" : "baseline");
}
BENCHMARK(BM_GovernanceOverhead)->Arg(0)->Arg(1);

// ---- The boundary check itself, in isolation (deadline armed). ----
void BM_GovernanceCheck(benchmark::State& state) {
  ExecutionContext context;
  context.SetDeadlineAfter(std::chrono::minutes(10));
  ScopedContext install(&context);
  for (auto _ : state) {
    Status s = CheckGovernance("bench.site");
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_GovernanceCheck);

// ---- A single work-budget charge (the per-item hot path). ----
void BM_GovernanceCharge(benchmark::State& state) {
  ExecutionContext context;
  context.SetDeadlineAfter(std::chrono::minutes(10));
  for (auto _ : state) {
    Status s = context.ChargeResidueApplications();
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_GovernanceCharge);

// ---- Rewrite-verifier overhead (per-step equivalence proofs). ----

// Certifying one full alternative set: replay every recorded derivation
// chain and discharge each step's obligation with the bounded chase.
// Arg selects the seed query (0 = scope reduction, 1 = ASR direct — the
// widest alternative set of the corpus).
void BM_VerifyAlternatives(benchmark::State& state) {
  auto pipeline = workload::MakeUniversityPipeline();
  if (!pipeline.ok()) {
    state.SkipWithError(pipeline.status().ToString().c_str());
    return;
  }
  const std::string oql = state.range(0) == 0
                              ? workload::QueryScopeReduction()
                              : workload::QueryAsrDirect();
  auto result = pipeline->OptimizeText(oql);
  if (!result.ok()) {
    state.SkipWithError(result.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto verification = pipeline->Verify(*result);
    benchmark::DoNotOptimize(verification);
  }
  state.SetLabel(state.range(0) == 0 ? "scope_reduction" : "asr_direct");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(result->alternatives.size()));
}
BENCHMARK(BM_VerifyAlternatives)->Arg(0)->Arg(1);

// Optimize-only vs optimize-then-verify on the same query: the delta is
// what post-hoc certification adds to the serving path (the cost a plan
// cache would pay once per compiled entry, not per execution).
void BM_VerifierPipelineDelta(benchmark::State& state) {
  auto pipeline = workload::MakeUniversityPipeline();
  if (!pipeline.ok()) {
    state.SkipWithError(pipeline.status().ToString().c_str());
    return;
  }
  auto parsed = oql::ParseOql(workload::QueryScopeReduction());
  const bool verified = state.range(0) != 0;
  for (auto _ : state) {
    auto result = pipeline->OptimizeParsed(*parsed);
    if (verified && result.ok()) {
      auto verification = pipeline->Verify(*result);
      benchmark::DoNotOptimize(verification);
    }
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(verified ? "optimize+verify" : "optimize");
}
BENCHMARK(BM_VerifierPipelineDelta)->Arg(0)->Arg(1);

// ---- Observability overhead (journal, profiler, exporter). ----

// Shared compiled pipeline: the database holds a pointer into its schema,
// so it must outlive every bench iteration.
core::Pipeline& UniversityBenchPipeline() {
  static auto* pipeline = new core::Pipeline(
      std::move(workload::MakeUniversityPipeline()).value());
  return *pipeline;
}

engine::Database& UniversityDb() {
  static auto* db = [] {
    auto* database = new engine::Database(&UniversityBenchPipeline().schema());
    workload::GeneratorConfig config;
    (void)workload::PopulateUniversity(config, UniversityBenchPipeline(),
                                       database);
    return database;
  }();
  return *db;
}

datalog::Query UniversityEvalQuery() {
  auto result = UniversityBenchPipeline().OptimizeText(
      "select f.name from f in Faculty where f.salary > 50000");
  return result->alternatives[result->best_index].datalog;
}

// Planning alone (engine::PlanQuery, which the cost model runs once per
// alternative and Database::Run once more for the chosen one) on the
// default database: Arg 0 plans §5.2's original query, Arg 1 its guarded
// alternative (the extent-difference rewrite), Arg 2 every alternative of
// §5.3 with the student fixed by its key. `plans` counts the plans per
// iteration.
void BM_PlanQuery(benchmark::State& state) {
  engine::Database& db = UniversityDb();
  std::vector<datalog::Query> queries;
  if (state.range(0) < 2) {
    auto result =
        UniversityBenchPipeline().OptimizeText(workload::QueryScopeReduction());
    for (const core::Alternative& alt : result->alternatives) {
      const bool guarded = std::any_of(
          alt.datalog.body.begin(), alt.datalog.body.end(),
          [](const datalog::Literal& lit) { return !lit.positive; });
      if (guarded == (state.range(0) == 1)) queries.push_back(alt.datalog);
    }
  } else {
    auto result = UniversityBenchPipeline().OptimizeText(
        workload::QueryJoinElimination() + " and s.name = \"james\"");
    for (const core::Alternative& alt : result->alternatives) {
      queries.push_back(alt.datalog);
    }
  }
  if (queries.empty()) {
    state.SkipWithError("no alternative of that shape");
    return;
  }
  for (auto _ : state) {
    for (const datalog::Query& query : queries) {
      engine::Plan plan = engine::PlanQuery(query, db.store());
      benchmark::DoNotOptimize(plan);
    }
  }
  state.counters["plans"] = static_cast<double>(queries.size());
}
BENCHMARK(BM_PlanQuery)->Arg(0)->Arg(1)->Arg(2);

// Evaluation with the operator profiler off (Arg 0) vs on (Arg 1): the
// delta is the cost of two clock reads + row accounting per join step.
void BM_ProfiledEvaluation(benchmark::State& state) {
  engine::Database& db = UniversityDb();
  const datalog::Query query = UniversityEvalQuery();
  const bool profiled = state.range(0) != 0;
  for (auto _ : state) {
    if (profiled) {
      auto run = db.ProfileQuery(query);
      benchmark::DoNotOptimize(run);
    } else {
      auto rows = db.Run(query);
      benchmark::DoNotOptimize(rows);
    }
  }
  state.SetLabel(profiled ? "profiled" : "baseline");
}
BENCHMARK(BM_ProfiledEvaluation)->Arg(0)->Arg(1);

// One journal record (the per-query serving-path cost; no I/O).
void BM_JournalRecord(benchmark::State& state) {
  obs::QueryJournal journal({.capacity = 1024, .slow_threshold_ns = 0});
  obs::QueryEvent event;
  event.fingerprint = "deadbeefdeadbeefdeadbeefdeadbeef";
  event.query = "select f.name from f in Faculty where f.salary > 50000";
  event.duration_ns = 1'000'000;
  for (auto _ : state) {
    obs::QueryEvent copy = event;
    benchmark::DoNotOptimize(journal.Record(std::move(copy)));
  }
}
BENCHMARK(BM_JournalRecord);

// Incremental JSONL flush, batched: record 64 events then flush them.
void BM_JournalFlush(benchmark::State& state) {
  const std::string path = "/tmp/sqo_bench_journal.jsonl";
  obs::QueryJournal journal({.capacity = 128, .slow_threshold_ns = 0});
  obs::QueryEvent event;
  event.query = "select f.name from f in Faculty";
  event.duration_ns = 1'000'000;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      obs::QueryEvent copy = event;
      journal.Record(std::move(copy));
    }
    Status s = journal.Flush(path);
    benchmark::DoNotOptimize(s);
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_JournalFlush);

// Rendering a realistic registry in the Prometheus text format.
void BM_PrometheusExport(benchmark::State& state) {
  obs::MetricsRegistry registry;
  for (int i = 0; i < 32; ++i) {
    registry.Add("optimizer.counter." + std::to_string(i), 1000 + i);
  }
  for (int h = 0; h < 8; ++h) {
    for (int i = 0; i < 256; ++i) {
      registry.Record("phase." + std::to_string(h), 1000 * (i + 1));
    }
  }
  for (auto _ : state) {
    std::string text = obs::ToPrometheusText(registry);
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_PrometheusExport);

// End-to-end latency distribution of the optimize+evaluate path, exported
// as latency quantile counters (latency_p50_ns / latency_p99_ns) that the
// bench regression gate checks one-sidedly.
void BM_QueryLatencyDistribution(benchmark::State& state) {
  core::Pipeline& pipeline = UniversityBenchPipeline();
  engine::Database& db = UniversityDb();
  auto parsed = oql::ParseOql(
      "select f.name from f in Faculty where f.salary > 50000");
  obs::QpsMeter meter;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto result = pipeline.OptimizeParsed(*parsed);
    if (result.ok() && !result->contradiction) {
      auto rows = db.Run(result->alternatives[result->best_index].datalog);
      benchmark::DoNotOptimize(rows);
    }
    meter.Record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  const obs::QpsMeter::Snapshot snap = meter.Summarize();
  state.counters["latency_p50_ns"] = static_cast<double>(snap.p50_ns);
  state.counters["latency_p90_ns"] = static_cast<double>(snap.p90_ns);
  state.counters["latency_p99_ns"] = static_cast<double>(snap.p99_ns);
  state.counters["qps"] = snap.qps;
}
BENCHMARK(BM_QueryLatencyDistribution);

}  // namespace
}  // namespace sqo::bench

SQO_BENCH_MAIN("pipeline_overhead");
