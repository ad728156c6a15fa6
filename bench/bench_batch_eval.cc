// Evaluator experiments on the university workload:
//
//  AgeJoin      equi-join students ⋈ TAs on the shared `age` attribute:
//               the TA step probes the adaptive index on `ta.age` (built
//               by the first probe) for every student binding, instead of
//               re-scanning the TA extent per binding.
//  PathJoin     the §5.4 four-hop student→TA path under default options —
//               relationship traversals dominate, so nothing amortizes and
//               every step streams per binding.
//  RangeScan    a two-sided age range over 10k students (the read shape of
//               servebench's scan_large): one extent scan whose cost is the
//               executor's fetch path — a slot index, a membership bit and
//               an in-place unify per student. Exports only `fetched` and
//               `results`; both are deterministic, so the regression gate
//               checks its time one-sidedly and no time-derived counter
//               can flap.
//  MutationMix  interleaves attribute updates + relationship churn with a
//               selection served by the adaptive index.
//               Exports `full_rebuilds` and `delta_applies` (index delta
//               applies per attribute update, ~1) measured after a warmup
//               query has built the index: delta maintenance keeps
//               `full_rebuilds` at 0 where clear-on-write invalidation
//               used to rebuild on every iteration.
//
// The `_Batch` suffix of the run names is historical (runs are matched by
// name against the committed BENCH_pipeline.json). Every variant but
// RangeScan exports qps plus p50/p95/p99 per-query latency (µs), measured
// manually per iteration (google-benchmark aggregates alone cannot express
// tail quantiles).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_main.h"
#include "datalog/parser.h"
#include "obs/metrics.h"

namespace sqo::bench {
namespace {

workload::GeneratorConfig JoinConfig() {
  workload::GeneratorConfig config;
  config.n_students = 300;
  config.n_plain_persons = 50;
  config.n_faculty = 20;
  config.n_courses = 10;
  config.sections_per_course = 4;
  config.takes_per_student = 3;
  return config;
}

workload::GeneratorConfig ScanConfig() {
  workload::GeneratorConfig config;
  config.n_students = 10'000;
  config.n_plain_persons = 100;
  config.n_faculty = 20;
  config.n_courses = 10;
  config.takes_per_student = 1;
  return config;
}

datalog::Query MustParse(World& world, const char* text) {
  auto query =
      datalog::ParseQueryText(text, &world.pipeline->schema().catalog);
  if (!query.ok()) {
    std::fprintf(stderr, "query: %s\n", query.status().ToString().c_str());
    std::abort();
  }
  return *std::move(query);
}

// Students joined to TAs on age: the second atom has a bound attribute and
// no declared index, so it probes the adaptive index per student binding.
const char* kAgeJoinQuery =
    "q(X, Y) :- student(oid: X, age: A), ta(oid: Y, age: A).";

// §5.4 path query without the selective name constant (pure traversals).
const char* kPathQuery =
    "q(X, W) :- student(oid: X), takes(X, Y), is_section_of(Y, Z), "
    "has_sections(Z, V), has_ta(V, W).";

// Two-sided range over the Student extent: no index serves it, so every
// student is fetched and about 4% are returned.
const char* kRangeScanQuery =
    "q(N) :- student(oid: X, name: N, age: A), A > 20, A < 24.";

// Selection on an unkeyed attribute over a large extent — served by the
// adaptive index once warm.
const char* kIndexedSelection =
    "q(X) :- student(oid: X, age: A), A = 21.";

/// Runs `query` repeatedly, exporting qps and per-query latency
/// quantiles. Aborts the benchmark on evaluation error.
void RunQueryBench(benchmark::State& state, World& world,
                   const datalog::Query& query) {
  obs::EvalStats stats;
  std::vector<int64_t> latencies_ns;
  for (auto _ : state) {
    stats.Reset();
    const auto start = std::chrono::steady_clock::now();
    auto rows = world.db->Run(query, &stats);
    const auto stop = std::chrono::steady_clock::now();
    if (!rows.ok()) {
      state.SkipWithError(rows.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(rows);
    latencies_ns.push_back(
        std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
            .count());
  }
  ExportStats(state, stats);
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  if (!latencies_ns.empty()) {
    std::sort(latencies_ns.begin(), latencies_ns.end());
    auto quantile = [&](double q) {
      const size_t rank = static_cast<size_t>(
          q * static_cast<double>(latencies_ns.size() - 1));
      return static_cast<double>(latencies_ns[rank]);
    };
    state.counters["latency_p50_ns"] = benchmark::Counter(quantile(0.50));
    state.counters["latency_p95_ns"] = benchmark::Counter(quantile(0.95));
    state.counters["latency_p99_ns"] = benchmark::Counter(quantile(0.99));
  }
}

void BM_BatchEval_AgeJoin_Batch(benchmark::State& state) {
  World& world = CachedWorld(0, JoinConfig());
  RunQueryBench(state, world, MustParse(world, kAgeJoinQuery));
}
BENCHMARK(BM_BatchEval_AgeJoin_Batch);

void BM_BatchEval_PathJoin_Batch(benchmark::State& state) {
  World& world = CachedWorld(0, JoinConfig());
  RunQueryBench(state, world, MustParse(world, kPathQuery));
}
BENCHMARK(BM_BatchEval_PathJoin_Batch);

void BM_BatchEval_RangeScan(benchmark::State& state) {
  World& world = CachedWorld(1, ScanConfig());
  const datalog::Query query = MustParse(world, kRangeScanQuery);
  obs::EvalStats stats;
  for (auto _ : state) {
    stats.Reset();
    auto rows = world.db->Run(query, &stats);
    if (!rows.ok()) {
      state.SkipWithError(rows.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(rows);
  }
  state.counters["fetched"] =
      benchmark::Counter(static_cast<double>(stats.objects_fetched));
  state.counters["results"] =
      benchmark::Counter(static_cast<double>(stats.results));
}
BENCHMARK(BM_BatchEval_RangeScan);

/// Mutation-heavy mix: each iteration updates one student's age, toggles
/// one `takes` pair, and runs the indexed selection. A warmup query before
/// the timed loop builds the adaptive index; the exported counters then show
/// whether mutations delta-apply (`delta_applies` per age update stays ~1,
/// `full_rebuilds` stays 0) or invalidate (`full_rebuilds` grows with every
/// iteration). Both are independent of how many iterations the host's
/// speed allows.
void BM_BatchEval_MutationMix_Batch(benchmark::State& state) {
  // Private world: this bench mutates the store.
  static World* private_world = new World(World::Make(JoinConfig()));
  World& world = *private_world;
  const datalog::Query selection = MustParse(world, kIndexedSelection);
  const datalog::Query students = MustParse(world, "q(X) :- student(oid: X).");

  auto oid_rows = world.db->Run(students);
  if (!oid_rows.ok() || oid_rows->empty()) {
    state.SkipWithError("no students");
    return;
  }
  std::vector<sqo::Oid> oids;
  for (const auto& row : *oid_rows) oids.push_back(row[0].AsOid());

  // Warmup: the first selection builds the adaptive age index.
  if (auto warm = world.db->Run(selection); !warm.ok()) {
    state.SkipWithError(warm.status().ToString().c_str());
    return;
  }

  obs::MetricsRegistry metrics;
  obs::ScopedMetrics scoped(&metrics);
  obs::EvalStats stats;
  std::vector<int64_t> latencies_ns;
  size_t tick = 0;
  for (auto _ : state) {
    engine::ObjectStore& store = world.db->store();
    const sqo::Oid victim = oids[tick % oids.size()];
    (void)store.UpdateAttribute(
        victim, "age", sqo::Value::Int(18 + static_cast<int64_t>(tick % 40)));
    // Churn a relationship pair so ASR/pair maintenance runs too.
    const sqo::Oid other = oids[(tick + 1) % oids.size()];
    const auto& neighbors = store.Neighbors("takes", other);
    if (!neighbors.empty()) {
      const sqo::Oid section = neighbors[0];
      (void)store.Unrelate("takes", other, section);
      (void)store.Relate("takes", other, section);
    }
    ++tick;

    stats.Reset();
    const auto start = std::chrono::steady_clock::now();
    auto rows = world.db->Run(selection, &stats);
    const auto stop = std::chrono::steady_clock::now();
    if (!rows.ok()) {
      state.SkipWithError(rows.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(rows);
    latencies_ns.push_back(
        std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
            .count());
  }
  ExportStats(state, stats);
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  if (!latencies_ns.empty()) {
    std::sort(latencies_ns.begin(), latencies_ns.end());
    auto quantile = [&](double q) {
      const size_t rank = static_cast<size_t>(
          q * static_cast<double>(latencies_ns.size() - 1));
      return static_cast<double>(latencies_ns[rank]);
    };
    state.counters["latency_p50_ns"] = benchmark::Counter(quantile(0.50));
    state.counters["latency_p95_ns"] = benchmark::Counter(quantile(0.95));
    state.counters["latency_p99_ns"] = benchmark::Counter(quantile(0.99));
  }
  state.counters["full_rebuilds"] = benchmark::Counter(static_cast<double>(
      metrics.CounterValue("index.full_rebuilds")));
  // Per age update: the relationship churn touches no secondary index.
  state.counters["delta_applies"] = benchmark::Counter(
      static_cast<double>(metrics.CounterValue("index.delta_applies")) /
      static_cast<double>(std::max<size_t>(tick, 1)));
}

BENCHMARK(BM_BatchEval_MutationMix_Batch);

}  // namespace
}  // namespace sqo::bench

SQO_BENCH_MAIN("batch_eval");
