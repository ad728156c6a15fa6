#ifndef SQO_BENCH_BENCH_COMMON_H_
#define SQO_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "engine/cost_model.h"
#include "engine/database.h"
#include "workload/university.h"

namespace sqo::bench {

/// A compiled university pipeline plus a populated database at one
/// generator configuration. Construction is expensive, so instances are
/// cached per configuration key across benchmark iterations.
struct World {
  std::unique_ptr<core::Pipeline> pipeline;
  std::unique_ptr<engine::Database> db;
  std::unique_ptr<engine::EngineCostModel> cost_model;

  static World Make(const workload::GeneratorConfig& config,
                    core::PipelineOptions options = {}) {
    World world;
    auto pipeline = workload::MakeUniversityPipeline(options);
    if (!pipeline.ok()) {
      std::fprintf(stderr, "pipeline: %s\n", pipeline.status().ToString().c_str());
      std::abort();
    }
    world.pipeline = std::make_unique<core::Pipeline>(std::move(pipeline).value());
    world.db = std::make_unique<engine::Database>(&world.pipeline->schema());
    sqo::Status status =
        workload::PopulateUniversity(config, *world.pipeline, world.db.get());
    if (!status.ok()) {
      std::fprintf(stderr, "populate: %s\n", status.ToString().c_str());
      std::abort();
    }
    world.cost_model =
        std::make_unique<engine::EngineCostModel>(&world.db->store());
    return world;
  }
};

/// Cache of worlds keyed by an integer (typically the benchmark argument).
inline World& CachedWorld(int key, const workload::GeneratorConfig& config) {
  static auto* cache = new std::map<int, World>();
  auto it = cache->find(key);
  if (it == cache->end()) {
    it = cache->emplace(key, World::Make(config)).first;
  }
  return it->second;
}

/// Copies evaluator counters into benchmark user counters.
inline void ExportStats(benchmark::State& state, const obs::EvalStats& stats) {
  state.counters["fetched"] =
      benchmark::Counter(static_cast<double>(stats.objects_fetched));
  state.counters["traversals"] =
      benchmark::Counter(static_cast<double>(stats.relationship_traversals));
  state.counters["methods"] =
      benchmark::Counter(static_cast<double>(stats.method_invocations));
  state.counters["comparisons"] =
      benchmark::Counter(static_cast<double>(stats.comparisons));
  state.counters["results"] =
      benchmark::Counter(static_cast<double>(stats.results));
}

}  // namespace sqo::bench

#endif  // SQO_BENCH_BENCH_COMMON_H_
