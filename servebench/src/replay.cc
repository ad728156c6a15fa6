#include <atomic>
#include <thread>

#include "analysis/analyzer.h"
#include "bench.h"
#include "engine/cost_model.h"
#include "engine/planner.h"
#include "obs/metrics.h"
#include "oql/parser.h"
#include "sqo/optimizer.h"
#include "translate/change_mapper.h"
#include "translate/query_translator.h"

namespace servebench {

void LayerCounters::Merge(const LayerCounters& o) {
  reads += o.reads;
  alternatives += o.alternatives;
  cost_calls += o.cost_calls;
  residues_tried += o.residues_tried;
  residue_hits += o.residue_hits;
  index_probes += o.index_probes;
  fetched += o.fetched;
  results += o.results;
  traversals += o.traversals;
  decomposed += o.decomposed;
  fetched_chosen += o.fetched_chosen;
  fetched_alt0 += o.fetched_alt0;
}

namespace {

/// EngineCostModel with a `sqo.cost` span and a call count around every
/// estimate; handed to Pipeline::OptimizeParsed, so the spans nest inside
/// `sqo.optimize`.
class TimingCostModel : public sqo::core::CostModel {
 public:
  TimingCostModel(const sqo::engine::ObjectStore* store, Tracer* tracer)
      : inner_(store), tracer_(tracer) {}

  double EstimateCost(const sqo::datalog::Query& query) const override {
    SpanScope span(tracer_, "sqo.cost");
    ++calls_;
    return inner_.EstimateCost(query);
  }

  uint64_t calls() const { return calls_; }

 private:
  sqo::engine::EngineCostModel inner_;
  Tracer* tracer_;
  mutable uint64_t calls_ = 0;
};

struct DirectRead {
  sqo::server::EpochStore::SnapshotRef snapshot;
  sqo::oql::SelectQuery parsed;
  sqo::core::PipelineResult optimized;
  Rows rows;
  sqo::obs::EvalStats stats;  // of the chosen alternative
};

/// The server's read path (Server::ExecuteQuery) replayed through public
/// functions: pin an epoch, parse, optimize with the engine's cost model,
/// evaluate the cheapest alternative.
sqo::Status ReadDirect(const Env& env, const std::string& text, Tracer* tracer,
                       uint64_t request, LayerCounters* layers, DirectRead* out) {
  SpanScope read(tracer, "read", request);
  sqo::obs::MetricsRegistry registry;
  std::optional<sqo::obs::ScopedMetrics> counting;
  if (layers != nullptr) counting.emplace(&registry);
  {
    SpanScope span(tracer, "server.pin");
    out->snapshot = env.server->epochs().Pin();
  }
  if (out->snapshot == nullptr) return sqo::InternalError("no published epoch");
  {
    SpanScope span(tracer, "oql.parse");
    SQO_ASSIGN_OR_RETURN(out->parsed, sqo::oql::ParseOql(text));
  }
  TimingCostModel cost(&out->snapshot->db().store(), tracer);
  {
    SpanScope span(tracer, "sqo.optimize");
    SQO_ASSIGN_OR_RETURN(out->optimized,
                         env.pipeline->OptimizeParsed(out->parsed, &cost));
  }
  const sqo::obs::EvalStats& stats = out->stats;
  if (!out->optimized.contradiction) {
    SpanScope span(tracer, "engine.eval");
    const sqo::core::Alternative& best =
        out->optimized.alternatives[out->optimized.best_index];
    SQO_ASSIGN_OR_RETURN(out->rows, out->snapshot->db().Run(best.datalog, &out->stats));
  }
  if (layers != nullptr) {
    ++layers->reads;
    layers->alternatives += out->optimized.alternatives.size();
    layers->cost_calls += cost.calls();
    layers->residues_tried += registry.CounterValue("optimizer.residues_tried");
    layers->residue_hits += registry.CounterValue("optimizer.residue_hits");
    layers->index_probes += registry.CounterValue("index.probes");
    layers->fetched += stats.objects_fetched;
    layers->results += stats.results;
    layers->traversals += stats.relationship_traversals;
  }
  return sqo::Status::Ok();
}

/// Steps 2-4 and planning of one (already served) read, each through its
/// own module's public function, under a `decompose` root: these layers
/// run inside OptimizeParsed / Database::Run, where the benchmark cannot
/// place spans. Also evaluates alternative 0 to count the objects SQO
/// saved.
sqo::Status Decompose(const Env& env, const DirectRead& read, Tracer* tracer,
                      uint64_t request, LayerCounters* layers) {
  SpanScope root(tracer, "decompose", request);
  const sqo::core::Pipeline& pipeline = *env.pipeline;
  sqo::translate::TranslatedQuery translated;
  {
    SpanScope span(tracer, "translate.query");
    SQO_ASSIGN_OR_RETURN(translated,
                         sqo::translate::TranslateQuery(pipeline.schema(), read.parsed));
  }
  {
    SpanScope span(tracer, "analysis.lint");
    sqo::analysis::AnalyzeQuery(pipeline.schema(), translated.query,
                                pipeline.options().analyzer);
  }
  sqo::core::OptimizationOutcome outcome;
  {
    SpanScope span(tracer, "sqo.step3");
    sqo::core::Optimizer optimizer(&pipeline.compiled(), pipeline.options().optimizer);
    SQO_ASSIGN_OR_RETURN(outcome, optimizer.Optimize(translated.query));
  }
  sqo::translate::ChangeMapper mapper(&pipeline.schema(), &translated.map);
  for (const sqo::core::Rewriting& rewriting : outcome.equivalents) {
    if (rewriting.derivation.empty()) continue;  // the original: identity
    SpanScope span(tracer, "translate.map_changes");
    (void)mapper.Apply(read.parsed, translated.query, rewriting.query);
  }
  const sqo::engine::ObjectStore& store = read.snapshot->db().store();
  const sqo::core::PipelineResult& optimized = read.optimized;
  {
    SpanScope span(tracer, "engine.plan");
    (void)sqo::engine::PlanQuery(
        optimized.alternatives[optimized.best_index].datalog, store,
        sqo::engine::PlannerOptions{true});
  }
  sqo::obs::EvalStats alt0;
  SQO_RETURN_IF_ERROR(
      read.snapshot->db().Run(optimized.alternatives[0].datalog, &alt0).status());
  ++layers->decomposed;
  layers->fetched_chosen += read.stats.objects_fetched;
  layers->fetched_alt0 += alt0.objects_fetched;
  return sqo::Status::Ok();
}

}  // namespace

ReplayResult Replay(Env& env, const ReadMix& mix, const Oracle& oracle,
                    size_t threads, double seconds, uint64_t seed,
                    ReplayMode mode, Tracer* tracer) {
  std::vector<ReplayResult> parts(threads);
  std::atomic<uint64_t> next_request{1};
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  {
    std::vector<std::jthread> clients;
    for (size_t i = 0; i < threads; ++i) {
      clients.emplace_back([&, i] {
        std::mt19937_64 rng(seed * 31337 + i);
        uint64_t cursor = i;
        ReplayResult& part = parts[i];
        for (uint64_t k = 0; Clock::now() < end; ++k) {
          const std::string& text = mix.Next(rng, &cursor);
          // kTraced reads each text twice, once under spans and once
          // without, alternating which goes first (the second finds the
          // first's data in cache); the pair's ratio is the tracing cost.
          const int passes = mode == ReplayMode::kTraced ? 2 : 1;
          double traced_us = 0, plain_us = 0;
          for (int j = 0; j < passes; ++j) {
            const bool traced = mode == ReplayMode::kTraced && (k + j) % 2 == 0;
            const uint64_t request = next_request.fetch_add(1);
            DirectRead read;
            const Clock::time_point t0 = Clock::now();
            sqo::Status status =
                ReadDirect(env, text, traced ? tracer : nullptr, request,
                           traced ? &part.layers : nullptr, &read);
            const Clock::time_point t1 = Clock::now();
            ++part.tally.attempted;
            ++part.tally.reads;
            if (status.ok() && mode == ReplayMode::kDecompose) {
              status = Decompose(env, read, tracer, request, &part.layers);
            }
            if (!status.ok()) {
              ++part.tally.errors;
              continue;
            }
            (traced ? traced_us : plain_us) = MicrosBetween(t0, t1);
            if (!oracle.Check(text, read.rows)) ++part.tally.wrong;
          }
          if (traced_us > 0 && plain_us > 0) {
            part.overhead_ratios.push_back(traced_us / plain_us);
          }
        }
      });
    }
  }
  ReplayResult result;
  for (const ReplayResult& part : parts) {
    result.tally.Merge(part.tally);
    result.layers.Merge(part.layers);
    result.overhead_ratios.insert(result.overhead_ratios.end(),
                                  part.overhead_ratios.begin(),
                                  part.overhead_ratios.end());
  }
  return result;
}

double ServerOverheadUs(Env& env, const ReadMix& mix, const Oracle& oracle,
                        double seconds, Tally* tally) {
  std::shared_ptr<sqo::server::Session> session = env.server->OpenSession("idle");
  std::vector<double> served, direct;
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (size_t i = 0; Clock::now() < end || i < 20; ++i) {
    const std::string& text = mix.distinct()[i % mix.distinct().size()];
    // Alternate which path goes first: the second finds the data the
    // first just touched in cache.
    sqo::server::QueryResponse r;
    DirectRead read;
    sqo::Status status;
    for (int k = 0; k < 2; ++k) {
      const Clock::time_point t0 = Clock::now();
      if ((i + k) % 2 == 0) {
        r = session->Query(text);
        served.push_back(MicrosBetween(t0, Clock::now()));
      } else {
        status = ReadDirect(env, text, nullptr, 0, nullptr, &read);
        direct.push_back(MicrosBetween(t0, Clock::now()));
      }
    }
    tally->attempted += 2;
    tally->reads += 2;
    if (!r.status.ok() || !status.ok()) {
      tally->errors += (r.status.ok() ? 0 : 1) + (status.ok() ? 0 : 1);
      continue;
    }
    if (!oracle.Check(text, r.rows)) ++tally->wrong;
    if (!oracle.Check(text, read.rows)) ++tally->wrong;
  }
  return Median(served) - Median(direct);
}

}  // namespace servebench
