#include "engine/database.h"

#include <algorithm>
#include <functional>

#include "common/context.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sqo::engine {

sqo::Status Database::CreateKeyIndexes() {
  const odl::Schema& odl_schema = schema().schema;
  for (const odl::ClassInfo& cls : odl_schema.classes()) {
    // Keys are inherited: index the declaring class and every subclass
    // relation so key probes work at any level of the hierarchy.
    const odl::ClassInfo* cur = &cls;
    while (cur != nullptr) {
      for (const std::string& key : cur->keys) {
        SQO_RETURN_IF_ERROR(
            store_.CreateIndex(schema().RelationFor(cls.name), key));
      }
      cur = cur->super.empty() ? nullptr : odl_schema.FindClass(cur->super);
    }
  }
  return sqo::Status::Ok();
}

sqo::Result<std::vector<std::vector<sqo::Value>>> Database::Run(
    const datalog::Query& query, obs::EvalStats* stats, EvalOptions options) const {
  Evaluator evaluator(&store_, options);
  return evaluator.Evaluate(query, stats);
}

sqo::Result<Database::ProfiledRun> Database::ProfileQuery(
    const datalog::Query& query, EvalOptions options) const {
  Evaluator evaluator(&store_, options);
  ProfiledRun run;
  SQO_ASSIGN_OR_RETURN(
      run.rows,
      evaluator.Evaluate(query, &run.stats, /*order=*/nullptr, &run.profile));
  return run;
}

sqo::Status Database::ProfileAlternatives(core::PipelineResult* result,
                                          EvalOptions options) const {
  if (result == nullptr || result->contradiction) return sqo::Status::Ok();
  const size_t n = result->alternatives.size();
  size_t threads = options.profile_threads == 0 ? ThreadPool::DefaultSize()
                                                : options.profile_threads;
  threads = std::min(threads, n);
  // Spans are recorded against a thread-local tracer in strict
  // parent-before-child order; profiling in parallel would scatter or drop
  // them, so an installed tracer forces the serial path.
  if (threads <= 1 || obs::CurrentTracer() != nullptr) {
    sqo::Status first_error = sqo::Status::Ok();
    Evaluator evaluator(&store_, options);
    for (core::Alternative& alt : result->alternatives) {
      alt.eval_stats.Reset();
      auto rows = evaluator.Evaluate(alt.datalog, &alt.eval_stats);
      alt.evaluated = rows.ok();
      if (!rows.ok() && first_error.ok()) first_error = rows.status();
    }
    return first_error;
  }

  ExecutionContext* parent = CurrentContext();
  obs::MetricsRegistry* caller_metrics = obs::CurrentMetrics();
  std::vector<sqo::Status> statuses(n, sqo::Status::Ok());
  std::vector<obs::MetricsRegistry> task_metrics(n);
  const Evaluator evaluator(&store_, options);

  std::vector<std::function<void()>> tasks;
  tasks.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    tasks.push_back([this, i, parent, &evaluator, result, &statuses,
                     &task_metrics] {
      core::Alternative& alt = result->alternatives[i];
      // Workers inherit governance through a private context seeded from
      // the caller's deadline and budgets (each alternative gets a full
      // budget — the serial path's cumulative charging has no meaningful
      // parallel analogue), and record metrics into a private registry.
      ExecutionContext task_context;
      if (parent != nullptr) {
        task_context.budgets() = parent->budgets();
        if (parent->has_deadline()) task_context.SetDeadline(parent->deadline());
      }
      ScopedContext context_scope(parent != nullptr ? &task_context : nullptr);
      obs::ScopedMetrics metrics_scope(&task_metrics[i]);
      alt.eval_stats.Reset();
      auto rows = evaluator.Evaluate(alt.datalog, &alt.eval_stats);
      alt.evaluated = rows.ok();
      if (!rows.ok()) statuses[i] = rows.status();
    });
  }
  ThreadPool pool(threads);
  pool.RunBatch(std::move(tasks));

  // Merge in alternative order so counter totals are deterministic.
  if (caller_metrics != nullptr) {
    for (const obs::MetricsRegistry& metrics : task_metrics) {
      caller_metrics->MergeFrom(metrics);
    }
  }
  obs::Count("profile.parallel_tasks", n);
  for (const sqo::Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return sqo::Status::Ok();
}

}  // namespace sqo::engine
