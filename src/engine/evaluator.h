#ifndef SQO_ENGINE_EVALUATOR_H_
#define SQO_ENGINE_EVALUATOR_H_

#include <vector>

#include "common/status.h"
#include "datalog/clause.h"
#include "engine/object_store.h"
#include "engine/planner.h"
#include "obs/eval_stats.h"
#include "obs/profile.h"

namespace sqo::engine {

struct EvalOptions {
  /// Deduplicate result tuples (DATALOG set semantics). OQL `select`
  /// without `distinct` would use false.
  bool distinct = true;

  /// Safety valve for runaway joins in tests/benches (0 = unlimited).
  uint64_t max_tuples = 0;

  /// Worker threads for Database::ProfileAlternatives. 0 = one per
  /// hardware core (capped; see ThreadPool::DefaultSize), 1 = serial.
  /// Profiling also falls back to serial when a tracer is installed, so
  /// span parent/child ordering stays intact.
  size_t profile_threads = 0;
};

/// Evaluator for conjunctive DATALOG queries over an ObjectStore. One
/// executor runs exactly the planner's steps, depth-first over a flat
/// binding row: per-binding steps (OID lookups, index probes, traversals,
/// filters, anti-joins, method calls) stream, and steps whose candidates
/// do not depend on the binding (shared extent scans, pair scans) build
/// once and are replayed for every later binding. Fills `obs::EvalStats`
/// with the instrumentation counters the benchmarks report.
class Evaluator {
 public:
  explicit Evaluator(const ObjectStore* store, EvalOptions options = {})
      : store_(store), options_(options) {}

  /// Evaluates `query`, returning the result tuples (one row per head-arg
  /// vector). A custom literal order (a permutation of the body indexes)
  /// may be supplied; the planner then picks each step's operator in that
  /// order (PlanInOrder), otherwise it also chooses the order. `stats` may
  /// be null.
  ///
  /// When `profile` is non-null the evaluator additionally builds an
  /// operator-level profile tree (EXPLAIN ANALYZE): one node per plan
  /// step with rows in/out, per-operator timing, and the planner's
  /// estimates. Profiling costs two clock reads per join step, so it is
  /// opt-in per evaluation.
  sqo::Result<std::vector<std::vector<sqo::Value>>> Evaluate(
      const datalog::Query& query, obs::EvalStats* stats,
      const std::vector<size_t>* order = nullptr,
      obs::QueryProfile* profile = nullptr) const;

 private:
  const ObjectStore* store_;
  EvalOptions options_;
};

}  // namespace sqo::engine

#endif  // SQO_ENGINE_EVALUATOR_H_
