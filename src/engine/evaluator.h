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

  /// Probe the store's lazily built secondary hash indexes
  /// (ObjectStore::LazyIndexLookup) for equality-bound attributes that have
  /// no explicit index, instead of scanning the full extent. Off switches
  /// every selection back to linear scans (the differential tests compare
  /// the two paths).
  bool auto_index = true;

  /// Extents smaller than this are scanned rather than auto-indexed — for
  /// a handful of rows the scan is cheaper than building the hash table.
  size_t auto_index_min_extent = 16;

  /// Worker threads for Database::ProfileAlternatives. 0 = one per
  /// hardware core (capped; see ThreadPool::DefaultSize), 1 = serial.
  /// Profiling also falls back to serial when a tracer is installed, so
  /// span parent/child ordering stays intact.
  size_t profile_threads = 0;
};

/// Evaluator for conjunctive DATALOG queries over an ObjectStore, ordered
/// by the greedy planner. One executor runs every plan depth-first over a
/// flat binding row: per-binding steps (OID lookups, index probes,
/// traversals, filters, anti-joins, method calls) stream, and steps whose
/// candidates do not depend on the binding (hash joins, shared extent and
/// pair scans) build once and are probed by every later binding. Fills
/// `obs::EvalStats` with the instrumentation counters the benchmarks
/// report.
class Evaluator {
 public:
  explicit Evaluator(const ObjectStore* store, EvalOptions options = {})
      : store_(store), options_(options) {}

  /// Evaluates `query`, returning the result tuples (one row per head-arg
  /// vector). A custom literal order may be supplied; otherwise the
  /// planner chooses. `stats` may be null.
  ///
  /// When `profile` is non-null the evaluator additionally builds an
  /// operator-level profile tree (EXPLAIN ANALYZE): one node per plan
  /// step with rows in/out, per-operator timing, and the planner's
  /// estimates when the planner chose the order. Profiling costs two
  /// clock reads per join step, so it is opt-in per evaluation.
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
