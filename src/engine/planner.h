#ifndef SQO_ENGINE_PLANNER_H_
#define SQO_ENGINE_PLANNER_H_

#include <string>
#include <vector>

#include "datalog/clause.h"
#include "engine/object_store.h"

namespace sqo::engine {

/// The operator that evaluates one plan step. The planner decides it; the
/// executor runs exactly it, and `\plan`, the cost model and the profile's
/// `detail` column all describe it.
enum class StepKind : uint8_t {
  kFilter,           // comparison over bound terms
  kOidLookup,        // class atom with its OID bound: one slot fetch
  kIndexProbe,       // class atom with attribute `key` bound: hash-index probe
  kExtentScan,       // class atom, nothing bound, before any other access
  kSharedScan,       // same after an earlier access: one scan, replayed
  kTraverse,         // relationship/ASR atom with its source bound
  kReverseTraverse,  // ... with its target bound
  kEdgeCheck,        // ... with both ends bound
  kPairScan,         // ... with neither end bound: one pass, replayed
  kInvoke,           // method atom
  kAntiJoin,         // negated atom: an existence check per binding
  kConsumedGuard,    // negated membership guard checked inside its scan
  kUnknownRelation,  // a predicate the catalog lacks (fails when run)
};

/// One step of a plan: which body literal runs, and how.
struct PlanStep {
  StepKind kind = StepKind::kFilter;
  size_t literal = 0;  // index into the query body
  datalog::RelationId relation = datalog::kNoRelation;
  /// kIndexProbe: the attribute position probed.
  size_t key = 0;
  /// Class-atom steps that bind their OID: plan positions of the
  /// membership guards (kConsumedGuard steps) this step checks before
  /// fetching a candidate (§5.2's extent difference).
  std::vector<size_t> guards;
  /// Estimated cumulative cardinality after this step — the "est rows"
  /// column of EXPLAIN ANALYZE profiles.
  double est_rows = 1.0;
};

/// A greedy left-deep plan: the order in which the evaluator processes the
/// query's body literals, the operator of each, and the cost/cardinality
/// estimates that chose them.
struct Plan {
  std::vector<PlanStep> steps;

  /// Estimated total work (rows touched; lower is better).
  double cost = 0.0;

  /// Estimated result cardinality.
  double cardinality = 1.0;

  /// Step `k` as EXPLAIN text ("index probe student.age").
  std::string StepText(size_t k, const datalog::Query& query,
                       const datalog::RelationCatalog& catalog) const;

  /// Every step, numbered, under a cost/cardinality header.
  std::string ToString(const datalog::Query& query,
                       const datalog::RelationCatalog& catalog) const;
};

/// Unread: there is one executor and one pricing for it. Kept only so
/// that existing `PlannerOptions{true}` call sites still compile.
struct PlannerOptions {
  bool batch = false;
};

/// Plans a conjunctive DATALOG query against the store's statistics
/// (extent sizes, relationship fanouts, declared indexes). Greedy:
/// repeatedly pick the placeable literal with the lowest estimated
/// per-step cost, preferring filters as soon as their variables are bound.
///
/// Placement rules: comparisons need both sides bound; method atoms need
/// receiver and argument terms bound; negated atoms need every variable
/// they share with the rest of the query bound (their private variables
/// are anti-join wildcards).
///
/// Access paths: a class atom with a bound OID is an OID lookup; with a
/// bound attribute, a probe of that attribute's hash index (a declared
/// index when one serves a bound attribute, else the adaptive index of the
/// first bound attribute, built on first probe); with neither, a scan. A
/// negated class atom over a variable that a scan binds, whose other
/// arguments occur nowhere else, is a membership guard that scan checks.
Plan PlanQuery(const datalog::Query& query, const ObjectStore& store,
               const PlannerOptions& options);

inline Plan PlanQuery(const datalog::Query& query, const ObjectStore& store) {
  return PlanQuery(query, store, PlannerOptions{});
}

/// Plans the literals in the caller's `order` (a permutation of the body
/// indexes) with the same operator choice and pricing as PlanQuery.
Plan PlanInOrder(const datalog::Query& query, const ObjectStore& store,
                 const std::vector<size_t>& order);

}  // namespace sqo::engine

#endif  // SQO_ENGINE_PLANNER_H_
