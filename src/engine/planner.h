#ifndef SQO_ENGINE_PLANNER_H_
#define SQO_ENGINE_PLANNER_H_

#include <string>
#include <vector>

#include "datalog/clause.h"
#include "engine/object_store.h"

namespace sqo::engine {

/// A greedy left-deep plan: the order in which the evaluator processes the
/// query's body literals, plus the cost/cardinality estimates that chose it.
struct Plan {
  /// Body literal indexes in execution order.
  std::vector<size_t> order;

  /// Estimated total work (rows touched; lower is better).
  double cost = 0.0;

  /// Estimated result cardinality.
  double cardinality = 1.0;

  /// Per-step description, for EXPLAIN-style output.
  std::vector<std::string> steps;

  /// Estimated cumulative cardinality after each step (parallel to
  /// `order`/`steps`) — the "est rows" column of EXPLAIN ANALYZE profiles.
  std::vector<double> est_rows;

  std::string ToString() const;
};

struct PlannerOptions {
  /// Unread: there is one executor and one pricing for it (hash joins for
  /// equality-bound attributes with no explicit index). Kept only so that
  /// existing `PlannerOptions{true}` call sites still compile.
  bool batch = false;
};

/// Plans a conjunctive DATALOG query against the store's statistics
/// (extent sizes, relationship fanouts, index availability). Greedy:
/// repeatedly pick the placeable literal with the lowest estimated
/// per-step cost, preferring filters as soon as their variables are bound.
///
/// Placement rules: comparisons need both sides bound; method atoms need
/// receiver and argument terms bound; negated atoms need every variable
/// they share with the rest of the query bound (their private variables
/// are anti-join wildcards).
Plan PlanQuery(const datalog::Query& query, const ObjectStore& store,
               const PlannerOptions& options);

inline Plan PlanQuery(const datalog::Query& query, const ObjectStore& store) {
  return PlanQuery(query, store, PlannerOptions{});
}

/// The excluded relation when body literal `j` is a membership guard for
/// `scan_var`, else nullptr. A guard is a negated class/structure atom over
/// that variable whose other arguments are variables occurring exactly once
/// in the whole query (head included). It is a pure extent-membership test
/// (one bit test in the store), so the scan that binds `scan_var` checks it
/// before fetching a candidate (§5.2's extent difference) and the planner
/// prices it as nearly free. The planner and the evaluator share this one
/// test.
const datalog::RelationSignature* MembershipGuard(const datalog::Query& query,
                                                  size_t j,
                                                  const std::string& scan_var,
                                                  const ObjectStore& store);

}  // namespace sqo::engine

#endif  // SQO_ENGINE_PLANNER_H_
