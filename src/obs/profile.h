#ifndef SQO_OBS_PROFILE_H_
#define SQO_OBS_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/eval_stats.h"

namespace sqo::obs {

/// One operator of an evaluated plan: a scan, index probe, traversal,
/// filter, anti-join, method invocation, membership guard, or the final
/// emit/dedup step. Nodes form a tree via `parent` (-1 = root): the
/// left-deep pipeline is a chain (each operator's successor is its child),
/// and membership guards consumed by a scan hang off that scan node.
struct ProfileNode {
  int id = 0;
  int parent = -1;

  /// Operator kind, recorded by the executor branch that ran it — one per
  /// planner step kind: "filter", "oid-lookup", "index-probe" (declared or
  /// adaptive hash index), "extent-scan", "shared-scan" (one scan replayed
  /// for every binding), "traverse", "reverse-traverse", "edge-check",
  /// "pair-scan", "invoke", "anti-join", "guard" (a membership guard
  /// checked inside its scan), plus the final "emit". Empty when the
  /// operator was planned but never executed (an upstream step produced no
  /// bindings).
  std::string op;

  /// Relation (or attribute for probes) the operator touches; the literal
  /// text for filters.
  std::string relation;

  /// The planner's text for this step ("index probe faculty.name").
  std::string detail;

  /// Which residue/IC introduced this literal, filled by
  /// `core::AnnotateProfile`: "original" for literals of the input query,
  /// otherwise the derivation step (with its `[IC]` label) that added it.
  std::string attribution;

  /// Index of the body literal this operator evaluates; -1 for synthetic
  /// nodes (emit).
  int literal_index = -1;

  /// Bindings that reached this operator / bindings it passed downstream.
  /// For the emit node: tuples emitted / distinct results.
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;

  /// Planner-estimated rows out (cumulative cardinality after this step);
  /// < 0 when no estimate is available. EXPLAIN ANALYZE's est-vs-actual.
  double est_rows = -1.0;

  /// Inclusive wall time (this operator plus everything downstream of it,
  /// summed over invocations) and exclusive self time.
  int64_t total_ns = 0;
  int64_t self_ns = 0;

  bool index_used = false;
};

/// Operator-level profile of one query evaluation (EXPLAIN ANALYZE). Built
/// by the evaluator when a profile sink is supplied; pure data here so the
/// obs layer stays engine-free.
struct QueryProfile {
  std::vector<ProfileNode> nodes;  // parents precede children

  /// End-to-end evaluation time (plan + execute).
  int64_t total_ns = 0;

  /// Planner's whole-plan estimates (when the planner chose the order).
  double planned_cost = -1.0;
  double planned_rows = -1.0;

  /// Evaluator counters of the same run, for cross-checking node totals.
  EvalStats stats;

  /// Original-query literals the chosen rewriting eliminated, with the
  /// derivation step that removed them (filled by core::AnnotateProfile).
  std::vector<std::string> eliminated;

  /// Recomputes every node's `self_ns` as `total_ns` minus the inclusive
  /// time of its children (clamped at 0). Call after the tree is complete.
  void FinalizeSelfTimes();

  /// Indented operator tree with rows/timing per node — the `\profile`
  /// rendering.
  std::string ToText() const;

  /// `{"total_ns":..,"planned_cost":..,"planned_rows":..,"stats":{...},
  ///   "eliminated":[...],"nodes":[{...},...]}`.
  std::string ToJson() const;
};

}  // namespace sqo::obs

#endif  // SQO_OBS_PROFILE_H_
