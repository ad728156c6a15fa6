#include "engine/planner.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/context.h"
#include "common/failpoint.h"
#include "common/strings.h"
#include "obs/trace.h"

namespace sqo::engine {

using datalog::Literal;
using datalog::Query;
using datalog::RelationKind;
using datalog::RelationSignature;
using datalog::Term;

namespace {

constexpr double kEqSelectivity = 0.1;
constexpr double kIneqSelectivity = 0.5;
constexpr double kNegSelectivity = 0.8;
constexpr double kDefaultFanout = 4.0;

std::set<std::string> TermVars(const Literal& lit) {
  std::vector<std::string> v;
  lit.atom.CollectVariables(&v);
  return std::set<std::string>(v.begin(), v.end());
}

bool TermBound(const Term& t, const std::set<std::string>& bound) {
  return t.is_constant() || bound.count(t.var_name()) > 0;
}

/// Per-step estimate: expected rows produced per input binding (fanout)
/// and work per input binding (cost).
struct StepEstimate {
  bool placeable = false;
  double fanout = 1.0;
  double cost = 1.0;
  std::string description;
};

StepEstimate EstimateLiteral(const Literal& lit, const Query& query, size_t index,
                             const std::set<std::string>& bound,
                             const ObjectStore& store, double card) {
  StepEstimate est;
  const auto& atom = lit.atom;

  if (atom.is_comparison()) {
    if (!TermBound(atom.lhs(), bound) || !TermBound(atom.rhs(), bound)) return est;
    est.placeable = true;
    est.cost = 0.01;
    if (atom.lhs() == atom.rhs()) {
      // Reflexive comparison: never filters (X = X), or always filters
      // (X != X, X < X).
      est.fanout = (atom.op() == datalog::CmpOp::kEq ||
                    atom.op() == datalog::CmpOp::kLe ||
                    atom.op() == datalog::CmpOp::kGe)
                       ? 1.0
                       : 0.0001;
    } else {
      est.fanout =
          atom.op() == datalog::CmpOp::kEq ? kEqSelectivity : kIneqSelectivity;
    }
    est.description = "filter " + atom.ToString();
    return est;
  }

  const RelationSignature* sig = store.schema().catalog.Find(atom.predicate());
  if (sig == nullptr || sig->arity() != atom.arity()) return est;

  if (!lit.positive) {
    // A pure membership guard is consumed by the scan that binds its
    // variable (see the evaluator); by itself it is nearly free.
    if (!atom.args().empty() && atom.args()[0].is_variable()) {
      if (MembershipGuard(query, index, atom.args()[0].var_name(), store) !=
              nullptr &&
          bound.count(atom.args()[0].var_name()) > 0) {
        est.placeable = true;
        est.cost = 0.02;
        est.fanout = 1.0;  // the guarded scan already accounted for it
        est.description = "membership guard " + atom.ToString();
        return est;
      }
    }
    // Negation: every variable shared with the rest of the query (or the
    // head) must already be bound; private variables are wildcards.
    std::set<std::string> shared;
    for (const std::string& v : TermVars(lit)) {
      bool elsewhere = false;
      for (const Term& t : query.head_args) {
        if (t.is_variable() && t.var_name() == v) elsewhere = true;
      }
      for (size_t j = 0; j < query.body.size() && !elsewhere; ++j) {
        if (j == index) continue;
        if (TermVars(query.body[j]).count(v) > 0) elsewhere = true;
      }
      if (elsewhere) shared.insert(v);
    }
    for (const std::string& v : shared) {
      if (bound.count(v) == 0) return est;
    }
    est.placeable = true;
    est.cost = 1.0;
    est.fanout = kNegSelectivity;
    est.description = "anti-join " + atom.ToString();
    return est;
  }

  switch (sig->kind) {
    case RelationKind::kClass:
    case RelationKind::kStructure: {
      const double extent = std::max<double>(1.0, store.ExtentSize(sig->name));
      est.placeable = true;
      if (TermBound(atom.args()[0], bound)) {
        est.cost = 1.0;
        est.fanout = 1.0;
        est.description = "oid lookup " + sig->name;
      } else {
        // Indexed bound attribute?
        int indexed_pos = -1;
        size_t bound_attrs = 0;
        for (size_t i = 1; i < atom.arity(); ++i) {
          if (!TermBound(atom.args()[i], bound)) continue;
          ++bound_attrs;
          if (indexed_pos < 0 && store.HasIndex(sig->name, i)) {
            indexed_pos = static_cast<int>(i);
          }
        }
        // Membership guards shrink both the fetch cost and the output
        // cardinality of the scan (extent-difference evaluation, §5.2).
        double guard_sel = 1.0;
        size_t n_guards = 0;
        if (atom.args()[0].is_variable()) {
          for (size_t j = 0; j < query.body.size(); ++j) {
            if (j == index) continue;
            if (const RelationSignature* guard = MembershipGuard(
                    query, j, atom.args()[0].var_name(), store)) {
              ++n_guards;
              const double excluded = store.Extent(guard->id).size();
              guard_sel *= std::max(0.02, 1.0 - excluded / extent);
            }
          }
        }
        if (indexed_pos >= 0) {
          const double distinct = std::max<double>(
              1.0, store.IndexDistinct(sig->name, indexed_pos));
          est.cost = est.fanout =
              std::max(1.0, extent / distinct) * guard_sel +
              0.05 * n_guards;
          est.description = "index probe " + sig->name + "." +
                            sig->attributes[indexed_pos];
        } else if (bound_attrs > 0) {
          // Hash join: the evaluator builds one hash table over the extent
          // (amortized across every binding that reaches the step) and
          // probes it once per binding, so the per-binding work collapses
          // from a full scan to build-share + probe.
          est.cost = extent * guard_sel / std::max(1.0, card) + 1.0 +
                     0.05 * n_guards;
          est.fanout =
              extent * guard_sel * std::pow(kEqSelectivity, bound_attrs);
          est.description = "hash join " + sig->name;
          if (n_guards > 0) est.description += " (guarded)";
        } else {
          est.cost = extent * guard_sel + 0.05 * n_guards * extent;
          est.fanout = extent * guard_sel;
          est.description = "extent scan " + sig->name;
          if (n_guards > 0) est.description += " (guarded)";
        }
      }
      // Residual bound attributes filter further (rough).
      return est;
    }
    case RelationKind::kRelationship:
    case RelationKind::kAsr: {
      const bool src_bound = TermBound(atom.args()[0], bound);
      const bool dst_bound = TermBound(atom.args()[1], bound);
      const double pairs = std::max<double>(1.0, store.PairCount(sig->name));
      est.placeable = true;
      if (src_bound && dst_bound) {
        est.cost = 1.0;
        est.fanout = kEqSelectivity;
        est.description = "edge check " + sig->name;
      } else if (src_bound) {
        double f = store.AvgFanout(sig->name);
        if (f <= 0) f = kDefaultFanout;
        est.cost = est.fanout = f;
        est.description = "traverse " + sig->name;
      } else if (dst_bound) {
        double f = store.AvgReverseFanout(sig->name);
        if (f <= 0) f = kDefaultFanout;
        est.cost = est.fanout = f;
        est.description = "reverse traverse " + sig->name;
      } else {
        est.cost = est.fanout = pairs;
        est.description = "pair scan " + sig->name;
      }
      return est;
    }
    case RelationKind::kMethod: {
      for (size_t i = 0; i + 1 < atom.arity(); ++i) {
        if (!TermBound(atom.args()[i], bound)) return est;
      }
      est.placeable = true;
      est.cost = 2.0;  // invocation weight
      est.fanout = TermBound(atom.args().back(), bound) ? kEqSelectivity : 1.0;
      est.description = "invoke " + sig->name;
      return est;
    }
  }
  return est;
}

}  // namespace

const RelationSignature* MembershipGuard(const Query& query, size_t j,
                                         const std::string& scan_var,
                                         const ObjectStore& store) {
  const Literal& lit = query.body[j];
  if (lit.positive || !lit.atom.is_predicate() || lit.atom.args().empty()) {
    return nullptr;
  }
  const RelationSignature* sig = store.schema().catalog.Find(lit.atom.predicate());
  if (sig == nullptr || (sig->kind != RelationKind::kClass &&
                         sig->kind != RelationKind::kStructure)) {
    return nullptr;
  }
  const Term& oid = lit.atom.args()[0];
  if (!oid.is_variable() || oid.var_name() != scan_var) return nullptr;
  // Each attribute variable must occur once in the whole query, repeats
  // inside this atom included: `not c(oid: X, a: A, b: A)` constrains
  // a = b, so its A is no wildcard.
  auto occurrences = [&](const Term& var) {
    auto n = std::count(query.head_args.begin(), query.head_args.end(), var);
    for (const Literal& other : query.body) {
      n += std::count(other.atom.args().begin(), other.atom.args().end(), var);
    }
    return n;
  };
  for (size_t ai = 1; ai < lit.atom.arity(); ++ai) {
    const Term& t = lit.atom.args()[ai];
    if (!t.is_variable() || occurrences(t) != 1) return nullptr;
  }
  return sig;
}

std::string Plan::ToString() const {
  std::string out = sqo::StrFormat("plan cost=%.1f card=%.1f\n", cost, cardinality);
  for (size_t i = 0; i < steps.size(); ++i) {
    out += "  " + std::to_string(i + 1) + ". " + steps[i] + "\n";
  }
  return out;
}

Plan PlanQuery(const Query& query, const ObjectStore& store,
               const PlannerOptions& /*options*/) {
  obs::Span span("eval.plan");
  // PlanQuery returns a plain Plan, so governance violations latch on the
  // current context and surface at the evaluator's boundary check.
  if (ExecutionContext* governance = CurrentContext()) {
    governance->LatchError(failpoint::Check("eval.plan"));
    governance->Check("eval.plan");
  }
  Plan plan;
  const size_t n = query.body.size();
  std::vector<bool> placed(n, false);
  std::set<std::string> bound;
  // Mirror the evaluator's selection pushdown: variables equated to
  // constants are bound from the start.
  for (const Literal& lit : query.body) {
    if (!lit.positive || !lit.atom.is_comparison() ||
        lit.atom.op() != datalog::CmpOp::kEq) {
      continue;
    }
    if (lit.atom.lhs().is_variable() && lit.atom.rhs().is_constant()) {
      bound.insert(lit.atom.lhs().var_name());
    } else if (lit.atom.rhs().is_variable() && lit.atom.lhs().is_constant()) {
      bound.insert(lit.atom.rhs().var_name());
    }
  }
  double card = 1.0;

  for (size_t step = 0; step < n; ++step) {
    int best = -1;
    StepEstimate best_est;
    for (size_t i = 0; i < n; ++i) {
      if (placed[i]) continue;
      StepEstimate est =
          EstimateLiteral(query.body[i], query, i, bound, store, card);
      if (!est.placeable) continue;
      // Rank by the work this step adds now plus the growth it causes.
      const double score = card * est.cost + card * est.fanout;
      const double best_score =
          best < 0 ? 0 : card * best_est.cost + card * best_est.fanout;
      if (best < 0 || score < best_score) {
        best = static_cast<int>(i);
        best_est = est;
      }
    }
    if (best < 0) {
      // No placeable literal (e.g. a comparison over never-bound variables).
      // Fall back to textual order for the remainder; the evaluator will
      // surface a proper error.
      for (size_t i = 0; i < n; ++i) {
        if (!placed[i]) {
          plan.order.push_back(i);
          plan.steps.push_back("unplaceable " + query.body[i].ToString());
          plan.est_rows.push_back(card);
          placed[i] = true;
        }
      }
      break;
    }
    placed[best] = true;
    plan.order.push_back(static_cast<size_t>(best));
    plan.cost += card * best_est.cost;
    card = std::max(card * best_est.fanout, 0.001);
    plan.steps.push_back(best_est.description);
    plan.est_rows.push_back(card);
    if (query.body[best].positive) {
      for (const std::string& v : TermVars(query.body[best])) bound.insert(v);
    }
  }
  plan.cardinality = card;
  return plan;
}

}  // namespace sqo::engine
