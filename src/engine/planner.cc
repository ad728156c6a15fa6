#include "engine/planner.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

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

bool IsClassLike(const RelationSignature* sig) {
  return sig != nullptr && (sig->kind == RelationKind::kClass ||
                            sig->kind == RelationKind::kStructure);
}

/// A step candidate: its operator, and its expected rows (fanout) and work
/// (cost) per input binding.
struct Estimate {
  bool placeable = false;
  double fanout = 1.0;
  double cost = 1.0;
  StepKind kind = StepKind::kFilter;
  size_t key = 0;
};

/// What the planner needs of one body literal, gathered once per query.
struct LiteralFacts {
  /// Null for comparisons and for predicates the catalog lacks (or whose
  /// arity does not match).
  const RelationSignature* sig = nullptr;
  /// Per argument: the variable's dense index, or -1 for a constant.
  std::vector<int> vars;
  /// Negated atoms: the variables that also occur in the head or in
  /// another literal (the ones that must be bound before it runs).
  std::vector<int> shared;
  /// Negated class atoms: set when the atom is a membership guard over its
  /// OID variable — every other argument is a variable occurring exactly
  /// once in the whole query (repeats inside this atom included:
  /// `not c(oid: X, a: A, b: A)` constrains a = b, so its A is no
  /// wildcard). It is then a pure extent-membership test.
  bool guard = false;
  /// Positive class atoms: the extent size, and the output share and count
  /// of the guards over the OID variable the atom's scan would check.
  double extent = 1.0;
  double guard_sel = 1.0;
  size_t n_guards = 0;
  /// Relationship/ASR atoms: pair count and average fanouts.
  double pairs = 1.0;
  double fanout = 0.0;
  double reverse_fanout = 0.0;
};

class Planner {
 public:
  Planner(const Query& query, const ObjectStore& store)
      : query_(query), store_(store), facts_(query.body.size()) {
    std::unordered_map<Symbol, int, SymbolHash> index;
    std::vector<int> occurrences;
    auto var_of = [&](const Term& t) {
      if (!t.is_variable()) return -1;
      auto [it, fresh] =
          index.emplace(t.var_symbol(), static_cast<int>(occurrences.size()));
      if (fresh) occurrences.push_back(0);
      ++occurrences[it->second];
      return it->second;
    };
    for (const Term& t : query.head_args) var_of(t);
    const datalog::RelationCatalog& catalog = store.schema().catalog;
    for (size_t i = 0; i < query.body.size(); ++i) {
      const datalog::Atom& atom = query.body[i].atom;
      LiteralFacts& f = facts_[i];
      for (const Term& t : atom.args()) f.vars.push_back(var_of(t));
      if (atom.is_predicate()) {
        f.sig = catalog.Find(atom.predicate());
        if (f.sig != nullptr && f.sig->arity() != atom.arity()) f.sig = nullptr;
      }
    }
    bound_.assign(occurrences.size(), false);
    scan_of_.assign(occurrences.size(), -1);

    for (size_t i = 0; i < query.body.size(); ++i) {
      const Literal& lit = query.body[i];
      LiteralFacts& f = facts_[i];
      if (lit.positive && lit.atom.is_comparison()) {
        // Selection pushdown, as the executor does it: variables equated
        // to constants are bound from the start.
        if (lit.atom.op() != datalog::CmpOp::kEq) continue;
        if (f.vars[0] >= 0 && f.vars[1] < 0) bound_[f.vars[0]] = true;
        if (f.vars[1] >= 0 && f.vars[0] < 0) bound_[f.vars[1]] = true;
        continue;
      }
      if (lit.positive) continue;
      for (int v : f.vars) {
        const auto inside = std::count(f.vars.begin(), f.vars.end(), v);
        if (v >= 0 && occurrences[v] > inside &&
            std::find(f.shared.begin(), f.shared.end(), v) == f.shared.end()) {
          f.shared.push_back(v);
        }
      }
      f.guard = IsClassLike(f.sig) && f.vars[0] >= 0 &&
                std::all_of(f.vars.begin() + 1, f.vars.end(), [&](int v) {
                  return v >= 0 && occurrences[v] == 1;
                });
    }

    for (size_t i = 0; i < query.body.size(); ++i) {
      LiteralFacts& f = facts_[i];
      if (!query.body[i].positive || f.sig == nullptr) continue;
      if (IsClassLike(f.sig)) {
        f.extent = std::max<double>(1.0, store.Extent(f.sig->id).size());
        // Membership guards shrink both the fetch cost and the output
        // cardinality of the scan (extent-difference evaluation, §5.2).
        if (f.vars[0] < 0) continue;
        for (size_t j = 0; j < query.body.size(); ++j) {
          const LiteralFacts& g = facts_[j];
          if (!g.guard || g.vars[0] != f.vars[0]) continue;
          ++f.n_guards;
          const double excluded = store.Extent(g.sig->id).size();
          f.guard_sel *= std::max(0.02, 1.0 - excluded / f.extent);
        }
      } else if (f.sig->kind == RelationKind::kRelationship ||
                 f.sig->kind == RelationKind::kAsr) {
        f.pairs = std::max<double>(1.0, store.PairCount(f.sig->name));
        f.fanout = store.AvgFanout(f.sig->name);
        f.reverse_fanout = store.AvgReverseFanout(f.sig->name);
      }
    }
  }

  /// Greedy order: the placeable literal that adds the least work now plus
  /// the growth it causes, until none is placeable; the rest (e.g. a
  /// comparison over never-bound variables) follow in textual order,
  /// unpriced, and fail when run.
  void PlanGreedy() {
    const size_t n = query_.body.size();
    std::vector<bool> placed(n, false);
    for (size_t step = 0; step < n; ++step) {
      int best = -1;
      Estimate best_est;
      for (size_t i = 0; i < n; ++i) {
        if (placed[i]) continue;
        const Estimate est = EstimateLiteral(i);
        if (!est.placeable) continue;
        const double score = card_ * est.cost + card_ * est.fanout;
        const double best_score =
            best < 0 ? 0 : card_ * best_est.cost + card_ * best_est.fanout;
        if (best < 0 || score < best_score) {
          best = static_cast<int>(i);
          best_est = est;
        }
      }
      if (best < 0) {
        for (size_t i = 0; i < n; ++i) {
          if (!placed[i]) Place(i, EstimateLiteral(i), /*priced=*/false);
        }
        return;
      }
      placed[best] = true;
      Place(static_cast<size_t>(best), best_est, /*priced=*/true);
    }
  }

  void PlanOrder(const std::vector<size_t>& order) {
    for (size_t i : order) {
      const Estimate est = EstimateLiteral(i);
      Place(i, est, est.placeable);
    }
  }

  Plan Finish() {
    plan_.cardinality = card_;
    return std::move(plan_);
  }

 private:
  bool Bound(const LiteralFacts& f, size_t arg) const {
    return f.vars[arg] < 0 || bound_[f.vars[arg]];
  }

  Estimate EstimateLiteral(size_t i) const {
    Estimate est;
    const Literal& lit = query_.body[i];
    const datalog::Atom& atom = lit.atom;
    const LiteralFacts& f = facts_[i];

    if (atom.is_comparison()) {
      est.kind = StepKind::kFilter;
      if (!Bound(f, 0) || !Bound(f, 1)) return est;
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
      return est;
    }

    if (f.sig == nullptr) {
      est.kind = StepKind::kUnknownRelation;
      return est;
    }

    if (!lit.positive) {
      est.kind = StepKind::kAntiJoin;
      // A membership guard is checked by the scan that binds its variable;
      // by itself it is nearly free. Place() settles whether a scan did.
      if (f.guard && Bound(f, 0)) {
        est.kind = StepKind::kConsumedGuard;
        est.placeable = true;
        est.cost = 0.02;
        est.fanout = 1.0;  // the guarded scan already accounted for it
        return est;
      }
      for (int v : f.shared) {
        if (!bound_[v]) return est;
      }
      est.placeable = true;
      est.cost = 1.0;
      est.fanout = kNegSelectivity;
      return est;
    }

    switch (f.sig->kind) {
      case RelationKind::kClass:
      case RelationKind::kStructure: {
        est.placeable = true;
        if (Bound(f, 0)) {
          est.kind = StepKind::kOidLookup;
          est.cost = 1.0;
          est.fanout = 1.0;
          return est;
        }
        int indexed_pos = -1;
        int first_bound = -1;
        size_t bound_attrs = 0;
        for (size_t a = 1; a < atom.arity(); ++a) {
          if (!Bound(f, a)) continue;
          ++bound_attrs;
          if (first_bound < 0) first_bound = static_cast<int>(a);
          if (indexed_pos < 0 && store_.HasIndex(f.sig->id, a)) {
            indexed_pos = static_cast<int>(a);
          }
        }
        const double extent = f.extent;
        const double guard_sel = f.guard_sel;
        const size_t n_guards = f.n_guards;
        if (indexed_pos >= 0) {
          const double distinct = std::max<double>(
              1.0, store_.IndexDistinct(f.sig->id, indexed_pos));
          est.cost = est.fanout =
              std::max(1.0, extent / distinct) * guard_sel +
              0.05 * n_guards;
          est.kind = StepKind::kIndexProbe;
          est.key = static_cast<size_t>(indexed_pos);
        } else if (bound_attrs > 0) {
          // The adaptive index: one build over the extent, amortized
          // across this query's bindings, plus a probe per binding.
          est.cost = extent * guard_sel / std::max(1.0, card_) + 1.0 +
                     0.05 * n_guards;
          est.fanout =
              extent * guard_sel * std::pow(kEqSelectivity, bound_attrs);
          est.kind = StepKind::kIndexProbe;
          est.key = static_cast<size_t>(first_bound);
        } else {
          est.cost = extent * guard_sel + 0.05 * n_guards * extent;
          est.fanout = extent * guard_sel;
          est.kind = accessed_ ? StepKind::kSharedScan : StepKind::kExtentScan;
        }
        return est;
      }
      case RelationKind::kRelationship:
      case RelationKind::kAsr: {
        const bool src_bound = Bound(f, 0);
        const bool dst_bound = Bound(f, 1);
        est.placeable = true;
        if (src_bound && dst_bound) {
          est.cost = 1.0;
          est.fanout = kEqSelectivity;
          est.kind = StepKind::kEdgeCheck;
        } else if (src_bound) {
          const double fanout = f.fanout > 0 ? f.fanout : kDefaultFanout;
          est.cost = est.fanout = fanout;
          est.kind = StepKind::kTraverse;
        } else if (dst_bound) {
          const double fanout =
              f.reverse_fanout > 0 ? f.reverse_fanout : kDefaultFanout;
          est.cost = est.fanout = fanout;
          est.kind = StepKind::kReverseTraverse;
        } else {
          est.cost = est.fanout = f.pairs;
          est.kind = StepKind::kPairScan;
        }
        return est;
      }
      case RelationKind::kMethod: {
        est.kind = StepKind::kInvoke;
        for (size_t a = 0; a + 1 < atom.arity(); ++a) {
          if (!Bound(f, a)) return est;
        }
        est.placeable = true;
        est.cost = 2.0;  // invocation weight
        est.fanout = Bound(f, atom.arity() - 1) ? kEqSelectivity : 1.0;
        return est;
      }
    }
    return est;
  }

  /// Appends literal `i` as the next step. A priced step adds its work and
  /// scales the running cardinality; an unplaceable one adds neither.
  void Place(size_t i, const Estimate& est, bool priced) {
    const Literal& lit = query_.body[i];
    const LiteralFacts& f = facts_[i];
    const size_t pos = plan_.steps.size();
    PlanStep step;
    step.kind = est.kind;
    step.literal = i;
    step.key = est.key;
    if (f.sig != nullptr) step.relation = f.sig->id;
    if (step.kind == StepKind::kConsumedGuard) {
      // Only a scan that binds the guard's variable can check it; a
      // variable bound any other way leaves it a (one bit test) anti-join.
      const int scan = scan_of_[f.vars[0]];
      if (scan < 0) {
        step.kind = StepKind::kAntiJoin;
      } else {
        plan_.steps[scan].guards.push_back(pos);
      }
    }
    if (lit.positive && IsClassLike(f.sig) && !Bound(f, 0)) {
      scan_of_[f.vars[0]] = static_cast<int>(pos);
    }
    if (priced) {
      plan_.cost += card_ * est.cost;
      card_ = std::max(card_ * est.fanout, 0.001);
    }
    step.est_rows = card_;
    plan_.steps.push_back(std::move(step));
    if (lit.positive && lit.atom.is_predicate()) {
      for (int v : f.vars) {
        if (v >= 0) bound_[v] = true;
      }
      accessed_ = true;
    }
  }

  const Query& query_;
  const ObjectStore& store_;
  std::vector<LiteralFacts> facts_;
  std::vector<bool> bound_;
  /// Per variable: the plan position of the class step that binds it
  /// through its OID (a scan or probe), or -1.
  std::vector<int> scan_of_;
  /// Whether a positive relation or method atom has been placed: a later
  /// scan may see many bindings, so it is built once and replayed.
  bool accessed_ = false;
  double card_ = 1.0;
  Plan plan_;
};

Plan Build(const Query& query, const ObjectStore& store,
           const std::vector<size_t>* order) {
  obs::Span span("eval.plan");
  // Planning returns a plain Plan, so governance violations latch on the
  // current context and surface at the evaluator's boundary check.
  if (ExecutionContext* governance = CurrentContext()) {
    governance->LatchError(failpoint::Check("eval.plan"));
    governance->Check("eval.plan");
  }
  Planner planner(query, store);
  if (order != nullptr) {
    planner.PlanOrder(*order);
  } else {
    planner.PlanGreedy();
  }
  return planner.Finish();
}

}  // namespace

std::string Plan::StepText(size_t k, const Query& query,
                           const datalog::RelationCatalog& catalog) const {
  // EXPLAIN names, in StepKind order.
  static constexpr const char* kNames[] = {
      "filter",      "oid lookup", "index probe",      "extent scan",
      "shared scan", "traverse",   "reverse traverse", "edge check",
      "pair scan",   "invoke",     "anti-join",        "membership guard",
      "unknown relation"};
  const PlanStep& s = steps[k];
  const Literal& lit = query.body[s.literal];
  std::string text = std::string(kNames[static_cast<size_t>(s.kind)]) + " ";
  switch (s.kind) {
    case StepKind::kFilter:
    case StepKind::kAntiJoin:
    case StepKind::kConsumedGuard:
      return text + lit.atom.ToString();
    case StepKind::kUnknownRelation:
      return text + lit.ToString();
    default:
      break;
  }
  const RelationSignature& sig = catalog.ById(s.relation);
  text += sig.name;
  if (s.kind == StepKind::kIndexProbe) text += "." + sig.attributes[s.key];
  if (!s.guards.empty()) text += " (guarded)";
  return text;
}

std::string Plan::ToString(const Query& query,
                           const datalog::RelationCatalog& catalog) const {
  std::string out = sqo::StrFormat("plan cost=%.1f card=%.1f\n", cost, cardinality);
  for (size_t k = 0; k < steps.size(); ++k) {
    out += "  " + std::to_string(k + 1) + ". " + StepText(k, query, catalog) +
           "\n";
  }
  return out;
}

Plan PlanQuery(const Query& query, const ObjectStore& store,
               const PlannerOptions& /*options*/) {
  return Build(query, store, nullptr);
}

Plan PlanInOrder(const Query& query, const ObjectStore& store,
                 const std::vector<size_t>& order) {
  return Build(query, store, &order);
}

}  // namespace sqo::engine
