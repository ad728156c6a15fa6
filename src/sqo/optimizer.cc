#include "sqo/optimizer.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <numeric>
#include <set>
#include <unordered_set>

#include "common/context.h"
#include "common/fingerprint.h"
#include "common/interner.h"
#include "common/failpoint.h"
#include "common/strings.h"
#include "datalog/unify.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sqo::core {

using datalog::Atom;
using datalog::CmpOp;
using datalog::Literal;
using datalog::Matcher;
using datalog::Query;
using datalog::RelationKind;
using datalog::RelationSignature;
using datalog::Substitution;
using datalog::Term;

std::string Consequence::ToString() const {
  std::string out = is_denial ? "false" : literal.ToString();
  if (!source.empty()) out += " [" + source + "]";
  return out;
}

namespace {

/// Collects the distinct variable names of a literal.
std::set<std::string> LiteralVars(const Literal& lit) {
  std::vector<std::string> v;
  lit.atom.CollectVariables(&v);
  return std::set<std::string>(v.begin(), v.end());
}

/// Returns the solver view of a query: its positive comparison atoms,
/// leaving out `body[skip]` when `skip` is a body index.
solver::ConstraintSet QueryConstraints(const Query& query,
                                       size_t skip = SIZE_MAX) {
  solver::ConstraintSet cs;
  for (size_t j = 0; j < query.body.size(); ++j) {
    const Literal& lit = query.body[j];
    if (j != skip && lit.positive && lit.atom.is_comparison()) cs.Add(lit.atom);
  }
  return cs;
}

/// What one in-progress residue match has used: the body literals it
/// matched and the semantic facts the query's comparisons supplied. Kept in
/// step with the matcher's bindings, so a completed match reads off exactly
/// the support and facts of its own solution.
struct MatchTrail {
  std::vector<size_t> literals;
  std::vector<std::pair<Term, Term>> equalities;
  std::vector<Atom> implied;

  struct Mark {
    size_t literals, equalities, implied;
  };
  Mark Save() const {
    return {literals.size(), equalities.size(), implied.size()};
  }
  void RollbackTo(const Mark& m) {
    literals.resize(m.literals);
    equalities.erase(equalities.begin() + static_cast<long>(m.equalities),
                     equalities.end());
    implied.erase(implied.begin() + static_cast<long>(m.implied),
                  implied.end());
  }
  void Clear() { RollbackTo({0, 0, 0}); }
};

/// Recursive backtracking match of residue remainder literals against the
/// query. Calls `on_match` for every complete solution.
void MatchRemainder(const std::vector<Literal>& remainder, size_t k,
                    Matcher* matcher, MatchTrail* trail, const Query& query,
                    const solver::ConstraintSet::EqualityView& qcs,
                    const sqo::SymbolSet& bindable,
                    const std::function<void()>& on_match) {
  if (k == remainder.size()) {
    on_match();
    return;
  }
  // Runs `match`, one attempt against body literal `j`, and on success
  // matches the rest of the remainder; undoes both the bindings and the
  // trail afterwards.
  auto attempt = [&](const auto& match, size_t j) {
    const size_t mark = matcher->Mark();
    const MatchTrail::Mark trail_mark = trail->Save();
    if (match()) {
      trail->literals.push_back(j);
      MatchRemainder(remainder, k + 1, matcher, trail, query, qcs, bindable,
                     on_match);
    }
    matcher->RollbackTo(mark);
    trail->RollbackTo(trail_mark);
  };
  const Literal& lit = remainder[k];
  if (lit.atom.is_comparison()) {
    // Syntactic candidates: query comparison atoms with the same (or the
    // flipped) operator.
    const Atom flipped = Atom::Comparison(datalog::FlipOp(lit.atom.op()),
                                          lit.atom.rhs(), lit.atom.lhs());
    const bool distinct_flip =
        flipped.op() != lit.atom.op() || flipped.lhs() != lit.atom.lhs();
    for (size_t j = 0; j < query.body.size(); ++j) {
      const Literal& ql = query.body[j];
      if (!ql.positive || !ql.atom.is_comparison()) continue;
      attempt([&] { return matcher->MatchAtom(lit.atom, ql.atom); }, j);
      if (distinct_flip) {
        attempt([&] { return matcher->MatchAtom(flipped, ql.atom); }, j);
      }
    }
    // Semantic candidate: if the comparison is fully instantiated over
    // query terms, ask the solver whether the query implies it.
    Atom inst = matcher->subst().ApplyToAtom(lit.atom);
    std::vector<sqo::Symbol> vars;
    inst.CollectVariables(&vars);
    bool fully_bound = true;
    for (sqo::Symbol v : vars) {
      if (bindable.count(v) > 0) {
        fully_bound = false;
        break;
      }
    }
    if (fully_bound && qcs.Implies(inst)) {
      trail->implied.push_back(std::move(inst));
      MatchRemainder(remainder, k + 1, matcher, trail, query, qcs, bindable,
                     on_match);
      trail->implied.pop_back();
    }
    return;
  }
  // Predicate literal: match against query literals of the same polarity.
  for (size_t j = 0; j < query.body.size(); ++j) {
    const Literal& ql = query.body[j];
    if (ql.positive != lit.positive || !ql.atom.is_predicate()) continue;
    attempt([&] { return matcher->MatchLiteral(lit, ql); }, j);
  }
}

/// Renames the variables of `lit` that are not bound to query terms (i.e.
/// still carry the residue prefix and are absent from `query_vars`) to
/// fresh names unused in the query.
Literal FreshenUnbound(const Literal& lit, const std::set<std::string>& query_vars,
                       int* counter) {
  Substitution renaming;
  std::vector<std::string> vars;
  lit.atom.CollectVariables(&vars);
  for (const std::string& v : vars) {
    if (query_vars.count(v) == 0) {
      std::string fresh;
      do {
        fresh = "_N" + std::to_string(++*counter);
      } while (query_vars.count(fresh) > 0);
      renaming.Bind(v, Term::Var(fresh));
    }
  }
  return renaming.ApplyToLiteral(lit);
}

/// Variables occurring in object (OID) positions of the query: position 0
/// of class/structure/method atoms, either position of relationship/ASR
/// atoms. Equality reasoning between such variables enables join work to
/// be saved (§5.3); equalities between attribute placeholders do not.
std::set<std::string> ObjectPositionVars(const Query& q,
                                         const datalog::RelationCatalog& catalog) {
  std::set<std::string> out;
  for (const Literal& lit : q.body) {
    if (!lit.positive || !lit.atom.is_predicate()) continue;
    const RelationSignature* sig = catalog.Find(lit.atom.predicate());
    if (sig == nullptr) continue;
    auto add = [&](size_t i) {
      if (i < lit.atom.arity() && lit.atom.args()[i].is_variable()) {
        out.insert(lit.atom.args()[i].var_name());
      }
    };
    if (sig->kind == RelationKind::kRelationship ||
        sig->kind == RelationKind::kAsr) {
      add(0);
      add(1);
    } else {
      add(0);
    }
  }
  return out;
}

/// True if `lit` has any variable outside `query_vars` (an unbound /
/// quantified residue variable).
bool HasUnboundVars(const Literal& lit, const sqo::SymbolSet& query_vars) {
  std::vector<sqo::Symbol> vars;
  lit.atom.CollectVariables(&vars);
  for (sqo::Symbol v : vars) {
    if (query_vars.count(v) == 0) return true;
  }
  return false;
}

/// Builds the common fields of a step record.
DerivationStep MakeStep(StepKind kind, std::string text, std::string source) {
  DerivationStep step;
  step.kind = kind;
  step.text = std::move(text);
  step.source = std::move(source);
  return step;
}

/// The rewriting `base` followed by `step`, which produced `next`. `kind`
/// labels the transformation family for the metrics registry
/// (optimizer.applied.<kind>), mirroring the paper's taxonomy. The
/// structured step must describe `next` exactly — the verifier replays it
/// through ApplyDerivationStep and rejects any divergence (SQO-A015).
Rewriting Extend(const Rewriting& base, Query next, DerivationStep step,
                 const char* kind) {
  // Identical conjuncts are idempotent; drop exact duplicates.
  std::vector<Literal> dedup;
  for (Literal& l : next.body) {
    if (std::find(dedup.begin(), dedup.end(), l) == dedup.end()) {
      dedup.push_back(std::move(l));
    }
  }
  next.body = std::move(dedup);
  Rewriting r;
  r.query = std::move(next);
  r.derivation = base.derivation;
  r.derivation.push_back(step.text);
  r.steps = base.steps;
  r.steps.push_back(std::move(step));
  obs::Count(std::string("optimizer.applied.") + kind);
  return r;
}

}  // namespace

Optimizer::Closure Optimizer::Derive(const Query& query) const {
  auto derivations = std::make_shared<std::vector<Derivation>>();
  Closure closure;
  closure.origin.resize(query.body.size());
  std::iota(closure.origin.begin(), closure.origin.end(), 0u);
  // Every exit publishes what was derived so far; a truncated closure only
  // reaches a search whose governance latch has already failed it.
  auto finish = [&]() {
    closure.live.resize(derivations->size());
    std::iota(closure.live.begin(), closure.live.end(), 0u);
    closure.derivations = std::move(derivations);
    return std::move(closure);
  };

  ExecutionContext* governance = CurrentContext();
  const solver::ConstraintSet qcs_set = QueryConstraints(query);
  const solver::ConstraintSet::EqualityView qcs(qcs_set);
  sqo::SymbolSet query_vars;
  {
    std::vector<sqo::Symbol> vars;
    for (const Term& t : query.head_args) {
      if (t.is_variable()) query_vars.insert(t.var_symbol());
    }
    for (const Literal& lit : query.body) lit.atom.CollectVariables(&vars);
    query_vars.insert(vars.begin(), vars.end());
  }
  // The (predicate, polarity) pairs of the body's predicate literals, for
  // the applicability gate below.
  std::unordered_set<uint64_t> pred_groups;
  auto group_of = [](sqo::Symbol pred, bool positive) {
    return static_cast<uint64_t>(pred.id()) * 2 + (positive ? 1 : 0);
  };
  for (const Literal& lit : query.body) {
    if (lit.atom.is_predicate()) {
      pred_groups.insert(group_of(lit.atom.predicate_symbol(), lit.positive));
    }
  }

  MatchTrail trail;
  for (size_t a = 0; a < query.body.size(); ++a) {
    const Literal& anchor = query.body[a];
    if (!anchor.positive || !anchor.atom.is_predicate()) continue;
    const std::vector<Residue>* residues =
        compiled_->ResiduesFor(anchor.atom.predicate());
    if (residues == nullptr) continue;
    for (const Residue& residue : *residues) {
      // Applicability gate: every remainder predicate literal needs at
      // least one query literal with the same predicate and polarity —
      // matching requires exact predicate agreement — so a query lacking
      // one can never fire this residue. Skipped attempts do no matcher
      // work and incur no governance charge (no application is attempted).
      bool applicable = true;
      for (const auto& [pred, positive] : residue.remainder_predicates) {
        if (pred_groups.count(group_of(pred, positive)) == 0) {
          applicable = false;
          break;
        }
      }
      if (!applicable) {
        obs::Count("optimizer.applicability_skips");
        continue;
      }
      // This function returns a plain closure, so governance violations
      // and injected failures latch into the context; the Optimize boundary
      // turns the latched Status into the caller-visible error.
      if (governance != nullptr) {
        governance->LatchError(failpoint::Check("optimizer.apply_residue"));
        governance->ChargeResidueApplications();
        if (!governance->ok()) return finish();
      }
      // One span per residue tried, tagged hit/miss — the per-
      // transformation cost accounting the Figure-2 trace reports.
      obs::Span residue_span("residue.apply");
      if (residue_span.active()) {
        residue_span.Tag("relation", anchor.atom.predicate());
        residue_span.Tag("source", residue.source);
      }
      obs::Count("optimizer.residues_tried");

      // Residues were renamed apart at compile time (reserved "_R" prefix);
      // their variable sets are precomputed and interned, so the matcher
      // borrows the set instead of copying it per application.
      Matcher matcher = Matcher::Borrowing(&residue.bindable_symbols);
      // Match modulo the query's own equality theory, so a key residue can
      // align Name with Name2 when the query asserts Name = Name2 (§5.3).
      // Every equality so supplied is a fact the solution relies on.
      trail.Clear();
      matcher.set_frozen_equiv([&qcs, &trail](const Term& x, const Term& y) {
        if (!qcs.Equal(x, y)) return false;
        trail.equalities.emplace_back(x, y);
        return true;
      });
      if (!matcher.MatchAtom(residue.template_atom, anchor.atom)) {
        residue_span.Tag("result", "miss");
        continue;
      }

      bool hit = false;
      MatchRemainder(residue.remainder, 0, &matcher, &trail, query, qcs,
                     residue.bindable_symbols, [&]() {
        hit = true;
        Derivation d;
        d.consequence.source = residue.source;
        if (!residue.head.has_value()) {
          d.consequence.is_denial = true;
          d.consequence.literal = Literal::Pos(Atom::Comparison(
              CmpOp::kNe, Term::Int(0), Term::Int(0)));  // canonical "false"
        } else {
          Literal inst = matcher.subst().ApplyToLiteral(*residue.head);
          // Evaluable consequences must be fully instantiated, and
          // reflexive ones (X = X from an FD residue matching one atom
          // twice) carry no information.
          if (inst.atom.is_comparison()) {
            if (HasUnboundVars(inst, query_vars)) return;
            if (inst.atom.lhs() == inst.atom.rhs() &&
                (inst.atom.op() == CmpOp::kEq || inst.atom.op() == CmpOp::kLe ||
                 inst.atom.op() == CmpOp::kGe)) {
              return;
            }
          }
          d.consequence.literal = std::move(inst);
        }
        d.support.assign(query.body.size(), false);
        d.support[a] = true;
        for (size_t j : trail.literals) d.support[j] = true;
        d.equalities = trail.equalities;
        d.implied = trail.implied;
        derivations->push_back(std::move(d));
      });
      residue_span.Tag("result", hit ? "hit" : "miss");
      if (hit) obs::Count("optimizer.residue_hits");
    }
  }
  return finish();
}

Optimizer::Closure Optimizer::Without(const Closure& closure,
                                      const Query& query, size_t i) {
  Closure out;
  out.derivations = closure.derivations;
  out.origin = closure.origin;
  out.origin.erase(out.origin.begin() + static_cast<long>(i));
  const uint32_t gone = closure.origin[i];
  // Residue matching is monotone in the body and in the equality theory:
  // every solution on the shorter query is a solution here, with the same
  // bindings, and a solution here survives exactly when it used neither
  // the removed literal nor a fact only the removed literal supplied. Only
  // a positive comparison feeds the equality/implication view.
  const Literal& removed = query.body[i];
  const bool recheck = removed.positive && removed.atom.is_comparison();
  const solver::ConstraintSet rest_set =
      recheck ? QueryConstraints(query, i) : solver::ConstraintSet();
  const solver::ConstraintSet::EqualityView rest_view(rest_set);
  auto holds = [&](const Derivation& d) {
    if (!recheck) return true;
    for (const auto& [x, y] : d.equalities) {
      if (!rest_view.Equal(x, y)) return false;
    }
    for (const Atom& c : d.implied) {
      if (!rest_view.Implies(c)) return false;
    }
    return true;
  };
  out.live.reserve(closure.live.size());
  for (uint32_t index : closure.live) {
    const Derivation& d = (*closure.derivations)[index];
    if (!d.support[gone] && holds(d)) out.live.push_back(index);
  }
  return out;
}

std::vector<Consequence> Optimizer::Distinct(const Closure& closure) {
  std::vector<Consequence> out;
  // Dedup by structural literal identity (denials all carry the same
  // canonical `false` literal, so a flag suffices for them).
  std::unordered_set<Literal, datalog::LiteralHash> seen;
  bool denial_seen = false;
  for (uint32_t index : closure.live) {
    const Consequence& c = (*closure.derivations)[index].consequence;
    if (c.is_denial) {
      if (denial_seen) continue;
      denial_seen = true;
    } else if (!seen.insert(c.literal).second) {
      continue;
    }
    out.push_back(c);
  }
  return out;
}

std::vector<Consequence> Optimizer::ImpliedConsequences(
    const Query& query) const {
  return Distinct(Derive(query));
}

std::vector<Consequence> Optimizer::ConsequencesWithout(const Query& query,
                                                        size_t i) const {
  return Distinct(Without(Derive(query), query, i));
}

bool Optimizer::CheckContradiction(const Query& query,
                                   const std::vector<Consequence>& consequences,
                                   std::string* reason, Query* witness) const {
  solver::ConstraintSet cs = QueryConstraints(query);
  *witness = query;
  if (!cs.Satisfiable()) {
    *reason = "the query's own restrictions are unsatisfiable";
    return true;
  }
  for (const Consequence& c : consequences) {
    if (c.is_denial) {
      *reason = "integrity constraint denial applies [" + c.source + "]";
      return true;
    }
    if (!c.literal.positive || !c.literal.atom.is_comparison()) continue;
    cs.Add(c.literal.atom);
    witness->body.push_back(c.literal);
    if (!cs.Satisfiable()) {
      *reason = "restriction " + c.literal.atom.ToString() +
                " implied by [" + c.source +
                "] contradicts the query's restrictions";
      return true;
    }
  }
  return false;
}

std::vector<Optimizer::Candidate> Optimizer::Neighbors(
    const Rewriting& base, const Closure& closure) const {
  std::vector<Candidate> out;
  // A latched governance violation makes further neighbor generation
  // pointless; an empty frontier lets the search drain fast and the
  // boundary check report the original cause.
  if (ExecutionContext* governance = CurrentContext();
      governance != nullptr && !governance->ok()) {
    return out;
  }
  const Query& q = base.query;
  const std::set<std::string> query_vars = q.VariableSet();
  const std::set<std::string> object_vars =
      ObjectPositionVars(q, compiled_->schema->catalog);
  const solver::ConstraintSet qcs = QueryConstraints(q);
  const std::vector<Consequence> consequences = Distinct(closure);
  int counter = 0;

  // Growing rewritings apply the residues again when they are expanded.
  auto emit = [&](Query next, DerivationStep step, const char* kind) {
    out.push_back(
        {Extend(base, std::move(next), std::move(step), kind), std::nullopt});
  };

  // T1: restriction addition; T2: scope reduction; T4: merges; T5: join
  // introduction.
  for (const Consequence& c : consequences) {
    if (c.is_denial) continue;
    const Literal& lit = c.literal;

    if (lit.positive && lit.atom.is_comparison()) {
      // Heuristic (§4.1 calls for transformation-search heuristics): an
      // implied restriction is only promising if it interacts with the
      // rest of the query — its variable already occurs in a comparison or
      // in the projection. A bound on an otherwise-unused attribute can
      // never prune anything (it is implied) but misleads cost models.
      bool interacts = false;
      {
        std::vector<std::string> vars;
        lit.atom.CollectVariables(&vars);
        std::set<std::string> cmp_vars;
        for (const Literal& ql : q.body) {
          if (!ql.positive || !ql.atom.is_comparison()) continue;
          std::vector<std::string> cv;
          ql.atom.CollectVariables(&cv);
          cmp_vars.insert(cv.begin(), cv.end());
        }
        for (const Term& t : q.head_args) {
          if (t.is_variable()) cmp_vars.insert(t.var_name());
        }
        for (const std::string& v : vars) {
          if (cmp_vars.count(v) > 0) interacts = true;
        }
        // Equalities between two object variables always interact: they
        // enable OID-comparison plans and downstream removals (§5.3 Q').
        if (lit.atom.op() == CmpOp::kEq && lit.atom.lhs().is_variable() &&
            lit.atom.rhs().is_variable() &&
            object_vars.count(lit.atom.lhs().var_name()) > 0 &&
            object_vars.count(lit.atom.rhs().var_name()) > 0) {
          interacts = true;
        }
      }
      if (options_.add_restrictions && interacts && !qcs.Implies(lit.atom)) {
        Query next = q;
        next.body.push_back(lit);
        DerivationStep step = MakeStep(
            StepKind::kAddRestriction,
            "add restriction " + lit.atom.ToString() + " [" + c.source + "]",
            c.source);
        step.added.push_back(lit);
        emit(std::move(next), std::move(step), "restriction");
      }
      // T4: key-implied variable merging (§5.3), for object variables.
      if (options_.merge_equal_variables && lit.atom.op() == CmpOp::kEq &&
          lit.atom.lhs().is_variable() && lit.atom.rhs().is_variable() &&
          object_vars.count(lit.atom.lhs().var_name()) > 0 &&
          object_vars.count(lit.atom.rhs().var_name()) > 0 &&
          lit.atom.lhs() != lit.atom.rhs()) {
        // Replace the variable that does not appear in the head, if
        // possible, so projected attributes keep their names.
        std::set<std::string> head_vars;
        for (const Term& t : q.head_args) {
          if (t.is_variable()) head_vars.insert(t.var_name());
        }
        std::string keep = lit.atom.lhs().var_name();
        std::string drop = lit.atom.rhs().var_name();
        if (head_vars.count(drop) > 0 && head_vars.count(keep) == 0) {
          std::swap(keep, drop);
        }
        Substitution merge;
        merge.Bind(drop, Term::Var(keep));
        Query next = q.Substituted(merge);
        // Drop duplicates and trivially-true comparisons produced by the
        // merge (Z = W becomes Z = Z).
        std::vector<Literal> dedup;
        for (Literal& l : next.body) {
          if (l.positive && l.atom.is_comparison() &&
              l.atom.lhs() == l.atom.rhs() &&
              (l.atom.op() == CmpOp::kEq || l.atom.op() == CmpOp::kLe ||
               l.atom.op() == CmpOp::kGe)) {
            continue;
          }
          if (std::find(dedup.begin(), dedup.end(), l) == dedup.end()) {
            dedup.push_back(std::move(l));
          }
        }
        next.body = std::move(dedup);
        DerivationStep step = MakeStep(
            StepKind::kMergeVariables,
            "merge " + drop + " into " + keep + " (implied " +
                lit.atom.ToString() + ") [" + c.source + "]",
            c.source);
        step.merge_keep = keep;
        step.merge_drop = drop;
        emit(std::move(next), std::move(step), "merge");
      }
      continue;
    }

    if (!lit.positive && lit.atom.is_predicate()) {
      if (!options_.scope_reduction) continue;
      // The excluded object must be named by the query.
      if (lit.atom.args().empty() ||
          !(lit.atom.args()[0].is_constant() ||
            (lit.atom.args()[0].is_variable() &&
             query_vars.count(lit.atom.args()[0].var_name()) > 0))) {
        continue;
      }
      // Negative consequences: unbound head variables are universally
      // quantified (contrapositive semantics). Beyond that, we keep only
      // the OID argument and freshen every attribute position: under the
      // attribute FDs a class tuple with this OID would have to agree with
      // the already-matched attribute values, so "no tuple with these
      // attributes" strengthens soundly to "no tuple with this OID at all"
      // — exactly the paper's `x not in C` (§5.2).
      Literal membership = lit;
      if (membership.atom.arity() >= 1) {
        std::vector<Term> args = membership.atom.args();
        datalog::FreshVarGen wipe("_W" + std::to_string(++counter) + "_");
        for (size_t ai = 1; ai < args.size(); ++ai) args[ai] = wipe.NextVar();
        membership =
            Literal(false, Atom::Pred(membership.atom.predicate(), std::move(args)));
      }
      Literal fresh = FreshenUnbound(membership, query_vars, &counter);
      if (std::find(q.body.begin(), q.body.end(), fresh) != q.body.end()) {
        continue;
      }
      // Skip if an equivalent negative literal (same predicate, same bound
      // OID argument) is already present.
      bool present = false;
      for (const Literal& ql : q.body) {
        if (!ql.positive && ql.atom.is_predicate() &&
            ql.atom.predicate() == lit.atom.predicate() &&
            !ql.atom.args().empty() && !lit.atom.args().empty() &&
            ql.atom.args()[0] == lit.atom.args()[0]) {
          present = true;
          break;
        }
      }
      if (present) continue;
      Query next = q;
      next.body.push_back(fresh);
      DerivationStep step = MakeStep(
          StepKind::kScopeReduction,
          "reduce scope: add " + fresh.ToString() + " [" + c.source + "]",
          c.source);
      step.added.push_back(fresh);
      emit(std::move(next), std::move(step), "scope_reduction");
      continue;
    }

    if (lit.positive && lit.atom.is_predicate()) {
      if (!options_.join_introduction) continue;
      const RelationSignature* sig =
          compiled_->schema->catalog.Find(lit.atom.predicate());
      if (sig == nullptr) continue;
      if (!options_.introduce_class_atoms &&
          sig->kind != RelationKind::kRelationship &&
          sig->kind != RelationKind::kAsr) {
        continue;
      }
      // Skip introducing the inverse of a relationship atom already in the
      // query: the pair carries the same information, and stores maintain
      // both directions of a declared inverse anyway.
      if (sig->kind == RelationKind::kRelationship && lit.atom.arity() == 2) {
        const odl::ResolvedRelationship* decl =
            compiled_->schema->schema.FindRelationship(sig->owner,
                                                       sig->display_name);
        if (decl != nullptr && !decl->inverse.empty()) {
          const std::string inv = sqo::ToLower(decl->inverse);
          bool inverse_present = false;
          for (const Literal& ql : q.body) {
            if (ql.positive && ql.atom.is_predicate() &&
                ql.atom.predicate() == inv && ql.atom.arity() == 2 &&
                ql.atom.args()[0] == lit.atom.args()[1] &&
                ql.atom.args()[1] == lit.atom.args()[0]) {
              inverse_present = true;
              break;
            }
          }
          if (inverse_present) continue;
        }
      }
      // Skip if an existing literal subsumes the consequence (match the
      // consequence's unbound variables against it).
      sqo::SymbolSet unbound;
      {
        std::vector<std::string> vars;
        lit.atom.CollectVariables(&vars);
        for (const std::string& v : vars) {
          if (query_vars.count(v) == 0) unbound.insert(sqo::Intern(v));
        }
      }
      bool present = false;
      for (const Literal& ql : q.body) {
        if (!ql.positive || !ql.atom.is_predicate()) continue;
        Matcher m = Matcher::Borrowing(&unbound);
        if (m.MatchAtom(lit.atom, ql.atom)) {
          present = true;
          break;
        }
      }
      if (present) continue;
      // Multiplicity gate: existential variables are safe only if the
      // relation is functional from its bound arguments.
      bool safe = unbound.empty();
      if (!safe) {
        auto bound_at = [&](size_t i) {
          const Term& t = lit.atom.args()[i];
          return t.is_constant() ||
                 (t.is_variable() && unbound.count(t.var_symbol()) == 0);
        };
        switch (sig->kind) {
          case RelationKind::kClass:
          case RelationKind::kStructure:
            safe = bound_at(0);
            break;
          case RelationKind::kMethod: {
            safe = true;
            for (size_t i = 0; i + 1 < lit.atom.arity(); ++i) {
              safe = safe && bound_at(i);
            }
            break;
          }
          case RelationKind::kRelationship:
          case RelationKind::kAsr:
            safe = (bound_at(0) && sig->functional_src_to_dst) ||
                   (bound_at(1) && sig->functional_dst_to_src);
            break;
        }
      }
      if (!safe) continue;
      Literal fresh = FreshenUnbound(lit, query_vars, &counter);
      Query next = q;
      next.body.push_back(fresh);
      DerivationStep step = MakeStep(
          StepKind::kIntroduceJoin,
          "introduce join " + fresh.atom.ToString() + " [" + c.source + "]",
          c.source);
      step.added.push_back(fresh);
      emit(std::move(next), std::move(step), "join_introduction");
      continue;
    }
  }

  Reductions(base, closure, /*first_only=*/false, &out);

  // T7: ASR folding — replace a matched relationship path by the ASR.
  if (options_.asr_rewriting) {
    for (const AsrDefinition& asr : compiled_->asrs) {
      const size_t k = asr.path.size();
      // Candidate literal indexes per path position.
      std::vector<std::vector<size_t>> cands(k);
      for (size_t p = 0; p < k; ++p) {
        for (size_t i = 0; i < q.body.size(); ++i) {
          const Literal& lit = q.body[i];
          if (lit.positive && lit.atom.is_predicate() &&
              lit.atom.predicate() == asr.path[p] && lit.atom.arity() == 2) {
            cands[p].push_back(i);
          }
        }
        if (cands[p].empty()) break;
      }
      if (!cands.empty() && cands.back().empty()) continue;
      bool any_empty = false;
      for (const auto& c : cands) any_empty = any_empty || c.empty();
      if (any_empty) continue;

      // Backtracking over injective assignments with chained variables.
      std::vector<size_t> chosen(k, 0);
      std::function<void(size_t, Matcher*)> search = [&](size_t p,
                                                         Matcher* matcher) {
        if (p == k) {
          // Emit one fold per valid cut: the path prefix r1..rc is removed
          // and replaced by the ASR; the suffix is retained. cut == k is
          // the full fold (§5.4 Q'); cut < k keeps suffix hops that bind
          // head or shared variables, justified when every retained hop is
          // functional from its target (§5.4 Q1' retains the one-to-one
          // has_ta). Prefix interiors must be local to the removed atoms.
          for (size_t cut = k; cut >= 1; --cut) {
            bool suffix_ok = true;
            for (size_t j = cut; j < k && suffix_ok; ++j) {
              const RelationSignature* hop =
                  compiled_->schema->catalog.Find(asr.path[j]);
              suffix_ok = hop != nullptr && hop->functional_dst_to_src;
            }
            if (!suffix_ok) continue;
            std::set<size_t> removed(chosen.begin(),
                                     chosen.begin() + static_cast<long>(cut));
            bool interiors_local = true;
            for (size_t vi = 1; vi < cut && interiors_local; ++vi) {
              Term bound = matcher->subst().Apply(Term::Var(asr.path_vars[vi]));
              if (!bound.is_variable()) {
                interiors_local = false;
                break;
              }
              const std::string& v = bound.var_name();
              for (const Term& t : q.head_args) {
                if (t.is_variable() && t.var_name() == v) interiors_local = false;
              }
              for (size_t j = 0; j < q.body.size() && interiors_local; ++j) {
                if (removed.count(j) > 0) continue;
                if (LiteralVars(q.body[j]).count(v) > 0) interiors_local = false;
              }
            }
            if (!interiors_local) continue;
            Query next;
            next.name = q.name;
            next.head_args = q.head_args;
            for (size_t j = 0; j < q.body.size(); ++j) {
              if (removed.count(j) == 0) next.body.push_back(q.body[j]);
            }
            Literal asr_lit = Literal::Pos(Atom::Pred(
                asr.name,
                {matcher->subst().Apply(Term::Var(asr.path_vars.front())),
                 matcher->subst().Apply(Term::Var(asr.path_vars.back()))}));
            next.body.push_back(asr_lit);
            DerivationStep step = MakeStep(
                StepKind::kFoldAsr,
                cut == k
                    ? "fold path into access support relation " + asr.name
                    : "fold path prefix (" + std::to_string(cut) +
                          " hops) into access support relation " + asr.name,
                asr.name);
            for (size_t j : removed) step.removed.push_back(q.body[j]);
            step.added.push_back(std::move(asr_lit));
            emit(std::move(next), std::move(step), "asr");
          }
          return;
        }
        for (size_t idx : cands[p]) {
          bool used = false;
          for (size_t pp = 0; pp < p; ++pp) used = used || chosen[pp] == idx;
          if (used) continue;
          size_t mark = matcher->Mark();
          Atom pattern = Atom::Pred(asr.path[p],
                                    {Term::Var(asr.path_vars[p]),
                                     Term::Var(asr.path_vars[p + 1])});
          if (matcher->MatchAtom(pattern, q.body[idx].atom)) {
            chosen[p] = idx;
            search(p + 1, matcher);
          }
          matcher->RollbackTo(mark);
        }
      };
      std::set<std::string> bindable(asr.path_vars.begin(), asr.path_vars.end());
      Matcher matcher(bindable);
      search(0, &matcher);
    }
  }

  return out;
}

void Optimizer::Reductions(const Rewriting& base, const Closure& closure,
                           bool first_only, std::vector<Candidate>* out) const {
  const Query& q = base.query;
  // A removal's query is its parent's minus one literal, so it inherits its
  // parent's closure, filtered — unless dropping a duplicate conjunct
  // renumbered the body.
  auto emit = [&](Query rest, DerivationStep step, const char* kind,
                  Closure child) {
    const size_t size = rest.body.size();
    Candidate next{Extend(base, std::move(rest), std::move(step), kind),
                   std::move(child)};
    if (next.rewriting.query.body.size() != size) next.closure.reset();
    out->push_back(std::move(next));
  };
  auto rest_of = [&](size_t i) {
    Query rest = q;
    rest.body.erase(rest.body.begin() + static_cast<long>(i));
    return rest;
  };

  // T3: restriction removal — a comparison implied by the rest of the query.
  if (options_.remove_restrictions) {
    for (size_t i = 0; i < q.body.size(); ++i) {
      const Literal& lit = q.body[i];
      if (!lit.positive || !lit.atom.is_comparison()) continue;
      Closure child = Without(closure, q, i);
      solver::ConstraintSet cs = QueryConstraints(q, i);
      bool implied = cs.Implies(lit.atom);
      std::string via = "remaining restrictions";
      if (!implied) {
        for (uint32_t index : child.live) {
          const Consequence& c = (*child.derivations)[index].consequence;
          if (c.is_denial || !c.literal.positive ||
              !c.literal.atom.is_comparison()) {
            continue;
          }
          cs.Add(c.literal.atom);
        }
        implied = cs.Implies(lit.atom);
        via = "remaining restrictions plus implied consequences";
      }
      if (implied) {
        DerivationStep step = MakeStep(
            StepKind::kRemoveRestriction,
            "remove redundant restriction " + lit.atom.ToString() + " (" + via +
                ")",
            via);
        step.removed.push_back(lit);
        emit(rest_of(i), std::move(step), "restriction_removal",
             std::move(child));
        if (first_only) return;
      }
    }
  }

  // T6: join elimination — a predicate literal implied by the rest.
  if (options_.join_elimination) {
    for (size_t i = 0; i < q.body.size(); ++i) {
      const Literal& lit = q.body[i];
      if (!lit.positive || !lit.atom.is_predicate()) continue;
      const RelationSignature* sig =
          compiled_->schema->catalog.Find(lit.atom.predicate());
      if (sig == nullptr) continue;

      // Solo variables: occur in this literal only (not in the head, not
      // elsewhere in the body).
      sqo::SymbolSet solo;
      {
        std::vector<sqo::Symbol> vars;
        lit.atom.CollectVariables(&vars);
        solo.insert(vars.begin(), vars.end());
      }
      for (const Term& t : q.head_args) {
        if (t.is_variable()) solo.erase(t.var_symbol());
      }
      for (size_t j = 0; j < q.body.size() && !solo.empty(); ++j) {
        if (j == i) continue;
        std::vector<sqo::Symbol> vars;
        q.body[j].atom.CollectVariables(&vars);
        for (sqo::Symbol v : vars) solo.erase(v);
      }

      // Multiplicity gate, mirroring join introduction.
      bool safe = solo.empty();
      if (!safe) {
        auto bound_at = [&](size_t pos) {
          const Term& t = lit.atom.args()[pos];
          return t.is_constant() ||
                 (t.is_variable() && solo.count(t.var_symbol()) == 0);
        };
        switch (sig->kind) {
          case RelationKind::kClass:
          case RelationKind::kStructure:
            safe = bound_at(0);
            break;
          case RelationKind::kMethod: {
            safe = true;
            for (size_t p = 0; p + 1 < lit.atom.arity(); ++p) {
              safe = safe && bound_at(p);
            }
            break;
          }
          case RelationKind::kRelationship:
          case RelationKind::kAsr:
            safe = (bound_at(0) && sig->functional_src_to_dst) ||
                   (bound_at(1) && sig->functional_dst_to_src);
            break;
        }
      }
      if (!safe) continue;

      bool implied = false;
      std::string source;
      // A remaining literal that differs only in this literal's solo
      // variables already implies it (the duplicate-atom case of §5.3
      // after variable merging).
      for (size_t j = 0; j < q.body.size() && !implied; ++j) {
        const Literal& other = q.body[j];
        if (j == i || !other.positive || !other.atom.is_predicate()) continue;
        Matcher m = Matcher::Borrowing(&solo);
        if (m.MatchAtom(lit.atom, other.atom)) {
          implied = true;
          source = "subsumed by " + other.atom.ToString();
        }
      }
      Closure child = Without(closure, q, i);
      // The first live derivation whose literal implies this one is the
      // first occurrence of that literal, so its source is the one the
      // consequence list of the rest reports.
      for (size_t k = 0; k < child.live.size() && !implied; ++k) {
        const Consequence& c = (*child.derivations)[child.live[k]].consequence;
        if (c.is_denial || !c.literal.positive ||
            !c.literal.atom.is_predicate()) {
          continue;
        }
        Matcher m = Matcher::Borrowing(&solo);
        if (m.MatchAtom(lit.atom, c.literal.atom)) {
          implied = true;
          source = c.source;
        }
      }
      if (implied) {
        DerivationStep step = MakeStep(
            StepKind::kEliminateJoin,
            "eliminate join " + lit.atom.ToString() + " [" + source + "]",
            source);
        step.removed.push_back(lit);
        emit(rest_of(i), std::move(step), "join_elimination",
             std::move(child));
        if (first_only) return;
      }
    }
  }
}

Rewriting Optimizer::ReduceToFixpoint(Rewriting base, Closure closure) const {
  // Reductions strictly shrink the body, so this terminates.
  for (size_t guard = 0; guard < 64; ++guard) {
    std::vector<Candidate> reduced;
    Reductions(base, closure, /*first_only=*/true, &reduced);
    if (reduced.empty()) break;
    base = std::move(reduced.front().rewriting);
    closure = reduced.front().closure.has_value()
                  ? std::move(*reduced.front().closure)
                  : Derive(base.query);
  }
  return base;
}

sqo::Result<OptimizationOutcome> Optimizer::Optimize(const Query& query) const {
  obs::Span span("step3.optimize");
  SQO_FAILPOINT("optimizer.optimize");
  SQO_RETURN_IF_ERROR(CheckGovernance("optimizer.optimize"));
  OptimizationOutcome outcome;
  uint64_t pruned = 0;  // rewritings rediscovered (dedup) or over the cap

  // closures[i] is the closure of outcome.equivalents[i], derived when the
  // alternative is first expanded unless a removal handed it down.
  std::vector<std::optional<Closure>> closures;
  auto closure_of = [&](size_t i) -> const Closure& {
    if (!closures[i].has_value()) {
      closures[i] = Derive(outcome.equivalents[i].query);
    }
    return *closures[i];
  };
  Rewriting original;
  original.query = query;
  outcome.equivalents.push_back(std::move(original));
  closures.emplace_back();

  if (options_.detect_contradictions) {
    obs::Span check_span("optimize.contradiction_check");
    if (CheckContradiction(query, Distinct(closure_of(0)),
                           &outcome.contradiction_reason,
                           &outcome.contradiction_witness)) {
      outcome.contradiction = true;
      check_span.Tag("contradiction", "true");
      obs::Count("optimizer.contradictions");
      return outcome;
    }
  }

  // Bounded breadth-first search over rewritings, deduplicated by hashed
  // canonical fingerprint (128-bit; see DESIGN.md on why a hash suffices).
  {
    obs::Span search_span("optimize.search");
    std::unordered_set<sqo::Fingerprint128, sqo::FingerprintHash> seen;
    std::deque<std::pair<size_t, int>> frontier;  // (alternative, depth)
    seen.insert(query.CanonicalFingerprint());
    frontier.emplace_back(0, 0);

    while (!frontier.empty() &&
           outcome.equivalents.size() < options_.max_alternatives) {
      SQO_RETURN_IF_ERROR(CheckGovernance("optimizer.search"));
      const auto [current, depth] = frontier.front();
      frontier.pop_front();
      if (depth >= options_.max_depth) continue;
      for (Candidate& next :
           Neighbors(outcome.equivalents[current], closure_of(current))) {
        sqo::Fingerprint128 key = next.rewriting.query.CanonicalFingerprint();
        if (!seen.insert(key).second) {
          ++pruned;
          obs::Count("optimizer.dedup_hits");
          continue;
        }
        if (outcome.equivalents.size() >= options_.max_alternatives) {
          ++pruned;
          break;
        }
        if (ExecutionContext* governance = CurrentContext()) {
          governance->ChargeAlternatives();
          if (!governance->ok()) break;
        }
        outcome.equivalents.push_back(std::move(next.rewriting));
        closures.push_back(std::move(next.closure));
        frontier.emplace_back(outcome.equivalents.size() - 1, depth + 1);
      }
    }
    SQO_RETURN_IF_ERROR(CheckGovernance("optimizer.search"));

    // Normalize: reduce every alternative to a removal fixpoint, bypassing
    // the depth bound for monotonically shrinking chains (§5.3's
    // merge → drop attribute join → drop duplicate atom).
    if (options_.reduce_to_fixpoint) {
      obs::Span fixpoint_span("optimize.fixpoint");
      const size_t n = outcome.equivalents.size();
      for (size_t i = 0; i < n; ++i) {
        SQO_RETURN_IF_ERROR(CheckGovernance("optimizer.fixpoint"));
        Rewriting reduced =
            ReduceToFixpoint(outcome.equivalents[i], closure_of(i));
        sqo::Fingerprint128 key = reduced.query.CanonicalFingerprint();
        if (seen.insert(key).second) {
          outcome.equivalents.push_back(std::move(reduced));
        } else {
          ++pruned;
          obs::Count("optimizer.dedup_hits");
        }
      }
    }
  }
  obs::Count("optimizer.alternatives_generated", outcome.equivalents.size());
  obs::Count("optimizer.alternatives_pruned", pruned);
  // interner.size is a gauge (monotone process-wide table); record it as
  // "current size" by topping the counter up to the latest value.
  if (obs::MetricsRegistry* metrics = obs::CurrentMetrics()) {
    const uint64_t size = sqo::InternerSize();
    const uint64_t recorded = metrics->CounterValue("interner.size");
    if (size > recorded) metrics->Add("interner.size", size - recorded);
  }
  span.Tag("alternatives", static_cast<uint64_t>(outcome.equivalents.size()));
  span.Tag("pruned", pruned);
  return outcome;
}

}  // namespace sqo::core
