#include "datalog/unify.h"

namespace sqo::datalog {

bool UnifyTerms(const Term& a, const Term& b, Substitution* subst) {
  Term ra = subst->Apply(a);
  Term rb = subst->Apply(b);
  if (ra == rb) return true;
  if (ra.is_variable()) {
    subst->Bind(ra.var_symbol(), rb);
    return true;
  }
  if (rb.is_variable()) {
    subst->Bind(rb.var_symbol(), ra);
    return true;
  }
  return false;  // distinct constants
}

bool UnifyAtoms(const Atom& a, const Atom& b, Substitution* subst) {
  if (!a.is_predicate() || !b.is_predicate()) return false;
  if (a.predicate_symbol() != b.predicate_symbol() || a.arity() != b.arity()) {
    return false;
  }
  for (size_t i = 0; i < a.arity(); ++i) {
    if (!UnifyTerms(a.args()[i], b.args()[i], subst)) return false;
  }
  return true;
}

bool Matcher::MatchTerm(const Term& pattern, const Term& target) {
  const Term& rp = subst_.Resolve(pattern);
  if (rp.is_variable() && IsBindable(rp.var_symbol())) {
    if (rp == target) return true;
    subst_.Bind(rp.var_symbol(), target);
    return true;
  }
  // Frozen variable or constant: must be identical to the target, or
  // equivalent under the caller-supplied background theory.
  if (rp == target) return true;
  return frozen_equiv_ != nullptr && frozen_equiv_(rp, target);
}

bool Matcher::MatchAtom(const Atom& pattern, const Atom& target) {
  if (pattern.is_comparison() != target.is_comparison()) return false;
  if (pattern.is_comparison()) {
    if (pattern.op() != target.op()) return false;
  } else {
    if (pattern.predicate_symbol() != target.predicate_symbol() ||
        pattern.arity() != target.arity()) {
      return false;
    }
  }
  size_t mark = Mark();
  for (size_t i = 0; i < pattern.arity(); ++i) {
    if (!MatchTerm(pattern.args()[i], target.args()[i])) {
      RollbackTo(mark);
      return false;
    }
  }
  return true;
}

bool Matcher::MatchLiteral(const Literal& pattern, const Literal& target) {
  if (pattern.positive != target.positive) return false;
  return MatchAtom(pattern.atom, target.atom);
}

void Matcher::RollbackTo(size_t mark) {
  // Every binding the matcher made was of an unbound variable, so dropping
  // the ones after `mark` restores the prior state exactly.
  if (mark < subst_.size()) subst_.TruncateTo(mark);
}

}  // namespace sqo::datalog
