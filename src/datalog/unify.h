#ifndef SQO_DATALOG_UNIFY_H_
#define SQO_DATALOG_UNIFY_H_

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/interner.h"
#include "datalog/atom.h"
#include "datalog/substitution.h"
#include "datalog/term.h"

namespace sqo::datalog {

/// Two-way unification of terms under an accumulated substitution. On
/// success extends `subst` in place and returns true; on failure `subst` may
/// contain partial bindings (callers snapshot and restore, or work on a
/// copy). With no function symbols, unification is linear and needs no
/// occurs check.
bool UnifyTerms(const Term& a, const Term& b, Substitution* subst);

/// Two-way unification of predicate atoms (same predicate, same arity,
/// argument-wise). Comparison atoms are not unified here — semantic
/// comparison reasoning lives in sqo::solver.
bool UnifyAtoms(const Atom& a, const Atom& b, Substitution* subst);

/// One-way (θ-subsumption) matcher: only variables in the declared
/// `bindable` set may be bound; every other variable is frozen and behaves
/// as a constant. Used for residue computation (IC variables bind against a
/// relation template) and residue application (residue variables bind
/// against query terms).
///
/// Supports chronological backtracking: `Mark()` snapshots the bindings,
/// `RollbackTo()` undoes bindings made since a mark. The bindings are the
/// substitution's flat vector, so one matcher reused across many attempts
/// (`Reset`) allocates nothing once its storage has grown.
class Matcher {
 public:
  /// Optional equivalence test for frozen-vs-frozen term mismatches:
  /// lets callers match modulo a background theory (the optimizer passes
  /// query-implied equality, so a key residue can match `faculty(Z, Name)`
  /// against `faculty(W, Name2)` when the query asserts Name = Name2).
  using FrozenEquiv = std::function<bool(const Term&, const Term&)>;

  /// `bindable` is the set of variable names that may receive bindings.
  explicit Matcher(const std::set<std::string>& bindable) {
    for (const std::string& name : bindable) owned_bindable_.insert(Intern(name));
    bindable_ = &owned_bindable_;
  }

  /// Non-owning fast path: `bindable` must outlive the matcher (or its next
  /// `Reset`). Residue application borrows each residue's precomputed
  /// symbol set, skipping a set copy on the optimizer's hottest path. A
  /// factory (not a constructor) so brace-init `Matcher({...})` never
  /// silently selects a null pointer.
  static Matcher Borrowing(const SymbolSet* bindable) {
    return Matcher(bindable, 0);
  }

  // bindable_ may point at owned_bindable_; copying/moving would leave it
  // dangling, and no caller needs either.
  Matcher(const Matcher&) = delete;
  Matcher& operator=(const Matcher&) = delete;

  void set_frozen_equiv(FrozenEquiv equiv) { frozen_equiv_ = std::move(equiv); }

  /// Drops every binding and borrows `bindable` from now on; the frozen
  /// equivalence stays. For matchers made by `Borrowing`.
  void Reset(const SymbolSet* bindable) {
    subst_.TruncateTo(0);
    bindable_ = bindable;
  }

  /// True if `var` may receive a binding.
  bool IsBindable(Symbol var) const { return bindable_->count(var) > 0; }

  /// `term` resolved through the current bindings (see
  /// Substitution::Resolve for how long the reference stays valid).
  const Term& Resolve(const Term& term) const { return subst_.Resolve(term); }

  /// Matches pattern term against a frozen target term.
  bool MatchTerm(const Term& pattern, const Term& target);

  /// Matches a pattern atom against a frozen target atom: predicates must
  /// agree by name/arity; comparisons must agree by operator. (Semantic
  /// implication between different comparison operators is the solver's
  /// job, not the matcher's.)
  bool MatchAtom(const Atom& pattern, const Atom& target);

  /// Matches literals: polarities must agree.
  bool MatchLiteral(const Literal& pattern, const Literal& target);

  /// Snapshot of the bindings for backtracking.
  size_t Mark() const { return subst_.size(); }

  /// Undoes all bindings made after `mark`.
  void RollbackTo(size_t mark);

  const Substitution& subst() const { return subst_; }

 private:
  Matcher(const SymbolSet* bindable, int) : bindable_(bindable) {}

  SymbolSet owned_bindable_;
  const SymbolSet* bindable_ = nullptr;
  Substitution subst_;  // bindings in the order they were made
  FrozenEquiv frozen_equiv_;
};

/// Generates globally fresh variable names ("_V1", "_V2", ...). Each
/// generator instance has its own counter; the prefix is configurable so
/// different phases produce recognizably distinct variables.
class FreshVarGen {
 public:
  explicit FreshVarGen(std::string prefix = "_V") : prefix_(std::move(prefix)) {}

  /// Returns a fresh name, e.g. "_V7".
  std::string Next() { return prefix_ + std::to_string(++counter_); }

  /// Returns a fresh variable term.
  Term NextVar() { return Term::Var(Next()); }

 private:
  std::string prefix_;
  uint64_t counter_ = 0;
};

}  // namespace sqo::datalog

#endif  // SQO_DATALOG_UNIFY_H_
