#ifndef SQO_DATALOG_SUBSTITUTION_H_
#define SQO_DATALOG_SUBSTITUTION_H_

#include <string>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "datalog/atom.h"
#include "datalog/term.h"

namespace sqo::datalog {

/// A substitution: a finite mapping from variable names to terms.
///
/// Bindings are applied with path compression semantics: `Apply` follows
/// chains (X ↦ Y, Y ↦ 3 gives Apply(X) = 3) so composition never needs an
/// explicit pass. The bindings are a flat vector in binding order keyed by
/// interned symbols: substitutions here bind a clause's worth of variables,
/// so a linear probe of pointer compares beats hashing, and binding and
/// undoing a binding reuse the vector's storage instead of allocating a
/// node. `ToString` sorts for deterministic output.
class Substitution {
 public:
  Substitution() = default;

  bool empty() const { return bindings_.empty(); }
  size_t size() const { return bindings_.size(); }

  /// True if `var` has a binding (possibly to another variable).
  bool Contains(const std::string& var) const { return Contains(Intern(var)); }
  bool Contains(Symbol var) const { return Lookup(var) != nullptr; }

  /// Binds `var` to `term`. Overwrites an existing binding; callers that
  /// need unification semantics should use `Unify`/`Match` instead of
  /// binding directly.
  void Bind(const std::string& var, Term term) {
    Bind(Intern(var), std::move(term));
  }
  void Bind(Symbol var, Term term);

  /// Resolves `term` through the substitution, following variable chains.
  /// An unbound variable resolves to itself. The reference points at
  /// `term` or into the substitution, and stays valid until the next
  /// binding is added or removed.
  const Term& Resolve(const Term& term) const;

  /// Resolve, as a copy.
  Term Apply(const Term& term) const { return Resolve(term); }

  /// Applies to every argument of `atom`.
  Atom ApplyToAtom(const Atom& atom) const;

  /// Applies to the literal's atom, preserving polarity.
  Literal ApplyToLiteral(const Literal& literal) const;

  /// Removes the binding for `var` if present.
  void EraseBinding(const std::string& var) { EraseBinding(Intern(var)); }
  void EraseBinding(Symbol var);

  /// Keeps the first `n` bindings in binding order and drops the rest —
  /// the matcher's backtracking step, valid because the matcher only ever
  /// adds bindings for unbound variables.
  void TruncateTo(size_t n) {
    bindings_.erase(bindings_.begin() + static_cast<long>(n), bindings_.end());
  }

  /// Raw binding (unresolved), or nullptr if unbound.
  const Term* Lookup(const std::string& var) const {
    return Lookup(Intern(var));
  }
  const Term* Lookup(Symbol var) const {
    for (const auto& [bound, term] : bindings_) {
      if (bound == var) return &term;
    }
    return nullptr;
  }

  /// `{X -> 3, Y -> Z}`, sorted by variable name.
  std::string ToString() const;

 private:
  std::vector<std::pair<Symbol, Term>> bindings_;
};

}  // namespace sqo::datalog

#endif  // SQO_DATALOG_SUBSTITUTION_H_
