#ifndef SQO_SQO_RESIDUE_H_
#define SQO_SQO_RESIDUE_H_

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "datalog/clause.h"
#include "datalog/signature.h"

namespace sqo::core {

/// A residue: the fragment of an integrity constraint left over after
/// partial subsumption against a relation template (paper §2, following
/// Chakravarthy–Grant–Minker). Attached to `relation`; at query time, if a
/// query atom unifies with `template_atom` and every literal of `remainder`
/// matches the rest of the query, then `head` is implied by the query
/// (`head == nullopt` means *false* is implied — the query is
/// contradictory).
struct Residue {
  /// Relation this residue is attached to.
  std::string relation;

  /// The (possibly partially instantiated) relation template. Template
  /// positions bound to constants during compilation restrict
  /// applicability: a residue computed from `taxes_withheld(O, 10%, V)`
  /// applies only to query atoms whose rate argument is 10%.
  datalog::Atom template_atom;

  /// Unmatched IC body literals that must be found in (or implied by) the
  /// query for the residue to fire.
  std::vector<datalog::Literal> remainder;

  /// The implied consequence; nullopt encodes a denial (false).
  std::optional<datalog::Literal> head;

  /// Label of the originating integrity constraint.
  std::string source;

  /// All variable names of the residue (template + remainder + head),
  /// precomputed by the semantic compiler after renaming the residue apart
  /// from any possible query variable (reserved "_R" prefix). This is the
  /// matcher's bindable set at application time.
  std::set<std::string> variables;

  /// `variables`, interned — borrowed by the application-time matcher so no
  /// per-application set copy happens. Filled by FinalizeForMatching.
  sqo::SymbolSet bindable_symbols;

  /// Distinct (predicate, polarity) pairs of the remainder's predicate
  /// literals. Remainder predicate literals only ever match query literals
  /// with the same predicate and polarity, so a query lacking any of these
  /// can never fire the residue — the optimizer's applicability gate skips
  /// the whole match attempt. Filled by FinalizeForMatching.
  std::vector<std::pair<sqo::Symbol, bool>> remainder_predicates;

  /// Per remainder literal: the mirror image of a comparison (`a < b` as
  /// `b > a`), which also matches a query comparison written the other way
  /// round; nullopt for predicates and for comparisons that are their own
  /// mirror. Filled by FinalizeForMatching.
  std::vector<std::optional<datalog::Atom>> remainder_flipped;

  /// True if a literal with `predicate` and `positive` polarity can match
  /// some remainder literal.
  bool RemainderMentions(sqo::Symbol predicate, bool positive) const {
    for (const auto& [pred, pol] : remainder_predicates) {
      if (pred == predicate && pol == positive) return true;
    }
    return false;
  }

  Residue() : template_atom(datalog::Atom::Pred("", {})) {}

  /// Precomputes the application-time acceleration fields above from
  /// `variables` and `remainder`. Called once per residue by the semantic
  /// compiler, after renaming apart.
  void FinalizeForMatching();

  /// `faculty(T1, T2, T3): {Age > 30 <- }` style rendering.
  std::string ToString() const;
};

/// Computes all residues of `ic` with respect to the relation `sig`, by
/// enumerating the non-empty subsets of the IC's positive body atoms over
/// `sig` and unifying each subset against a fresh template (the subsumption
/// tree of the partial-subsumption algorithm; each leaf with at least one
/// matched atom yields a residue). Unification is two-way: template
/// variables may bind to IC constants, producing instantiated templates.
///
/// Residues whose remainder equals the full body (nothing matched) are not
/// produced; a residue with an empty remainder is a relation-level
/// invariant (Example 1's `Age > 30 ←` on Faculty).
std::vector<Residue> ComputeResidues(const datalog::Clause& ic,
                                     const datalog::RelationSignature& sig);

}  // namespace sqo::core

#endif  // SQO_SQO_RESIDUE_H_
