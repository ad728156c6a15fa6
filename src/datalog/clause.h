#ifndef SQO_DATALOG_CLAUSE_H_
#define SQO_DATALOG_CLAUSE_H_

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/fingerprint.h"
#include "datalog/atom.h"
#include "datalog/substitution.h"
#include "datalog/unify.h"

namespace sqo::datalog {

/// An implication clause `Head ← Body`, the common shape of the paper's
/// rules and integrity constraints:
///
///   * comparison head:        Age > 30 ← faculty(X, Age)          (IC1, IC4)
///   * equality head:          X1 = X2 ← faculty(X1,N), faculty(X2,N)  (IC7)
///   * predicate head:         person(X,...) ← faculty(X,...)      (IC5)
///   * negated-predicate head: ¬faculty(X) ← person(X,A), A < 30   (IC6')
///   * no head (denial):       ← p(X), q(X)
///
/// Variables appearing only in the head are existentially quantified (paper
/// §4.2 footnote 1); variables in the body are universally quantified.
struct Clause {
  /// Optional label for diagnostics ("IC4", "asr_def", ...).
  std::string label;

  std::optional<Literal> head;
  std::vector<Literal> body;

  Clause() = default;
  Clause(std::optional<Literal> h, std::vector<Literal> b)
      : head(std::move(h)), body(std::move(b)) {}

  bool is_denial() const { return !head.has_value(); }

  /// Distinct variable names, head first then body, in occurrence order.
  std::vector<std::string> Variables() const;

  /// The same set, as a std::set (for Matcher construction).
  std::set<std::string> VariableSet() const;

  /// Returns a copy with every variable renamed through `gen` (consistent
  /// within the clause). Used to rename ICs apart from query variables.
  Clause RenamedApart(FreshVarGen* gen) const;

  /// Returns a copy with `subst` applied to head and body.
  Clause Substituted(const Substitution& subst) const;

  bool operator==(const Clause& other) const {
    return head == other.head && body == other.body;
  }

  /// `Age > 30 <- faculty(X, Age).` / `<- p(X).` (label not included).
  std::string ToString() const;
};

/// A conjunctive DATALOG query `name(head_args) ← body`, the Step-2 output:
/// `Q(Name1, City) ← student(X, Name2), takes(X, Y), ...`.
struct Query {
  std::string name = "q";
  std::vector<Term> head_args;
  std::vector<Literal> body;

  /// Distinct variable names across head and body, in occurrence order.
  std::vector<std::string> Variables() const;
  std::set<std::string> VariableSet() const;

  /// Positive body comparison atoms (the query's restriction set).
  std::vector<Atom> Comparisons() const;

  /// Returns a copy with `subst` applied to head args and body.
  Query Substituted(const Substitution& subst) const;

  bool operator==(const Query& other) const {
    return name == other.name && head_args == other.head_args && body == other.body;
  }

  /// `q(Name) :- student(X, Name), Age < 30.`
  std::string ToString() const;

  /// 128-bit hash of a canonical form for duplicate detection among
  /// equivalent rewritings: body literals are ordered under a canonical
  /// variable numbering that is insensitive to variable names, body order
  /// and the operand order of `=` and `!=`. Two queries with equal
  /// fingerprints are (up to hash collision) syntactically identical up to
  /// renaming, reordering and mirrored (dis)equalities; the converse need
  /// not hold for pathological self-similar bodies. The BFS dedup key on
  /// the optimizer's hot path (see DESIGN.md for the soundness argument).
  sqo::Fingerprint128 CanonicalFingerprint() const;

  /// Structural hash consistent with operator== (name, head args, body in
  /// order). NOT renaming-invariant; use CanonicalFingerprint for that.
  size_t Hash() const;
};

}  // namespace sqo::datalog

#endif  // SQO_DATALOG_CLAUSE_H_
