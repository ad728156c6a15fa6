#ifndef SQO_SOLVER_CONSTRAINT_SET_H_
#define SQO_SOLVER_CONSTRAINT_SET_H_

#include <set>
#include <string>
#include <vector>

#include "datalog/atom.h"
#include "datalog/term.h"

namespace sqo::solver {

/// A decision procedure for conjunctions of the paper's evaluable atoms:
/// `X θ Y`, `A θ k`, `A θ B` with θ ∈ {=, ≠, <, ≤, >, ≥} over variables and
/// typed constants (numerics ordered numerically, strings lexicographically,
/// booleans and OIDs equality-only).
///
/// This is the engine behind:
///   * contradiction detection (§5.1): query + residue comparisons unsat;
///   * restriction redundancy: an added comparison already implied;
///   * key-based equality reasoning (§5.3): `Implies(Z = W)`;
///   * IC inference: `Project` eliminates interior variables when two ICs
///     are resolved (deriving IC3 from IC1 + IC2 + a fact).
///
/// Numeric domains are treated as dense (rationals): `X > 3 ∧ X < 4` is
/// satisfiable. For integer-typed attributes this is conservative — the
/// solver may fail to detect an integral contradiction, but every
/// contradiction it does report is genuine, which is the soundness direction
/// SQO requires. Booleans are equality-only with no domain-size reasoning.
///
/// Complexity: Floyd–Warshall closure over the order graph, O(n³) in the
/// number of distinct terms — n is small (a query's comparison set).
class ConstraintSet {
 public:
  ConstraintSet() = default;

  /// Adds a comparison atom. Non-comparison atoms are ignored (returns
  /// false); callers feed only the evaluable subset of a query body.
  bool Add(const datalog::Atom& atom);

  /// Adds every positive comparison literal in `literals`.
  void AddComparisons(const std::vector<datalog::Literal>& literals);

  /// Asserts `lhs op rhs` directly.
  void AddConstraint(datalog::CmpOp op, const datalog::Term& lhs,
                     const datalog::Term& rhs);

  /// True iff the conjunction has a model (dense-order semantics above).
  bool Satisfiable() const;

  /// True iff the conjunction entails `atom` (a comparison). An unsat set
  /// entails everything; callers interested in the distinction should check
  /// `Satisfiable()` first.
  bool Implies(const datalog::Atom& atom) const;

  /// True iff the conjunction entails `lhs = rhs`.
  bool ImpliesEqual(const datalog::Term& lhs, const datalog::Term& rhs) const;

  /// Projects the constraint set onto the given variables (plus all
  /// constants): returns a set of comparison atoms over `keep_vars` and
  /// constants that is equivalent to the original set restricted to those
  /// variables — the bounded Fourier–Motzkin step of IC inference. The
  /// result is transitively reduced: atoms implied by the remaining ones
  /// are dropped. Requires the set to be satisfiable.
  std::vector<datalog::Atom> Project(const std::set<std::string>& keep_vars) const;

  /// The number of constraints added so far.
  size_t size() const { return constraints_.size(); }

  class EqualityView;

  /// Renders the raw constraint list for diagnostics.
  std::string ToString() const;

 private:
  // Pairwise relation lattice element: what the closure knows about (u, v).
  enum class Rel : uint8_t { kNone = 0, kLe = 1, kLt = 2 };

  struct RawConstraint {
    datalog::CmpOp op;
    int lhs;
    int rhs;
  };

  struct Closure {
    // at(u, v): strongest derived order u ? v, row-major over n nodes.
    size_t n = 0;
    std::vector<Rel> rel;
    // Pairs asserted distinct.
    std::vector<std::pair<int, int>> diseq;
    bool unsat = false;

    Rel at(size_t u, size_t v) const { return rel[u * n + v]; }
    Rel& at(size_t u, size_t v) { return rel[u * n + v]; }

    bool ForcedEqual(int u, int v) const {
      return u == v || (at(u, v) == Rel::kLe && at(v, u) == Rel::kLe);
    }
  };

  /// Interns `term`, returning its node id. Constants are deduplicated by
  /// semantic equality (3 and 3.0 share a node).
  int NodeId(const datalog::Term& term);

  /// Looks up an existing node id without interning; -1 if absent.
  int FindNode(const datalog::Term& term) const;

  /// Builds the Floyd–Warshall closure over current constraints plus the
  /// implicit order among comparable constants.
  Closure BuildClosure() const;

  std::vector<datalog::Term> nodes_;
  std::vector<RawConstraint> constraints_;
};

/// A snapshot answering forced-equality queries in O(1) after one closure
/// computation — the hot path of residue matching modulo the query's
/// equality theory (ImpliesEqual builds the closure per call; this builds
/// it once). The viewed set must outlive the view and not change.
class ConstraintSet::EqualityView {
 public:
  explicit EqualityView(const ConstraintSet& set)
      : set_(set), closure_(set.BuildClosure()) {}

  /// True iff the set entails a = b (or the set is unsatisfiable). Terms
  /// unknown to the set are equal only to themselves.
  bool Equal(const datalog::Term& a, const datalog::Term& b) const {
    if (a == b) return true;
    if (closure_.unsat) return true;
    int u = set_.FindNode(a);
    int v = set_.FindNode(b);
    if (u < 0 || v < 0) return false;
    return closure_.ForcedEqual(u, v);
  }

  /// True iff the set entails `a op b`. Exact (matches
  /// ConstraintSet::Implies) but answered from the precomputed closure.
  bool Implies(const datalog::Atom& comparison) const;
  bool Implies(datalog::CmpOp op, const datalog::Term& a,
               const datalog::Term& b) const;

 private:
  /// The strongest order the set plus seeds give from `x` to `y`; `xi` and
  /// `yi` are their nodes, or -1 for a constant the set never interned.
  Rel Reach(const datalog::Term& x, int xi, const datalog::Term& y,
            int yi) const;

  /// Whether adding `s ≤ t` (and `t ≤ s` too when `both`) to a set with no
  /// strict cycle through the new edges forces some asserted-disequal pair
  /// equal: the negations of `<`, `>` and `≠` add exactly these edges, and
  /// with no strict cycle a mutual reachability is a forced equality.
  bool EdgeForcesDisequalPair(int s, int t, bool both) const;

  const ConstraintSet& set_;
  Closure closure_;
};

}  // namespace sqo::solver

#endif  // SQO_SOLVER_CONSTRAINT_SET_H_
