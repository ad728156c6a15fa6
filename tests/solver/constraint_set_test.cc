#include "solver/constraint_set.h"

#include <gtest/gtest.h>

#include <ostream>
#include <random>
#include <vector>

#include "datalog/parser.h"

namespace sqo::solver {
namespace {

using datalog::Atom;
using datalog::CmpOp;
using datalog::Term;

Atom Cmp(const char* lhs, CmpOp op, const char* rhs) {
  return Atom::Comparison(op, Term::Var(lhs), Term::Var(rhs));
}
Atom CmpC(const char* lhs, CmpOp op, double c) {
  return Atom::Comparison(op, Term::Var(lhs), Term::Double(c));
}

TEST(ConstraintSetTest, EmptyIsSatisfiable) {
  ConstraintSet cs;
  EXPECT_TRUE(cs.Satisfiable());
}

TEST(ConstraintSetTest, PaperExample1Contradiction) {
  // Age < 18 together with Age > 30 is the Section-2 contradiction.
  ConstraintSet cs;
  cs.Add(CmpC("Age", CmpOp::kLt, 18));
  EXPECT_TRUE(cs.Satisfiable());
  cs.Add(CmpC("Age", CmpOp::kGt, 30));
  EXPECT_FALSE(cs.Satisfiable());
}

TEST(ConstraintSetTest, Section51Contradiction) {
  // V < 1000 and V > 3000.
  ConstraintSet cs;
  cs.Add(CmpC("V", CmpOp::kLt, 1000));
  cs.Add(CmpC("V", CmpOp::kGt, 3000));
  EXPECT_FALSE(cs.Satisfiable());
}

TEST(ConstraintSetTest, TransitiveChains) {
  ConstraintSet cs;
  cs.Add(Cmp("A", CmpOp::kLt, "B"));
  cs.Add(Cmp("B", CmpOp::kLe, "C"));
  cs.Add(Cmp("C", CmpOp::kLt, "D"));
  EXPECT_TRUE(cs.Satisfiable());
  EXPECT_TRUE(cs.Implies(Cmp("A", CmpOp::kLt, "D")));
  EXPECT_TRUE(cs.Implies(Cmp("A", CmpOp::kNe, "D")));
  EXPECT_FALSE(cs.Implies(Cmp("D", CmpOp::kLe, "A")));
  cs.Add(Cmp("D", CmpOp::kLe, "A"));
  EXPECT_FALSE(cs.Satisfiable());
}

TEST(ConstraintSetTest, EqualityPropagation) {
  ConstraintSet cs;
  cs.Add(Cmp("X", CmpOp::kEq, "Y"));
  cs.Add(CmpC("Y", CmpOp::kLt, 5));
  EXPECT_TRUE(cs.Implies(CmpC("X", CmpOp::kLt, 5)));
  EXPECT_TRUE(cs.ImpliesEqual(Term::Var("X"), Term::Var("Y")));
  EXPECT_FALSE(cs.ImpliesEqual(Term::Var("X"), Term::Var("Z")));
}

TEST(ConstraintSetTest, SandwichForcesEquality) {
  ConstraintSet cs;
  cs.Add(Cmp("X", CmpOp::kLe, "Y"));
  cs.Add(Cmp("Y", CmpOp::kLe, "X"));
  EXPECT_TRUE(cs.Satisfiable());
  EXPECT_TRUE(cs.ImpliesEqual(Term::Var("X"), Term::Var("Y")));
  cs.Add(Cmp("X", CmpOp::kNe, "Y"));
  EXPECT_FALSE(cs.Satisfiable());
}

TEST(ConstraintSetTest, DisequalityAlone) {
  ConstraintSet cs;
  cs.Add(Cmp("X", CmpOp::kNe, "Y"));
  EXPECT_TRUE(cs.Satisfiable());
  EXPECT_FALSE(cs.Implies(Cmp("X", CmpOp::kEq, "Y")));
  EXPECT_TRUE(cs.Implies(Cmp("X", CmpOp::kNe, "Y")));
}

TEST(ConstraintSetTest, DenseSemanticsBetweenIntegers) {
  // X > 3 and X < 4 is satisfiable over dense domains (documented choice).
  ConstraintSet cs;
  cs.Add(CmpC("X", CmpOp::kGt, 3));
  cs.Add(CmpC("X", CmpOp::kLt, 4));
  EXPECT_TRUE(cs.Satisfiable());
}

TEST(ConstraintSetTest, ConstantsAreOrdered) {
  ConstraintSet cs;
  cs.Add(Atom::Comparison(CmpOp::kLe, Term::Var("X"), Term::Int(10)));
  EXPECT_TRUE(cs.Implies(Atom::Comparison(CmpOp::kLt, Term::Var("X"), Term::Int(20))));
  EXPECT_FALSE(cs.Implies(Atom::Comparison(CmpOp::kLt, Term::Var("X"), Term::Int(5))));
}

TEST(ConstraintSetTest, IntDoubleConstantsInterned) {
  ConstraintSet cs;
  cs.Add(Atom::Comparison(CmpOp::kEq, Term::Var("X"), Term::Int(3)));
  EXPECT_TRUE(cs.Implies(
      Atom::Comparison(CmpOp::kEq, Term::Var("X"), Term::Double(3.0))));
}

TEST(ConstraintSetTest, StringOrder) {
  ConstraintSet cs;
  cs.Add(Atom::Comparison(CmpOp::kLt, Term::Var("N"), Term::String("m")));
  EXPECT_TRUE(cs.Implies(
      Atom::Comparison(CmpOp::kLt, Term::Var("N"), Term::String("z"))));
  EXPECT_TRUE(cs.Implies(
      Atom::Comparison(CmpOp::kNe, Term::Var("N"), Term::String("zz"))));
}

TEST(ConstraintSetTest, EqualityWithTwoDifferentConstantsUnsat) {
  ConstraintSet cs;
  cs.Add(Atom::Comparison(CmpOp::kEq, Term::Var("X"), Term::Int(1)));
  cs.Add(Atom::Comparison(CmpOp::kEq, Term::Var("X"), Term::Int(2)));
  EXPECT_FALSE(cs.Satisfiable());
}

TEST(ConstraintSetTest, OidConstantsEqualityOnly) {
  ConstraintSet cs;
  cs.Add(Atom::Comparison(CmpOp::kEq, Term::Var("X"), Term::FromOid(sqo::Oid(1))));
  EXPECT_TRUE(cs.Implies(Atom::Comparison(CmpOp::kNe, Term::Var("X"),
                                          Term::FromOid(sqo::Oid(2)))));
}

TEST(ConstraintSetTest, UnsatImpliesEverything) {
  ConstraintSet cs;
  cs.Add(CmpC("X", CmpOp::kLt, 0));
  cs.Add(CmpC("X", CmpOp::kGt, 0));
  EXPECT_FALSE(cs.Satisfiable());
  EXPECT_TRUE(cs.Implies(Cmp("A", CmpOp::kEq, "B")));
}

TEST(ConstraintSetTest, StrictThroughNonStrict) {
  ConstraintSet cs;
  cs.Add(Cmp("A", CmpOp::kLe, "B"));
  cs.Add(Cmp("B", CmpOp::kLt, "C"));
  EXPECT_TRUE(cs.Implies(Cmp("A", CmpOp::kLt, "C")));
  EXPECT_FALSE(cs.Implies(Cmp("A", CmpOp::kLt, "B")));
}

TEST(ConstraintSetTest, GtGeFlipped) {
  ConstraintSet cs;
  cs.Add(Cmp("A", CmpOp::kGt, "B"));
  EXPECT_TRUE(cs.Implies(Cmp("B", CmpOp::kLt, "A")));
  EXPECT_TRUE(cs.Implies(Cmp("B", CmpOp::kLe, "A")));
  EXPECT_TRUE(cs.Implies(Cmp("A", CmpOp::kGe, "B")));
}

TEST(ConstraintSetTest, AddComparisonsFromLiterals) {
  auto q = datalog::ParseQueryText("q(X) :- p(X, A), A < 30, A > 10.");
  ASSERT_TRUE(q.ok());
  ConstraintSet cs;
  cs.AddComparisons(q->body);
  EXPECT_EQ(cs.size(), 2u);
  EXPECT_TRUE(cs.Implies(CmpC("A", CmpOp::kLt, 31)));
}

TEST(ConstraintSetTest, NonComparisonAtomIgnored) {
  ConstraintSet cs;
  EXPECT_FALSE(cs.Add(Atom::Pred("p", {Term::Var("X")})));
  EXPECT_EQ(cs.size(), 0u);
}

// ---- Projection (the Fourier–Motzkin step of IC inference) ----

TEST(ProjectionTest, EliminatesInteriorVariable) {
  ConstraintSet cs;
  cs.Add(Cmp("A", CmpOp::kLt, "B"));
  cs.Add(Cmp("B", CmpOp::kLe, "C"));
  std::vector<Atom> projected = cs.Project({"A", "C"});
  // The implied A < C must survive without B.
  ConstraintSet reprojected;
  for (const Atom& a : projected) reprojected.Add(a);
  EXPECT_TRUE(reprojected.Implies(Cmp("A", CmpOp::kLt, "C")));
  for (const Atom& a : projected) {
    std::vector<std::string> vars;
    a.CollectVariables(&vars);
    for (const std::string& v : vars) EXPECT_NE(v, "B");
  }
}

TEST(ProjectionTest, KeepsConstantsAndEqualities) {
  ConstraintSet cs;
  cs.Add(Cmp("X", CmpOp::kEq, "Y"));
  cs.Add(CmpC("Y", CmpOp::kGe, 30));
  std::vector<Atom> projected = cs.Project({"X"});
  ConstraintSet reprojected;
  for (const Atom& a : projected) reprojected.Add(a);
  EXPECT_TRUE(reprojected.Implies(CmpC("X", CmpOp::kGe, 30)));
}

TEST(ProjectionTest, TransitivelyReduced) {
  ConstraintSet cs;
  cs.Add(Cmp("A", CmpOp::kLt, "B"));
  cs.Add(Cmp("B", CmpOp::kLt, "C"));
  cs.Add(Cmp("A", CmpOp::kLt, "C"));  // redundant
  std::vector<Atom> projected = cs.Project({"A", "B", "C"});
  EXPECT_EQ(projected.size(), 2u);
}

TEST(ProjectionTest, EmptyOnUnsat) {
  ConstraintSet cs;
  cs.Add(CmpC("X", CmpOp::kLt, 0));
  cs.Add(CmpC("X", CmpOp::kGt, 0));
  EXPECT_TRUE(cs.Project({"X"}).empty());
}

// ---- Parameterized property sweep: Implies is consistent with adding the
// negation. ----

struct ImplicationCase {
  CmpOp given;
  double bound;
  CmpOp asked;
  double asked_bound;
  bool expect_implied;
};

// Names each case after its content, e.g. `x_gt_40_implies_x_gt_30`.
// Without it the test names print the struct's raw bytes, padding
// included, and change from build to build.
void PrintTo(const ImplicationCase& c, std::ostream* os) {
  auto name = [](CmpOp op) {
    switch (op) {
      case CmpOp::kEq:
        return "eq";
      case CmpOp::kNe:
        return "ne";
      case CmpOp::kLt:
        return "lt";
      case CmpOp::kLe:
        return "le";
      case CmpOp::kGt:
        return "gt";
      case CmpOp::kGe:
        return "ge";
    }
    return "op";
  };
  *os << "x_" << name(c.given) << "_" << c.bound
      << (c.expect_implied ? "_implies_x_" : "_does_not_imply_x_")
      << name(c.asked) << "_" << c.asked_bound;
}

class ImplicationSweep : public ::testing::TestWithParam<ImplicationCase> {};

TEST_P(ImplicationSweep, ImpliesMatchesNegationUnsat) {
  const ImplicationCase& c = GetParam();
  ConstraintSet cs;
  cs.Add(CmpC("X", c.given, c.bound));
  ASSERT_TRUE(cs.Satisfiable());
  EXPECT_EQ(cs.Implies(CmpC("X", c.asked, c.asked_bound)), c.expect_implied);
  // Cross-check: set plus negation is unsat iff implied.
  ConstraintSet with_neg;
  with_neg.Add(CmpC("X", c.given, c.bound));
  with_neg.Add(CmpC("X", datalog::NegateOp(c.asked), c.asked_bound));
  EXPECT_EQ(!with_neg.Satisfiable(), c.expect_implied);
}

INSTANTIATE_TEST_SUITE_P(
    Bounds, ImplicationSweep,
    ::testing::Values(
        ImplicationCase{CmpOp::kGt, 40, CmpOp::kGt, 30, true},
        ImplicationCase{CmpOp::kGt, 40, CmpOp::kGe, 40, true},
        ImplicationCase{CmpOp::kGt, 40, CmpOp::kGt, 40, true},
        ImplicationCase{CmpOp::kGt, 40, CmpOp::kGt, 50, false},
        ImplicationCase{CmpOp::kGe, 40, CmpOp::kGt, 40, false},
        ImplicationCase{CmpOp::kGe, 40, CmpOp::kGe, 40, true},
        ImplicationCase{CmpOp::kLt, 10, CmpOp::kLe, 10, true},
        ImplicationCase{CmpOp::kLt, 10, CmpOp::kLt, 20, true},
        ImplicationCase{CmpOp::kLt, 10, CmpOp::kNe, 10, true},
        ImplicationCase{CmpOp::kLt, 10, CmpOp::kNe, 5, false},
        ImplicationCase{CmpOp::kEq, 7, CmpOp::kLe, 7, true},
        ImplicationCase{CmpOp::kEq, 7, CmpOp::kGe, 7, true},
        ImplicationCase{CmpOp::kEq, 7, CmpOp::kLt, 7, false},
        ImplicationCase{CmpOp::kNe, 7, CmpOp::kNe, 7, true},
        ImplicationCase{CmpOp::kNe, 7, CmpOp::kLt, 7, false}));

// Property: Project never loses implications among kept variables.
class ProjectionSweep : public ::testing::TestWithParam<int> {};

TEST_P(ProjectionSweep, ProjectionPreservesKeptImplications) {
  const int seed = GetParam();
  // Build a deterministic pseudo-random chain over 5 variables.
  const char* vars[5] = {"A", "B", "C", "D", "E"};
  ConstraintSet cs;
  unsigned state = static_cast<unsigned>(seed) * 2654435761u + 1;
  auto next = [&state]() {
    state = state * 1664525u + 1013904223u;
    return state >> 16;
  };
  for (int i = 0; i < 6; ++i) {
    int a = static_cast<int>(next() % 5);
    int b = static_cast<int>(next() % 5);
    if (a == b) continue;
    CmpOp op = (next() % 2 == 0) ? CmpOp::kLt : CmpOp::kLe;
    cs.Add(Cmp(vars[a], op, vars[b]));
  }
  if (!cs.Satisfiable()) GTEST_SKIP() << "random chain unsatisfiable";
  std::vector<Atom> projected = cs.Project({"A", "C", "E"});
  ConstraintSet reduced;
  for (const Atom& a : projected) reduced.Add(a);
  // Every implication among kept variables must be preserved.
  const char* kept[3] = {"A", "C", "E"};
  for (const char* x : kept) {
    for (const char* y : kept) {
      if (x == y) continue;
      for (CmpOp op : {CmpOp::kLt, CmpOp::kLe, CmpOp::kEq}) {
        if (cs.Implies(Cmp(x, op, y))) {
          EXPECT_TRUE(reduced.Implies(Cmp(x, op, y)))
              << x << " " << static_cast<int>(op) << " " << y << " seed "
              << seed;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProjectionSweep, ::testing::Range(1, 25));

// The view must answer implications against constants it never interned —
// `Age >= 30` entails `Age >= 21` even though 21 has no node. (Regression:
// the rewrite verifier's chase skips asserting already-implied guards, so
// its entailment checks routinely compare against absent constants.)
TEST(EqualityViewTest, ImpliesBridgesMissingConstants) {
  ConstraintSet cs;
  cs.Add(CmpC("Age", CmpOp::kGe, 30));
  const ConstraintSet::EqualityView view(cs);
  EXPECT_TRUE(view.Implies(CmpC("Age", CmpOp::kGe, 21)));
  EXPECT_TRUE(view.Implies(CmpC("Age", CmpOp::kGt, 21)));
  EXPECT_TRUE(view.Implies(CmpC("Age", CmpOp::kNe, 21)));
  // Age = 30 is still possible, so strictly-above-30 and above-31 fail.
  EXPECT_FALSE(view.Implies(CmpC("Age", CmpOp::kGe, 31)));
  EXPECT_FALSE(view.Implies(CmpC("Age", CmpOp::kGt, 30)));
  // No equal-valued node can exist for a missing constant.
  EXPECT_FALSE(view.Implies(CmpC("Age", CmpOp::kEq, 21)));
  // Constant-on-the-left comparisons flip onto the same path.
  EXPECT_TRUE(view.Implies(
      Atom::Comparison(CmpOp::kLe, Term::Double(21), Term::Var("Age"))));
  // Agreement with the exact (copy-and-negate) decision procedure.
  for (CmpOp op : {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt, CmpOp::kGe, CmpOp::kEq,
                   CmpOp::kNe}) {
    for (double c : {0.0, 21.0, 29.5, 30.0, 31.0, 100.0}) {
      EXPECT_EQ(view.Implies(CmpC("Age", op, c)),
                cs.Implies(CmpC("Age", op, c)))
          << static_cast<int>(op) << " " << c;
    }
  }
}

TEST(EqualityViewTest, MissingConstantUpperBound) {
  ConstraintSet cs;
  cs.Add(CmpC("Salary", CmpOp::kLt, 40000));
  const ConstraintSet::EqualityView view(cs);
  EXPECT_TRUE(view.Implies(CmpC("Salary", CmpOp::kLt, 50000)));
  EXPECT_TRUE(view.Implies(CmpC("Salary", CmpOp::kLe, 40001)));
  EXPECT_TRUE(view.Implies(CmpC("Salary", CmpOp::kNe, 40001)));
  EXPECT_FALSE(view.Implies(CmpC("Salary", CmpOp::kLt, 39999)));
  // A variable the set has never seen satisfies nothing.
  EXPECT_FALSE(view.Implies(CmpC("Other", CmpOp::kLt, 50000)));
}

// A disequality turns an order bound strict only through the negation the
// decision procedure adds: X ≤ Q ≤ P ≤ Y with P ≠ Q forces X < Y and
// X ≠ Y, though the closure alone records only X ≤ Y.
TEST(EqualityViewTest, DisequalityMakesABoundStrict) {
  ConstraintSet cs;
  cs.Add(Cmp("X", CmpOp::kLe, "Q"));
  cs.Add(Cmp("Q", CmpOp::kLe, "P"));
  cs.Add(Cmp("P", CmpOp::kLe, "Y"));
  cs.Add(Cmp("P", CmpOp::kNe, "Q"));
  const ConstraintSet::EqualityView view(cs);
  for (CmpOp op : {CmpOp::kLt, CmpOp::kNe}) {
    EXPECT_TRUE(cs.Implies(Cmp("X", op, "Y")));
    EXPECT_TRUE(view.Implies(Cmp("X", op, "Y")));
  }
  EXPECT_TRUE(view.Implies(Cmp("Y", CmpOp::kGt, "X")));
  EXPECT_FALSE(view.Implies(Cmp("Y", CmpOp::kLt, "X")));
}

// The view answers every implication from one closure; it must agree with
// the copy-and-negate procedure on arbitrary sets: unsatisfiable ones,
// var–var atoms, numeric and string constants, and probes over terms the
// set never saw.
TEST(EqualityViewTest, ImpliesEqualsConstraintSetImpliesOnRandomSets) {
  const std::vector<Term> seen = {
      Term::Var("X"),    Term::Var("Y"),        Term::Var("Z"),
      Term::Var("W"),    Term::Int(1),          Term::Int(5),
      Term::Double(2.5), Term::String("a"),     Term::String("m")};
  std::vector<Term> probes = seen;
  for (Term t : {Term::Var("Unseen"), Term::Int(3), Term::Double(5.0),
                 Term::Int(9), Term::String("k"), Term::String("z")}) {
    probes.push_back(std::move(t));
  }
  const CmpOp ops[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                       CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
  std::mt19937_64 rng(20260419);
  auto pick = [&](size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
  };
  size_t unsat = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    ConstraintSet cs;
    const size_t n = pick(7);
    for (size_t k = 0; k < n; ++k) {
      cs.AddConstraint(ops[pick(6)], seen[pick(seen.size())],
                       seen[pick(seen.size())]);
    }
    if (!cs.Satisfiable()) ++unsat;
    const ConstraintSet::EqualityView view(cs);
    for (int p = 0; p < 12; ++p) {
      const Atom probe =
          Atom::Comparison(ops[pick(6)], probes[pick(probes.size())],
                           probes[pick(probes.size())]);
      ASSERT_EQ(view.Implies(probe), cs.Implies(probe))
          << cs.ToString() << " |= " << probe.ToString();
      if (probe.op() == CmpOp::kEq) {
        ASSERT_EQ(view.Equal(probe.lhs(), probe.rhs()),
                  cs.ImpliesEqual(probe.lhs(), probe.rhs()))
            << cs.ToString() << " |= " << probe.ToString();
      }
    }
  }
  EXPECT_GT(unsat, 100u);
}

}  // namespace
}  // namespace sqo::solver
