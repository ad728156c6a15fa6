#include "datalog/clause.h"

#include <gtest/gtest.h>

#include "datalog/parser.h"

namespace sqo::datalog {
namespace {

Clause Parse(const std::string& text) {
  auto result = ParseClauseText(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

Query ParseQ(const std::string& text) {
  auto result = ParseQueryText(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

TEST(ClauseTest, VariablesHeadFirstInOrder) {
  Clause c = Parse("Age > 30 <- faculty(X, Name, Age).");
  EXPECT_EQ(c.Variables(), (std::vector<std::string>{"Age", "X", "Name"}));
}

TEST(ClauseTest, RenamedApartIsConsistent) {
  Clause c = Parse("X = Y <- p(X, N), p(Y, N).");
  FreshVarGen gen("_C");
  Clause renamed = c.RenamedApart(&gen);
  // Shape is preserved.
  EXPECT_EQ(renamed.body.size(), 2u);
  // The shared variable N maps to one fresh name in both atoms.
  EXPECT_EQ(renamed.body[0].atom.args()[1], renamed.body[1].atom.args()[1]);
  // All variables are fresh.
  for (const std::string& v : renamed.Variables()) {
    EXPECT_EQ(v.substr(0, 2), "_C") << v;
  }
  // Head equality still relates the two OID variables.
  EXPECT_EQ(renamed.head->atom.lhs(), renamed.body[0].atom.args()[0]);
  EXPECT_EQ(renamed.head->atom.rhs(), renamed.body[1].atom.args()[0]);
}

TEST(ClauseTest, SubstitutedAppliesEverywhere) {
  Clause c = Parse("Age > 30 <- faculty(X, Age).");
  Substitution s;
  s.Bind("Age", Term::Int(40));
  Clause applied = c.Substituted(s);
  EXPECT_EQ(applied.head->atom.lhs(), Term::Int(40));
  EXPECT_EQ(applied.body[0].atom.args()[1], Term::Int(40));
}

TEST(ClauseTest, DenialToString) {
  Clause c = Parse("<- p(X), q(X).");
  EXPECT_TRUE(c.is_denial());
  EXPECT_EQ(c.ToString(), "false <- p(X), q(X).");
}

TEST(ClauseTest, FactToString) {
  Clause c = Parse("monotone(taxes_withheld, salary, increasing).");
  EXPECT_FALSE(c.is_denial());
  EXPECT_TRUE(c.body.empty());
}

TEST(QueryTest, VariablesAndComparisons) {
  Query q = ParseQ("q(Name) :- person(X, Name, Age), Age < 30.");
  EXPECT_EQ(q.Variables(), (std::vector<std::string>{"Name", "X", "Age"}));
  ASSERT_EQ(q.Comparisons().size(), 1u);
  EXPECT_EQ(q.Comparisons()[0].op(), CmpOp::kLt);
}

// The canonical key is CanonicalFingerprint, the hash of the canonical
// form the optimizer deduplicates rewritings by.
TEST(QueryTest, CanonicalKeyInvariantUnderRenaming) {
  Query a = ParseQ("q(Name) :- person(X, Name, Age), Age < 30.");
  Query b = ParseQ("q(M) :- person(Y, M, B), B < 30.");
  EXPECT_EQ(a.CanonicalFingerprint(), b.CanonicalFingerprint());
}

TEST(QueryTest, CanonicalKeyInvariantUnderReordering) {
  Query a = ParseQ("q(N) :- person(X, N, A), A < 30, takes(X, Y).");
  Query b = ParseQ("q(N) :- takes(X, Y), A < 30, person(X, N, A).");
  EXPECT_EQ(a.CanonicalFingerprint(), b.CanonicalFingerprint());
}

TEST(QueryTest, CanonicalKeyDistinguishesStructure) {
  Query a = ParseQ("q(N) :- person(X, N, A), A < 30.");
  Query b = ParseQ("q(N) :- person(X, N, A), A < 31.");
  Query c = ParseQ("q(N) :- person(X, N, A), A > 30.");
  Query d = ParseQ("q(A) :- person(X, N, A), A < 30.");
  EXPECT_NE(a.CanonicalFingerprint(), b.CanonicalFingerprint());
  EXPECT_NE(a.CanonicalFingerprint(), c.CanonicalFingerprint());
  EXPECT_NE(a.CanonicalFingerprint(), d.CanonicalFingerprint());
}

TEST(QueryTest, CanonicalKeySeesSharedVariables) {
  // Same shapes but different variable sharing.
  Query a = ParseQ("q(N) :- p(X, N), r(X, Y).");
  Query b = ParseQ("q(N) :- p(X, N), r(Z, Y).");
  EXPECT_NE(a.CanonicalFingerprint(), b.CanonicalFingerprint());
}

TEST(QueryTest, CanonicalFingerprintIgnoresMirroredEquality) {
  // A key IC implies both Z = W and W = Z: one restriction, one key.
  Query a = ParseQ("q(N) :- f(Z, N), f(W, N2), Z = W.");
  Query b = ParseQ("q(N) :- f(Z, N), f(W, N2), W = Z.");
  EXPECT_EQ(a.CanonicalFingerprint(), b.CanonicalFingerprint());
  // Renamed, and the comparison moved ahead of the atoms it relates.
  Query c = ParseQ("q(M) :- B = A, f(A, M), f(B, N2).");
  EXPECT_EQ(a.CanonicalFingerprint(), c.CanonicalFingerprint());
}

TEST(QueryTest, CanonicalFingerprintIgnoresMirroredDisequality) {
  Query a = ParseQ("q(X) :- p(X), X != 3.");
  Query b = ParseQ("q(X) :- p(X), 3 != X.");
  EXPECT_EQ(a.CanonicalFingerprint(), b.CanonicalFingerprint());
}

TEST(QueryTest, CanonicalFingerprintKeepsOperandOrderOfInequalities) {
  Query a = ParseQ("q(X) :- p(X, Y), X < Y.");
  Query b = ParseQ("q(X) :- p(X, Y), Y < X.");
  EXPECT_NE(a.CanonicalFingerprint(), b.CanonicalFingerprint());
}

TEST(QueryTest, SubstitutedAppliesToHead) {
  Query q = ParseQ("q(N) :- p(X, N).");
  Substitution s;
  s.Bind("N", Term::String("john"));
  Query applied = q.Substituted(s);
  EXPECT_EQ(applied.head_args[0], Term::String("john"));
}

}  // namespace
}  // namespace sqo::datalog
