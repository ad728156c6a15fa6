#include "sqo/optimizer.h"

#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "odl/parser.h"
#include "workload/university.h"

namespace sqo::core {
namespace {

using datalog::Literal;
using datalog::Query;

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ast = odl::ParseOdl(workload::UniversityOdl());
    ASSERT_TRUE(ast.ok());
    auto schema = odl::Schema::Resolve(*ast);
    ASSERT_TRUE(schema.ok());
    auto translated = translate::TranslateSchema(*schema);
    ASSERT_TRUE(translated.ok());
    schema_ = std::make_unique<translate::TranslatedSchema>(
        std::move(translated).value());

    std::vector<AsrDefinition> registry;
    ASSERT_TRUE(RegisterAsr(workload::UniversityAsr(), schema_.get(), &registry)
                    .ok());
    auto user = datalog::ParseProgram(workload::UniversityIcs(),
                                      &schema_->catalog);
    ASSERT_TRUE(user.ok()) << user.status().ToString();
    std::vector<datalog::Clause> ics = *user;
    for (const AsrDefinition& def : registry) ics.push_back(def.view);
    auto compiled = CompileSemantics(schema_.get(), std::move(ics),
                                     std::move(registry), {});
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    compiled_ = std::make_unique<CompiledSchema>(std::move(compiled).value());
  }

  Query ParseQ(const std::string& text) {
    auto q = datalog::ParseQueryText(text, &schema_->catalog);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *q;
  }

  static bool HasConsequence(const std::vector<Consequence>& cs,
                             const std::string& rendered) {
    for (const Consequence& c : cs) {
      if (c.literal.ToString() == rendered) return true;
    }
    return false;
  }

  std::unique_ptr<translate::TranslatedSchema> schema_;
  std::unique_ptr<CompiledSchema> compiled_;
};

TEST_F(OptimizerTest, InvariantConsequenceFromSingleAtom) {
  Optimizer opt(compiled_.get());
  Query q = ParseQ("q(S) :- faculty(oid: X, salary: S).");
  auto consequences = opt.ImpliedConsequences(q);
  EXPECT_TRUE(HasConsequence(consequences, "S > 40000"));
  EXPECT_TRUE(HasConsequence(consequences, "Age >= 30") ||
              !consequences.empty());
}

TEST_F(OptimizerTest, MethodBoundConsequence) {
  Optimizer opt(compiled_.get());
  Query q = ParseQ(
      "q(V) :- faculty(oid: Z), taxes_withheld(Z, 10%, V).");
  auto consequences = opt.ImpliedConsequences(q);
  EXPECT_TRUE(HasConsequence(consequences, "V > 3000"))
      << "IC3 residue did not fire";
}

TEST_F(OptimizerTest, MethodBoundNotAppliedForOtherRate) {
  Optimizer opt(compiled_.get());
  Query q = ParseQ("q(V) :- faculty(oid: Z), taxes_withheld(Z, 20%, V).");
  auto consequences = opt.ImpliedConsequences(q);
  EXPECT_FALSE(HasConsequence(consequences, "V > 3000"));
}

TEST_F(OptimizerTest, KeyConsequenceModuloEqualityTheory) {
  Optimizer opt(compiled_.get());
  Query q = ParseQ(
      "q(X1, X2) :- faculty(oid: X1, name: N1), faculty(oid: X2, name: N2), "
      "N1 = N2.");
  auto consequences = opt.ImpliedConsequences(q);
  EXPECT_TRUE(HasConsequence(consequences, "X1 = X2") ||
              HasConsequence(consequences, "X2 = X1"));
}

TEST_F(OptimizerTest, ContradictionDetected) {
  Optimizer opt(compiled_.get());
  Query q = ParseQ(
      "q(V) :- faculty(oid: Z), taxes_withheld(Z, 10%, V), V < 1000.");
  auto outcome = opt.Optimize(q);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->contradiction);
  EXPECT_NE(outcome->contradiction_reason.find("V > 3000"), std::string::npos);
}

TEST_F(OptimizerTest, SyntacticContradictionDetected) {
  Optimizer opt(compiled_.get());
  Query q = ParseQ("q(X) :- person(oid: X, age: A), A < 10, A > 20.");
  auto outcome = opt.Optimize(q);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->contradiction);
}

TEST_F(OptimizerTest, NoFalseContradiction) {
  Optimizer opt(compiled_.get());
  Query q = ParseQ(
      "q(V) :- faculty(oid: Z), taxes_withheld(Z, 10%, V), V > 5000.");
  auto outcome = opt.Optimize(q);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->contradiction);
}

TEST_F(OptimizerTest, ScopeReductionAddsNegatedSubclass) {
  Optimizer opt(compiled_.get());
  Query q = ParseQ("q(N) :- person(oid: X, name: N, age: A), A < 30.");
  auto outcome = opt.Optimize(q);
  ASSERT_TRUE(outcome.ok());
  bool found = false;
  for (const Rewriting& rw : outcome->equivalents) {
    for (const Literal& lit : rw.query.body) {
      if (!lit.positive && lit.atom.is_predicate() &&
          lit.atom.predicate() == "faculty") {
        found = true;
      }
    }
  }
  EXPECT_TRUE(found) << "§5.2 scope reduction missing";
}

TEST_F(OptimizerTest, ScopeReductionRequiresApplicableRange) {
  // Age >= 30 in the query: the contrapositive cannot fire.
  Optimizer opt(compiled_.get());
  Query q = ParseQ("q(N) :- person(oid: X, name: N, age: A), A > 50.");
  auto outcome = opt.Optimize(q);
  ASSERT_TRUE(outcome.ok());
  for (const Rewriting& rw : outcome->equivalents) {
    for (const Literal& lit : rw.query.body) {
      EXPECT_TRUE(lit.positive || lit.atom.predicate() != "faculty")
          << rw.query.ToString();
    }
  }
}

TEST_F(OptimizerTest, MergeProducesOidUnifiedVariant) {
  Optimizer opt(compiled_.get());
  Query q = ParseQ(
      "q(X1, X2) :- faculty(oid: X1, name: N1), faculty(oid: X2, name: N2), "
      "N1 = N2.");
  auto outcome = opt.Optimize(q);
  ASSERT_TRUE(outcome.ok());
  // Some alternative has a single faculty atom and no name comparison:
  // the fully reduced §5.3 form (note both head vars collapse).
  bool fully_merged = false;
  for (const Rewriting& rw : outcome->equivalents) {
    size_t faculty_atoms = 0, comparisons = 0;
    for (const Literal& lit : rw.query.body) {
      if (lit.atom.is_predicate() && lit.atom.predicate() == "faculty") {
        ++faculty_atoms;
      }
      if (lit.atom.is_comparison()) ++comparisons;
    }
    if (faculty_atoms == 1 && comparisons == 0) fully_merged = true;
  }
  EXPECT_TRUE(fully_merged);
}

TEST_F(OptimizerTest, AsrFoldRewritesPath) {
  Optimizer opt(compiled_.get());
  Query q = ParseQ(
      "q(W) :- student(oid: X, name: N), takes(X, Y), is_section_of(Y, Z), "
      "has_sections(Z, V), has_ta(V, W), N = \"james\".");
  auto outcome = opt.Optimize(q);
  ASSERT_TRUE(outcome.ok());
  bool folded = false;
  for (const Rewriting& rw : outcome->equivalents) {
    bool has_asr = false, has_takes = false;
    for (const Literal& lit : rw.query.body) {
      if (!lit.atom.is_predicate()) continue;
      if (lit.atom.predicate() == "asr_student_ta") has_asr = true;
      if (lit.atom.predicate() == "takes") has_takes = true;
    }
    if (has_asr && !has_takes) folded = true;
  }
  EXPECT_TRUE(folded) << "§5.4 Q' fold missing";
}

TEST_F(OptimizerTest, AsrFoldBlockedWhenInteriorProjected) {
  // Projecting the section variable Y blocks the full fold.
  Optimizer opt(compiled_.get());
  Query q = ParseQ(
      "q(Y) :- student(oid: X, name: N), takes(X, Y), is_section_of(Y, Z), "
      "has_sections(Z, V), has_ta(V, W), N = \"james\".");
  auto outcome = opt.Optimize(q);
  ASSERT_TRUE(outcome.ok());
  for (const Rewriting& rw : outcome->equivalents) {
    bool has_asr = false, has_takes = false;
    for (const Literal& lit : rw.query.body) {
      if (!lit.atom.is_predicate()) continue;
      if (lit.atom.predicate() == "asr_student_ta") has_asr = true;
      if (lit.atom.predicate() == "takes") has_takes = true;
    }
    EXPECT_TRUE(!has_asr || has_takes) << rw.query.ToString();
  }
}

TEST_F(OptimizerTest, JoinIntroductionViaIc9ThenPartialFold) {
  // §5.4 Q1 → Q1': has_ta introduced by IC9, then the 3-hop prefix folds.
  Optimizer opt(compiled_.get());
  Query q = ParseQ(
      "q(V) :- student(oid: X, name: N), takes(X, Y), is_section_of(Y, Z), "
      "has_sections(Z, V), N = \"johnson\".");
  auto outcome = opt.Optimize(q);
  ASSERT_TRUE(outcome.ok());
  bool q1_prime = false;
  for (const Rewriting& rw : outcome->equivalents) {
    bool has_asr = false, has_ta = false, has_takes = false;
    for (const Literal& lit : rw.query.body) {
      if (!lit.atom.is_predicate()) continue;
      if (lit.atom.predicate() == "asr_student_ta") has_asr = true;
      if (lit.atom.predicate() == "has_ta") has_ta = true;
      if (lit.atom.predicate() == "takes") has_takes = true;
    }
    if (has_asr && has_ta && !has_takes) q1_prime = true;
  }
  EXPECT_TRUE(q1_prime) << "§5.4 Q1' not produced";
}

TEST_F(OptimizerTest, RestrictionRemovalDropsImpliedComparison) {
  Optimizer opt(compiled_.get());
  // Salary > 20K is implied by IC1's Salary > 40K.
  Query q = ParseQ("q(S) :- faculty(oid: X, salary: S), S > 20K.");
  auto outcome = opt.Optimize(q);
  ASSERT_TRUE(outcome.ok());
  bool removed = false;
  for (const Rewriting& rw : outcome->equivalents) {
    if (rw.query.Comparisons().empty()) removed = true;
  }
  EXPECT_TRUE(removed);
}

TEST_F(OptimizerTest, NonImpliedRestrictionIsKept) {
  Optimizer opt(compiled_.get());
  Query q = ParseQ("q(S) :- faculty(oid: X, salary: S), S > 60K.");
  auto outcome = opt.Optimize(q);
  ASSERT_TRUE(outcome.ok());
  for (const Rewriting& rw : outcome->equivalents) {
    EXPECT_FALSE(rw.query.Comparisons().empty()) << rw.query.ToString();
  }
}

// A consequence that relied on a fact only the removed comparison supplied
// does not hold without it: S >= 70K is implied by S > 80K alone, so the
// derived S > 90K must not make S > 80K look redundant.
TEST_F(OptimizerTest, RemovalRechecksTheFactsOfConsequences) {
  auto user = datalog::ParseProgram(
      "gap: Salary > 90K <- faculty(oid: X, salary: Salary), Salary >= 70K.",
      &schema_->catalog);
  ASSERT_TRUE(user.ok()) << user.status().ToString();
  auto compiled = CompileSemantics(schema_.get(), *user, {});
  ASSERT_TRUE(compiled.ok());
  Optimizer opt(&*compiled);
  Query q = ParseQ("q(S) :- faculty(oid: X, salary: S), S > 80K.");
  auto outcome = opt.Optimize(q);
  ASSERT_TRUE(outcome.ok());
  bool strengthened = false;
  for (const Rewriting& rw : outcome->equivalents) {
    EXPECT_FALSE(rw.query.Comparisons().empty()) << rw.query.ToString();
    strengthened = strengthened || rw.query.ToString().find("S > 90000") !=
                                       std::string::npos;
  }
  EXPECT_TRUE(strengthened);
}

TEST_F(OptimizerTest, OriginalIsAlwaysFirstAlternative) {
  Optimizer opt(compiled_.get());
  Query q = ParseQ("q(N) :- person(oid: X, name: N, age: A), A < 30.");
  auto outcome = opt.Optimize(q);
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome->equivalents.empty());
  EXPECT_EQ(outcome->equivalents[0].query.ToString(), q.ToString());
  EXPECT_TRUE(outcome->equivalents[0].derivation.empty());
}

TEST_F(OptimizerTest, AlternativesAreDeduplicated) {
  Optimizer opt(compiled_.get());
  Query q = ParseQ("q(N) :- person(oid: X, name: N, age: A), A < 30.");
  auto outcome = opt.Optimize(q);
  ASSERT_TRUE(outcome.ok());
  std::set<Fingerprint128> keys;
  for (const Rewriting& rw : outcome->equivalents) {
    EXPECT_TRUE(keys.insert(rw.query.CanonicalFingerprint()).second)
        << "duplicate: " << rw.query.ToString();
  }
}

TEST_F(OptimizerTest, MaxAlternativesRespected) {
  OptimizerOptions options;
  options.max_alternatives = 3;
  options.reduce_to_fixpoint = false;
  Optimizer opt(compiled_.get(), options);
  Query q = ParseQ(
      "q(S1) :- student(oid: S1), takes(S1, Y1), is_section_of(Y1, C1), "
      "has_sections(C1, Y2), has_ta(Y2, T1).");
  auto outcome = opt.Optimize(q);
  ASSERT_TRUE(outcome.ok());
  EXPECT_LE(outcome->equivalents.size(), 3u);
}

TEST_F(OptimizerTest, UserDenialIcTriggersContradiction) {
  // Compile a catalog whose only user IC is a denial: no TA may also be
  // enrolled in the section they assist.
  auto user = datalog::ParseProgram(
      "no_self: <- assists(T, S), takes(T, S).", &schema_->catalog);
  ASSERT_TRUE(user.ok()) << user.status().ToString();
  auto compiled = CompileSemantics(schema_.get(), *user, {});
  ASSERT_TRUE(compiled.ok());
  Optimizer opt(&*compiled);
  Query q = ParseQ("q(T) :- assists(T, S), takes(T, S).");
  auto outcome = opt.Optimize(q);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->contradiction);
  EXPECT_NE(outcome->contradiction_reason.find("no_self"), std::string::npos);
  // A query matching only half the denial is fine.
  Query half = ParseQ("q(T) :- assists(T, S).");
  auto ok_outcome = opt.Optimize(half);
  ASSERT_TRUE(ok_outcome.ok());
  EXPECT_FALSE(ok_outcome->contradiction);
}

TEST_F(OptimizerTest, MaxDepthBoundsChaining) {
  // §5.4 Q1' needs depth ≥ 2 (introduce has_ta, then fold); at depth 1 the
  // partial fold cannot appear.
  OptimizerOptions shallow;
  shallow.max_depth = 1;
  shallow.reduce_to_fixpoint = false;
  Optimizer opt(compiled_.get(), shallow);
  Query q = ParseQ(
      "q(V) :- student(oid: X, name: N), takes(X, Y), is_section_of(Y, Z), "
      "has_sections(Z, V), N = \"johnson\".");
  auto outcome = opt.Optimize(q);
  ASSERT_TRUE(outcome.ok());
  for (const Rewriting& rw : outcome->equivalents) {
    bool has_asr = false, has_takes = false;
    for (const datalog::Literal& lit : rw.query.body) {
      if (!lit.atom.is_predicate()) continue;
      if (lit.atom.predicate() == "asr_student_ta") has_asr = true;
      if (lit.atom.predicate() == "takes") has_takes = true;
    }
    EXPECT_TRUE(!has_asr || has_takes) << rw.query.ToString();
  }
}

TEST_F(OptimizerTest, DeadVariableRestrictionsNotAdded) {
  // IC1 implies Salary > 40K, but the query never compares or projects the
  // salary placeholder: adding the bound cannot prune anything and would
  // only mislead cost models (the §4.1 heuristics requirement).
  Optimizer opt(compiled_.get());
  Query q = ParseQ("q(N) :- faculty(oid: X, name: N).");
  auto outcome = opt.Optimize(q);
  ASSERT_TRUE(outcome.ok());
  for (const Rewriting& rw : outcome->equivalents) {
    for (const Literal& lit : rw.query.body) {
      EXPECT_FALSE(lit.atom.is_comparison() &&
                   lit.atom.rhs() == datalog::Term::Int(40000))
          << rw.query.ToString();
    }
  }
}

TEST_F(OptimizerTest, RestrictionAddedWhenVariableInteracts) {
  // Here the salary variable participates in a comparison, so the IC1
  // bound is a promising addition.
  Optimizer opt(compiled_.get());
  Query q = ParseQ("q(S) :- faculty(oid: X, salary: S), S < 90K.");
  auto outcome = opt.Optimize(q);
  ASSERT_TRUE(outcome.ok());
  bool added = false;
  for (const Rewriting& rw : outcome->equivalents) {
    for (const Literal& lit : rw.query.body) {
      if (lit.atom.is_comparison() &&
          lit.atom.rhs() == datalog::Term::Int(40000)) {
        added = true;
      }
    }
  }
  EXPECT_TRUE(added);
}

TEST_F(OptimizerTest, InverseRelationshipNotIntroduced) {
  // takes(X, Y) implies is_taken_by(Y, X), but introducing the inverse of
  // an atom already present adds no information; the heuristic suppresses
  // it.
  Optimizer opt(compiled_.get());
  Query q = ParseQ("q(X) :- student(oid: X), takes(X, Y).");
  auto outcome = opt.Optimize(q);
  ASSERT_TRUE(outcome.ok());
  for (const Rewriting& rw : outcome->equivalents) {
    for (const Literal& lit : rw.query.body) {
      EXPECT_FALSE(lit.atom.is_predicate() &&
                   lit.atom.predicate() == "is_taken_by")
          << rw.query.ToString();
    }
  }
}

TEST_F(OptimizerTest, RenamedQueryGetsConsequencesOverItsOwnVariables) {
  // Two queries equal up to renaming, through one optimizer: the second's
  // consequences may mention only its own variables or the residues' `_R`
  // existentials, never the names of the query that came first.
  Optimizer opt(compiled_.get());
  Query first = ParseQ(
      "q(X1, X2) :- faculty(oid: X1, name: N1, salary: S1), "
      "faculty(oid: X2, name: N2), N1 = N2.");
  Query second = ParseQ(
      "q(Y1, Y2) :- faculty(oid: Y1, name: M1, salary: T1), "
      "faculty(oid: Y2, name: M2), M1 = M2.");
  ASSERT_EQ(first.CanonicalFingerprint(), second.CanonicalFingerprint());
  ASSERT_FALSE(opt.ImpliedConsequences(first).empty());
  const std::set<std::string> own = second.VariableSet();
  const std::vector<Consequence> consequences = opt.ImpliedConsequences(second);
  ASSERT_FALSE(consequences.empty());
  for (const Consequence& c : consequences) {
    std::vector<std::string> vars;
    c.literal.atom.CollectVariables(&vars);
    for (const std::string& v : vars) {
      EXPECT_TRUE(own.count(v) > 0 || v.rfind("_R", 0) == 0)
          << v << " in " << c.ToString();
    }
  }
}

TEST_F(OptimizerTest, DisabledTransformationsProduceNothing) {
  OptimizerOptions off;
  off.add_restrictions = false;
  off.remove_restrictions = false;
  off.scope_reduction = false;
  off.merge_equal_variables = false;
  off.join_introduction = false;
  off.join_elimination = false;
  off.asr_rewriting = false;
  off.reduce_to_fixpoint = false;
  Optimizer opt(compiled_.get(), off);
  Query q = ParseQ("q(N) :- person(oid: X, name: N, age: A), A < 30.");
  auto outcome = opt.Optimize(q);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->equivalents.size(), 1u);
}

}  // namespace
}  // namespace sqo::core
