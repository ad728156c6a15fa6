#include "translate/query_translator.h"

#include <gtest/gtest.h>

#include "odl/parser.h"
#include "oql/parser.h"
#include "workload/university.h"

namespace sqo::translate {
namespace {

using datalog::Literal;
using datalog::Query;

class QueryTranslatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ast = odl::ParseOdl(workload::UniversityOdl());
    ASSERT_TRUE(ast.ok());
    auto schema = odl::Schema::Resolve(*ast);
    ASSERT_TRUE(schema.ok());
    auto translated = TranslateSchema(*schema);
    ASSERT_TRUE(translated.ok());
    schema_ = std::make_unique<TranslatedSchema>(std::move(translated).value());
  }

  sqo::Result<TranslatedQuery> Translate(const std::string& oql) {
    auto parsed = oql::ParseOql(oql);
    if (!parsed.ok()) return parsed.status();
    return TranslateQuery(*schema_, *parsed);
  }

  static size_t CountPredicate(const Query& q, const std::string& pred) {
    size_t n = 0;
    for (const Literal& lit : q.body) {
      if (lit.atom.is_predicate() && lit.atom.predicate() == pred) ++n;
    }
    return n;
  }

  std::unique_ptr<TranslatedSchema> schema_;
};

TEST_F(QueryTranslatorTest, SimpleExtentQuery) {
  auto t = Translate("select x.name from x in Person where x.age < 30");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->query.ToString(),
            "q(Name) :- person(X, Name, Age, _Q3), Age < 30.");
  EXPECT_EQ(t->map.var_to_ident.at("X"), "x");
  EXPECT_EQ(t->map.ident_type.at("x"), "Person");
}

TEST_F(QueryTranslatorTest, ExtentNameAlsoResolves) {
  auto t = Translate("select x.name from x in persons");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(CountPredicate(t->query, "person"), 1u);
}

TEST_F(QueryTranslatorTest, PaperExample2FullTranslation) {
  auto t = Translate(
      "select z.name, w.city\n"
      "from x in Student, y in x.takes, z in y.is_taught_by, w in z.address\n"
      "where x.name = \"john\" and z.taxes_withheld(10%) < 1000");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  const Query& q = t->query;
  // Head: Name (of z) and City — the paper's Q(Name1, City).
  ASSERT_EQ(q.head_args.size(), 2u);
  // Body shape from the paper: student, takes, is_taught_by, faculty,
  // address, name equality, method atom, comparison.
  EXPECT_EQ(CountPredicate(q, "student"), 1u);
  EXPECT_EQ(CountPredicate(q, "takes"), 1u);
  EXPECT_EQ(CountPredicate(q, "is_taught_by"), 1u);
  EXPECT_EQ(CountPredicate(q, "faculty"), 1u);
  EXPECT_EQ(CountPredicate(q, "address"), 1u);
  EXPECT_EQ(CountPredicate(q, "taxes_withheld"), 1u);
  // The section atom is NOT added (lazy class atoms, as in the paper).
  EXPECT_EQ(CountPredicate(q, "section"), 0u);
  // Two comparisons: Name2 = "john" and V < 1000.
  EXPECT_EQ(q.Comparisons().size(), 2u);
  // Method argument 10% became 0.10.
  for (const Literal& lit : q.body) {
    if (lit.atom.is_predicate() && lit.atom.predicate() == "taxes_withheld") {
      EXPECT_EQ(lit.atom.args()[1], datalog::Term::Double(0.10));
    }
  }
}

TEST_F(QueryTranslatorTest, LazyClassAtomOnlyWhenReferenced) {
  // y ranges over sections but nothing reads its attributes.
  auto t = Translate("select x.name from x in Student, y in x.takes");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(CountPredicate(t->query, "section"), 0u);
  // Referencing y.number forces the section atom.
  auto t2 = Translate("select y.number from x in Student, y in x.takes");
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(CountPredicate(t2->query, "section"), 1u);
}

TEST_F(QueryTranslatorTest, StructRangeIsEager) {
  auto t = Translate("select w.city from x in Person, w in x.address");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(CountPredicate(t->query, "address"), 1u);
  // The struct OID variable sits inside the person atom at the address
  // position and is shared with the address atom.
  const Query& q = t->query;
  datalog::Term w_var = datalog::Term::Var(t->map.ident_to_var.at("w"));
  bool in_person = false, in_address = false;
  for (const Literal& lit : q.body) {
    if (!lit.atom.is_predicate()) continue;
    if (lit.atom.predicate() == "person" && lit.atom.args()[3] == w_var) {
      in_person = true;
    }
    if (lit.atom.predicate() == "address" && lit.atom.args()[0] == w_var) {
      in_address = true;
    }
  }
  EXPECT_TRUE(in_person);
  EXPECT_TRUE(in_address);
}

TEST_F(QueryTranslatorTest, PathFlatteningIntroducesOneDotAtoms) {
  // x.address.city is flattened through a synthetic identifier.
  auto t = Translate("select x.address.city from x in Person");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(CountPredicate(t->query, "address"), 1u);
  EXPECT_FALSE(t->map.synthetic_idents.empty());
}

TEST_F(QueryTranslatorTest, PathMemoizationSharesTraversals) {
  auto t = Translate(
      "select x.address.city, x.address.street from x in Person");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(CountPredicate(t->query, "address"), 1u);  // shared, not duplicated
}

TEST_F(QueryTranslatorTest, ToOneRelationshipInValuePosition) {
  auto t = Translate("select y.is_taught_by.name from x in Student, y in x.takes");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(CountPredicate(t->query, "is_taught_by"), 1u);
  EXPECT_EQ(CountPredicate(t->query, "faculty"), 1u);
}

TEST_F(QueryTranslatorTest, ToManyRelationshipInValuePositionRejected) {
  auto t = Translate("select x.takes.number from x in Student");
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), sqo::StatusCode::kSemanticError);
}

TEST_F(QueryTranslatorTest, ProjectingAnObjectYieldsItsOidVariable) {
  auto t = Translate("select x from x in Person");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->query.head_args.size(), 1u);
  EXPECT_EQ(t->query.head_args[0], datalog::Term::Var("X"));
}

TEST_F(QueryTranslatorTest, ConstructorsFlattenToLeafTerms) {
  auto t = Translate(
      "select list(s.student_id, t.employee_id) from s in Student, t in TA");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->query.head_args.size(), 2u);
}

TEST_F(QueryTranslatorTest, NestedConstructors) {
  auto t = Translate(
      "select struct(a: x.name, b: list(x.age, 1)) from x in Person");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->query.head_args.size(), 3u);
  EXPECT_EQ(t->query.head_args[2], datalog::Term::Int(1));
}

TEST_F(QueryTranslatorTest, MembershipPredicates) {
  auto t = Translate(
      "select x.name from x in Person where x not in Faculty and x in Student");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  bool neg_faculty = false, pos_student = false;
  for (const Literal& lit : t->query.body) {
    if (!lit.atom.is_predicate()) continue;
    if (lit.atom.predicate() == "faculty" && !lit.positive) neg_faculty = true;
    if (lit.atom.predicate() == "student" && lit.positive) pos_student = true;
  }
  EXPECT_TRUE(neg_faculty);
  EXPECT_TRUE(pos_student);
}

TEST_F(QueryTranslatorTest, NotInFromClause) {
  auto t = Translate(
      "select x.name from x in Person, x not in Faculty where x.age < 30");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  size_t negatives = 0;
  for (const Literal& lit : t->query.body) {
    if (!lit.positive) ++negatives;
  }
  EXPECT_EQ(negatives, 1u);
  // Provenance: the negative literal maps back to from entry 1.
  bool mapped = false;
  for (const auto& [body_idx, from_idx] : t->map.body_to_from) {
    if (from_idx == 1) mapped = true;
  }
  EXPECT_TRUE(mapped);
}

TEST_F(QueryTranslatorTest, ProvenanceCoversSurfaceLiterals) {
  auto t = Translate(
      "select z.name from x in Student, y in x.takes, z in y.is_taught_by "
      "where x.name = \"john\"");
  ASSERT_TRUE(t.ok());
  // 3 from entries and 1 where predicate produce provenance entries.
  EXPECT_EQ(t->map.body_to_from.size(), 3u);
  EXPECT_EQ(t->map.body_to_where.size(), 1u);
}

TEST_F(QueryTranslatorTest, AttributeVariableNaming) {
  // Two different owners of the same attribute name get distinct variables.
  auto t = Translate(
      "select z.name, x.name from x in Student, y in x.takes, "
      "z in y.is_taught_by");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->query.head_args.size(), 2u);
  EXPECT_NE(t->query.head_args[0], t->query.head_args[1]);
}

TEST_F(QueryTranslatorTest, ExistsTranslatesToUnprojectedRange) {
  auto t = Translate(
      "select x.name from x in Student "
      "where exists y in x.takes : y.number = \"1\"");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(CountPredicate(t->query, "takes"), 1u);
  EXPECT_EQ(CountPredicate(t->query, "section"), 1u);
  // y is declared but not projected.
  EXPECT_EQ(t->query.head_args.size(), 1u);
  EXPECT_EQ(t->map.ident_type.at("y"), "Section");
}

TEST_F(QueryTranslatorTest, ExistsSameAsFromRange) {
  // ∃ in a conjunctive body is just an unprojected range: both forms give
  // the same DATALOG body (up to provenance).
  auto via_exists = Translate(
      "select x.name from x in Student "
      "where exists y in x.takes : y.number = \"1\"");
  auto via_from = Translate(
      "select x.name from x in Student, y in x.takes "
      "where y.number = \"1\"");
  ASSERT_TRUE(via_exists.ok() && via_from.ok());
  EXPECT_EQ(via_exists->query.CanonicalFingerprint(),
            via_from->query.CanonicalFingerprint());
}

TEST_F(QueryTranslatorTest, NestedExists) {
  auto t = Translate(
      "select x.name from x in Student where exists y in x.takes : "
      "exists z in y.is_taught_by : z.salary > 50K");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(CountPredicate(t->query, "takes"), 1u);
  EXPECT_EQ(CountPredicate(t->query, "is_taught_by"), 1u);
  EXPECT_EQ(CountPredicate(t->query, "faculty"), 1u);
}

TEST_F(QueryTranslatorTest, ExistsVariableCollisionRejected) {
  auto t = Translate(
      "select x.name from x in Student "
      "where exists x in Student : x.age < 20");
  EXPECT_FALSE(t.ok());
}

TEST_F(QueryTranslatorTest, ExistsLiteralsHaveNoProvenance) {
  auto t = Translate(
      "select x.name from x in Student "
      "where exists y in x.takes : y.number = \"1\"");
  ASSERT_TRUE(t.ok());
  // Only the from entry for x maps back to the surface.
  EXPECT_EQ(t->map.body_to_from.size(), 1u);
  EXPECT_TRUE(t->map.body_to_where.empty());
}

TEST_F(QueryTranslatorTest, Errors) {
  EXPECT_FALSE(Translate("select q.name from x in Person").ok());  // unknown var
  EXPECT_FALSE(Translate("select x from x in Nowhere").ok());      // unknown class
  EXPECT_FALSE(Translate("select x.phone from x in Person").ok()); // no attr
  EXPECT_FALSE(
      Translate("select x from x in Person, x in Student").ok());  // redefined
  EXPECT_FALSE(
      Translate("select x.taxes_withheld() from x in Person").ok());  // no method
  EXPECT_FALSE(Translate("select x.taxes_withheld(1,2) from x in Faculty")
                   .ok());  // arity
  EXPECT_FALSE(
      Translate("select y from y in x.takes").ok());  // base undefined
}

TEST_F(QueryTranslatorTest, MethodInWhereGetsResultVariable) {
  auto t = Translate(
      "select x.name from x in Faculty where x.taxes_withheld(10%) < 1000");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(CountPredicate(t->query, "taxes_withheld"), 1u);
  // The comparison references the method's result variable.
  bool found = false;
  for (const Literal& lit : t->query.body) {
    if (lit.atom.is_comparison() && lit.atom.rhs() == datalog::Term::Int(1000)) {
      found = lit.atom.lhs().is_variable();
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace sqo::translate
