#include "datalog/signature.h"

#include <gtest/gtest.h>

namespace sqo::datalog {
namespace {

RelationSignature Sig(const std::string& name, RelationKind kind,
                      std::vector<std::string> attrs) {
  RelationSignature s;
  s.name = name;
  s.kind = kind;
  s.attributes = std::move(attrs);
  return s;
}

TEST(SignatureTest, AttributeIndex) {
  RelationSignature s =
      Sig("faculty", RelationKind::kClass, {"oid", "name", "salary"});
  EXPECT_EQ(s.AttributeIndex("oid"), 0u);
  EXPECT_EQ(s.AttributeIndex("salary"), 2u);
  EXPECT_EQ(s.AttributeIndex("rank"), std::nullopt);
  EXPECT_EQ(s.arity(), 3u);
}

TEST(SignatureTest, ToString) {
  RelationSignature s = Sig("takes", RelationKind::kRelationship, {"src", "dst"});
  EXPECT_EQ(s.ToString(), "takes(src, dst)");
}

TEST(SignatureTest, KindNames) {
  EXPECT_EQ(RelationKindName(RelationKind::kClass), "class");
  EXPECT_EQ(RelationKindName(RelationKind::kStructure), "structure");
  EXPECT_EQ(RelationKindName(RelationKind::kRelationship), "relationship");
  EXPECT_EQ(RelationKindName(RelationKind::kMethod), "method");
  EXPECT_EQ(RelationKindName(RelationKind::kAsr), "asr");
}

TEST(CatalogTest, AddFindGet) {
  RelationCatalog catalog;
  ASSERT_TRUE(catalog.Add(Sig("a", RelationKind::kClass, {"oid"})).ok());
  ASSERT_TRUE(catalog.Add(Sig("b", RelationKind::kClass, {"oid"})).ok());
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_NE(catalog.Find("a"), nullptr);
  EXPECT_EQ(catalog.Find("c"), nullptr);
  auto got = catalog.Get("b");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->name, "b");
  auto missing = catalog.Get("c");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), sqo::StatusCode::kNotFound);
}

TEST(CatalogTest, RejectsDuplicates) {
  RelationCatalog catalog;
  ASSERT_TRUE(catalog.Add(Sig("a", RelationKind::kClass, {"oid"})).ok());
  EXPECT_FALSE(catalog.Add(Sig("a", RelationKind::kMethod, {"oid"})).ok());
  EXPECT_EQ(catalog.size(), 1u);
}

TEST(CatalogTest, IdsAreDenseAppendOnlyAndSurviveCopies) {
  RelationCatalog catalog;
  ASSERT_TRUE(catalog.Add(Sig("zeta", RelationKind::kClass, {"oid"})).ok());
  ASSERT_TRUE(catalog.Add(Sig("alpha", RelationKind::kClass, {"oid"})).ok());
  EXPECT_FALSE(catalog.Add(Sig("zeta", RelationKind::kMethod, {"oid"})).ok());
  EXPECT_EQ(catalog.Find("zeta")->id, 0u);
  EXPECT_EQ(catalog.Find("alpha")->id, 1u);
  // A later relation takes the next id; earlier ids do not move.
  ASSERT_TRUE(catalog.Add(Sig("beta", RelationKind::kAsr, {"src", "dst"})).ok());
  EXPECT_EQ(catalog.Find("beta")->id, 2u);
  EXPECT_EQ(catalog.Find("alpha")->id, 1u);
  for (const auto& [name, sig] : catalog.relations()) {
    EXPECT_EQ(&catalog.ById(sig.id), &sig);
  }
  // A copy indexes its own signatures.
  RelationCatalog copy = catalog;
  RelationCatalog assigned;
  assigned = catalog;
  for (const RelationCatalog* c : {&copy, &assigned}) {
    for (const auto& [name, sig] : c->relations()) {
      EXPECT_EQ(&c->ById(sig.id), &sig);
    }
  }
}

TEST(CatalogTest, IterationIsSortedByName) {
  RelationCatalog catalog;
  ASSERT_TRUE(catalog.Add(Sig("zeta", RelationKind::kClass, {"oid"})).ok());
  ASSERT_TRUE(catalog.Add(Sig("alpha", RelationKind::kClass, {"oid"})).ok());
  std::vector<std::string> names;
  for (const auto& [name, sig] : catalog.relations()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "zeta"}));
}

}  // namespace
}  // namespace sqo::datalog
