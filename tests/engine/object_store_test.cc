#include "engine/object_store.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "odl/parser.h"
#include "workload/university.h"

namespace sqo::engine {
namespace {

using sqo::Value;

class ObjectStoreTest : public ::testing::Test {
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
    store_ = std::make_unique<ObjectStore>(schema_.get());
  }

  sqo::Oid MustCreate(const std::string& cls,
                      const std::map<std::string, Value>& attrs) {
    auto oid = store_->CreateObject(cls, attrs);
    EXPECT_TRUE(oid.ok()) << oid.status().ToString();
    return *oid;
  }

  std::unique_ptr<translate::TranslatedSchema> schema_;
  std::unique_ptr<ObjectStore> store_;
};

TEST_F(ObjectStoreTest, CreateObjectAndReadBack) {
  sqo::Oid oid = MustCreate(
      "Person", {{"name", Value::String("ann")}, {"age", Value::Int(25)}});
  ASSERT_TRUE(oid.valid());
  auto row = store_->RowAs("person", oid);
  ASSERT_FALSE(row.empty());
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[0], Value::FromOid(oid));
  EXPECT_EQ(row[1], Value::String("ann"));
  EXPECT_EQ(row[2], Value::Int(25));
  EXPECT_TRUE(row[3].is_null());  // address not set
}

TEST_F(ObjectStoreTest, SubclassInstanceInAncestorExtents) {
  sqo::Oid prof = MustCreate("Faculty", {{"name", Value::String("kim")},
                                         {"age", Value::Int(40)},
                                         {"salary", Value::Double(50000)}});
  EXPECT_TRUE(store_->IsMember("faculty", prof));
  EXPECT_TRUE(store_->IsMember("employee", prof));
  EXPECT_TRUE(store_->IsMember("person", prof));
  EXPECT_FALSE(store_->IsMember("student", prof));
  EXPECT_EQ(store_->ExtentSize("person"), 1u);
  EXPECT_EQ(store_->ExtentSize("faculty"), 1u);
}

TEST_F(ObjectStoreTest, RowAsSuperclassIsPrefix) {
  sqo::Oid prof = MustCreate("Faculty", {{"name", Value::String("kim")},
                                         {"age", Value::Int(40)},
                                         {"salary", Value::Double(50000)},
                                         {"rank", Value::String("full")}});
  auto as_person = store_->RowAs("person", prof);
  auto as_faculty = store_->RowAs("faculty", prof);
  ASSERT_FALSE(as_person.empty());
  ASSERT_FALSE(as_faculty.empty());
  EXPECT_EQ(as_person.size(), 4u);
  EXPECT_EQ(as_faculty.size(), 6u);
  for (size_t i = 0; i < as_person.size(); ++i) {
    EXPECT_EQ(as_person[i], as_faculty[i]);
  }
}

TEST_F(ObjectStoreTest, CreateStructAndLink) {
  auto addr = store_->CreateStruct(
      "Address", {{"street", Value::String("1 Main")},
                  {"city", Value::String("cp")}});
  ASSERT_TRUE(addr.ok());
  sqo::Oid person = MustCreate(
      "Person", {{"name", Value::String("b")}, {"address", Value::FromOid(*addr)}});
  auto row = store_->RowAs("person", person);
  EXPECT_EQ(row[3], Value::FromOid(*addr));
  EXPECT_TRUE(store_->IsMember("address", *addr));
}

TEST_F(ObjectStoreTest, AttributeNamesCaseInsensitive) {
  auto oid = store_->CreateObject("Person", {{"Name", Value::String("c")}});
  ASSERT_TRUE(oid.ok());
  auto row = store_->RowAs("person", *oid);
  EXPECT_EQ(row[1], Value::String("c"));
}

TEST_F(ObjectStoreTest, CreateRejectsUnknownClassOrAttribute) {
  EXPECT_FALSE(store_->CreateObject("Nothing", {}).ok());
  EXPECT_FALSE(store_->CreateObject("Person", {{"phone", Value::Int(1)}}).ok());
  EXPECT_FALSE(store_->CreateStruct("Person", {}).ok());   // class, not struct
  EXPECT_FALSE(store_->CreateObject("Address", {}).ok());  // struct, not class
}

TEST_F(ObjectStoreTest, RelateMaintainsInverse) {
  sqo::Oid student = MustCreate("Student", {{"name", Value::String("s")}});
  sqo::Oid section = MustCreate("Section", {{"number", Value::String("1")}});
  ASSERT_TRUE(store_->Relate("takes", student, section).ok());
  ASSERT_EQ(store_->Neighbors("takes", student).size(), 1u);
  EXPECT_EQ(store_->Neighbors("takes", student)[0], section);
  // Inverse is maintained automatically.
  ASSERT_EQ(store_->Neighbors("is_taken_by", section).size(), 1u);
  EXPECT_EQ(store_->Neighbors("is_taken_by", section)[0], student);
  EXPECT_EQ(store_->ReverseNeighbors("takes", section).size(), 1u);
}

TEST_F(ObjectStoreTest, RelateIdempotent) {
  sqo::Oid student = MustCreate("Student", {{"name", Value::String("s")}});
  sqo::Oid section = MustCreate("Section", {});
  ASSERT_TRUE(store_->Relate("takes", student, section).ok());
  ASSERT_TRUE(store_->Relate("takes", student, section).ok());
  EXPECT_EQ(store_->PairCount("takes"), 1u);
}

TEST_F(ObjectStoreTest, RelateChecksEndpointClasses) {
  sqo::Oid person = MustCreate("Person", {{"name", Value::String("p")}});
  sqo::Oid section = MustCreate("Section", {});
  // A plain person is not a Student.
  EXPECT_FALSE(store_->Relate("takes", person, section).ok());
  EXPECT_FALSE(store_->Relate("takes", section, person).ok());
  EXPECT_FALSE(store_->Relate("no_such_rel", person, section).ok());
}

TEST_F(ObjectStoreTest, CardinalityEnforcedForToOne) {
  sqo::Oid ta = MustCreate("TA", {{"name", Value::String("t")}});
  sqo::Oid s1 = MustCreate("Section", {});
  sqo::Oid s2 = MustCreate("Section", {});
  ASSERT_TRUE(store_->Relate("assists", ta, s1).ok());
  // assists is one-to-one: a second section for the same TA is rejected.
  EXPECT_FALSE(store_->Relate("assists", ta, s2).ok());
  // And a second TA for the same section is rejected.
  sqo::Oid ta2 = MustCreate("TA", {{"name", Value::String("t2")}});
  EXPECT_FALSE(store_->Relate("assists", ta2, s1).ok());
}

TEST_F(ObjectStoreTest, SubclassObjectsUsableThroughInheritedRelationships) {
  sqo::Oid ta = MustCreate("TA", {{"name", Value::String("t")}});
  sqo::Oid section = MustCreate("Section", {});
  // takes is declared on Student; a TA is a Student.
  EXPECT_TRUE(store_->Relate("takes", ta, section).ok());
}

TEST_F(ObjectStoreTest, IndexLookupAndMaintenance) {
  ASSERT_TRUE(store_->CreateIndex("person", "name").ok());
  sqo::Oid a = MustCreate("Person", {{"name", Value::String("ann")}});
  MustCreate("Person", {{"name", Value::String("bob")}});
  ASSERT_TRUE(store_->HasIndex("person", 1));
  const auto* hits = store_->IndexLookup("person", 1, Value::String("ann"));
  ASSERT_NE(hits, nullptr);
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0], a);
  EXPECT_EQ(store_->IndexLookup("person", 1, Value::String("zed")), nullptr);
  EXPECT_EQ(store_->IndexDistinct("person", 1), 2u);
}

TEST_F(ObjectStoreTest, IndexOnSuperclassSeesSubclassInstances) {
  ASSERT_TRUE(store_->CreateIndex("person", "name").ok());
  sqo::Oid prof = MustCreate("Faculty", {{"name", Value::String("kim")}});
  const auto* hits = store_->IndexLookup("person", 1, Value::String("kim"));
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ((*hits)[0], prof);
}

TEST_F(ObjectStoreTest, IndexRejectsBadTargets) {
  EXPECT_FALSE(store_->CreateIndex("takes", "src").ok());
  EXPECT_FALSE(store_->CreateIndex("person", "oid").ok());
  EXPECT_FALSE(store_->CreateIndex("person", "phone").ok());
}

TEST_F(ObjectStoreTest, MethodRegistrationAndInvocation) {
  ASSERT_TRUE(store_
                  ->RegisterMethod(
                      "taxes_withheld",
                      [](const ObjectStore& s, sqo::Oid receiver,
                         const std::vector<Value>& args) -> sqo::Result<Value> {
                        auto pos = s.schema().catalog.Find("employee")
                                       ->AttributeIndex("salary");
                        SQO_ASSIGN_OR_RETURN(
                            Value salary, s.AttributeOf("employee", receiver, *pos));
                        return Value::Double(salary.AsNumeric() *
                                             args[0].AsNumeric());
                      })
                  .ok());
  sqo::Oid prof = MustCreate("Faculty", {{"name", Value::String("k")},
                                         {"salary", Value::Double(50000)}});
  auto result = store_->InvokeMethod("taxes_withheld", prof, {Value::Double(0.1)});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, Value::Double(5000));
  EXPECT_FALSE(store_->RegisterMethod("nope", nullptr).ok());
  EXPECT_FALSE(store_->InvokeMethod("unregistered", prof, {}).ok());
}

TEST_F(ObjectStoreTest, MaterializeAsrComputesPathJoin) {
  // Build a tiny student → section → course → section' → TA world.
  sqo::Oid student = MustCreate("Student", {{"name", Value::String("s")}});
  sqo::Oid course = MustCreate("Course", {});
  sqo::Oid sec1 = MustCreate("Section", {});
  sqo::Oid sec2 = MustCreate("Section", {});
  sqo::Oid ta = MustCreate("TA", {{"name", Value::String("t")}});
  ASSERT_TRUE(store_->Relate("has_sections", course, sec1).ok());
  ASSERT_TRUE(store_->Relate("has_sections", course, sec2).ok());
  ASSERT_TRUE(store_->Relate("takes", student, sec1).ok());
  ASSERT_TRUE(store_->Relate("assists", ta, sec2).ok());

  std::vector<core::AsrDefinition> registry;
  ASSERT_TRUE(
      core::RegisterAsr(workload::UniversityAsr(), schema_.get(), &registry).ok());
  ASSERT_TRUE(store_->Materialize(registry[0]).ok());
  // student takes sec1, sec1 in course, course has sec2, sec2 has ta.
  const auto& pairs = store_->Pairs("asr_student_ta");
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].first, student);
  EXPECT_EQ(pairs[0].second, ta);
  // Re-materialization refreshes rather than duplicates.
  ASSERT_TRUE(store_->Materialize(registry[0]).ok());
  EXPECT_EQ(store_->Pairs("asr_student_ta").size(), 1u);
}

TEST_F(ObjectStoreTest, FanoutStatistics) {
  sqo::Oid student = MustCreate("Student", {{"name", Value::String("s")}});
  sqo::Oid s1 = MustCreate("Section", {});
  sqo::Oid s2 = MustCreate("Section", {});
  ASSERT_TRUE(store_->Relate("takes", student, s1).ok());
  ASSERT_TRUE(store_->Relate("takes", student, s2).ok());
  EXPECT_DOUBLE_EQ(store_->AvgFanout("takes"), 2.0);
  EXPECT_DOUBLE_EQ(store_->AvgReverseFanout("takes"), 1.0);
  EXPECT_DOUBLE_EQ(store_->AvgFanout("nothing"), 0.0);
}

TEST_F(ObjectStoreTest, UnrelateRemovesBothDirections) {
  sqo::Oid student = MustCreate("Student", {{"name", Value::String("s")}});
  sqo::Oid section = MustCreate("Section", {});
  ASSERT_TRUE(store_->Relate("takes", student, section).ok());
  ASSERT_TRUE(store_->Unrelate("takes", student, section).ok());
  EXPECT_TRUE(store_->Neighbors("takes", student).empty());
  EXPECT_TRUE(store_->Neighbors("is_taken_by", section).empty());
  EXPECT_EQ(store_->PairCount("takes"), 0u);
  // Idempotent; unknown relationship rejected.
  EXPECT_TRUE(store_->Unrelate("takes", student, section).ok());
  EXPECT_FALSE(store_->Unrelate("nope", student, section).ok());
}

TEST_F(ObjectStoreTest, UnrelateFreesToOneSlot) {
  sqo::Oid ta = MustCreate("TA", {{"name", Value::String("t")}});
  sqo::Oid s1 = MustCreate("Section", {});
  sqo::Oid s2 = MustCreate("Section", {});
  ASSERT_TRUE(store_->Relate("assists", ta, s1).ok());
  EXPECT_FALSE(store_->Relate("assists", ta, s2).ok());
  ASSERT_TRUE(store_->Unrelate("assists", ta, s1).ok());
  EXPECT_TRUE(store_->Relate("assists", ta, s2).ok());
}

TEST_F(ObjectStoreTest, UpdateAttributeMaintainsIndexes) {
  ASSERT_TRUE(store_->CreateIndex("person", "name").ok());
  sqo::Oid p = MustCreate("Person", {{"name", Value::String("before")}});
  ASSERT_TRUE(store_->UpdateAttribute(p, "name", Value::String("after")).ok());
  EXPECT_EQ(store_->IndexLookup("person", 1, Value::String("before")), nullptr);
  const auto* hits = store_->IndexLookup("person", 1, Value::String("after"));
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ((*hits)[0], p);
  auto row = store_->RowAs("person", p);
  EXPECT_EQ(row[1], Value::String("after"));
}

TEST_F(ObjectStoreTest, UpdateAttributeMaintainsSubclassIndexes) {
  ASSERT_TRUE(store_->CreateIndex("faculty", "salary").ok());
  sqo::Oid prof = MustCreate("Faculty", {{"name", Value::String("k")},
                                         {"salary", Value::Double(50000)}});
  ASSERT_TRUE(
      store_->UpdateAttribute(prof, "salary", Value::Double(60000)).ok());
  EXPECT_EQ(store_->IndexLookup("faculty", 4, Value::Double(50000)), nullptr);
  ASSERT_NE(store_->IndexLookup("faculty", 4, Value::Double(60000)), nullptr);
}

TEST_F(ObjectStoreTest, UpdateAttributeErrors) {
  sqo::Oid p = MustCreate("Person", {{"name", Value::String("x")}});
  EXPECT_FALSE(store_->UpdateAttribute(sqo::Oid(9999), "name",
                                       Value::String("y")).ok());
  EXPECT_FALSE(store_->UpdateAttribute(p, "phone", Value::Int(1)).ok());
  EXPECT_FALSE(store_->UpdateAttribute(p, "oid", Value::Int(1)).ok());
}

TEST_F(ObjectStoreTest, DeleteObjectScrubsEverything) {
  ASSERT_TRUE(store_->CreateIndex("person", "name").ok());
  sqo::Oid student = MustCreate("Student", {{"name", Value::String("gone")}});
  sqo::Oid section = MustCreate("Section", {});
  ASSERT_TRUE(store_->Relate("takes", student, section).ok());
  ASSERT_TRUE(store_->DeleteObject(student).ok());
  EXPECT_FALSE(store_->IsMember("student", student));
  EXPECT_FALSE(store_->IsMember("person", student));
  EXPECT_EQ(store_->ExtentSize("student"), 0u);
  EXPECT_EQ(store_->IndexLookup("person", 1, Value::String("gone")), nullptr);
  EXPECT_TRUE(store_->Neighbors("is_taken_by", section).empty());
  EXPECT_EQ(store_->PairCount("takes"), 0u);
  EXPECT_TRUE(store_->RowAs("student", student).empty());
  EXPECT_FALSE(store_->DeleteObject(student).ok());  // already gone
}

TEST_F(ObjectStoreTest, LazyIndexDeltaScopedToMutatedRelation) {
  // Two adaptive indexes over disjoint relations: mutations against one
  // must delta-apply to that index only, never rebuild or touch the other.
  for (int i = 0; i < 20; ++i) {
    MustCreate("Person", {{"name", Value::String("p" + std::to_string(i))},
                          {"age", Value::Int(20 + i)}});
    MustCreate("Course", {{"cname", Value::String("c" + std::to_string(i))}});
  }
  ASSERT_NE(store_->IndexLookup("person", 2, Value::Int(25)), nullptr);
  ASSERT_NE(store_->IndexLookup("course", 1, Value::String("c3")), nullptr);

  obs::MetricsRegistry metrics;
  obs::ScopedMetrics install(&metrics);
  // A course mutation delta-applies to the course index only.
  const sqo::Oid course = store_->Extent("course").front();
  ASSERT_TRUE(
      store_->UpdateAttribute(course, "cname", Value::String("renamed")).ok());
  EXPECT_EQ(metrics.CounterValue("index.delta_applies"), 1u);
  EXPECT_EQ(metrics.CounterValue("index.full_rebuilds"), 0u);

  // The person index is untouched: probing it is not a (re)build.
  const auto* hits = store_->IndexLookup("person", 2, Value::Int(25));
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(metrics.CounterValue("index.lazy_builds"), 0u);
  EXPECT_EQ(metrics.CounterValue("index.full_rebuilds"), 0u);
  // The course index reflects the delta without a rebuild.
  const auto* renamed =
      store_->IndexLookup("course", 1, Value::String("renamed"));
  ASSERT_NE(renamed, nullptr);
  EXPECT_EQ((*renamed)[0], course);
  EXPECT_EQ(store_->IndexLookup("course", 1, Value::String("c0")), nullptr);
  EXPECT_EQ(metrics.CounterValue("index.lazy_builds"), 0u);
}

TEST_F(ObjectStoreTest, SameValueUpdateLeavesIndexesUntouched) {
  // Rewriting an attribute with an equal value keeps the object at its
  // place in its bucket, so later probes see the same order, and applies
  // no index delta.
  ASSERT_TRUE(store_->CreateIndex("person", "name").ok());
  std::vector<sqo::Oid> oids;
  for (int i = 0; i < 3; ++i) {
    oids.push_back(MustCreate("Person", {{"name", Value::String("same")},
                                         {"age", Value::Int(30)}}));
  }
  ASSERT_NE(store_->IndexLookup("person", 2, Value::Int(30)), nullptr);

  obs::MetricsRegistry metrics;
  obs::ScopedMetrics install(&metrics);
  ASSERT_TRUE(store_->UpdateAttribute(oids[0], "age", Value::Int(30)).ok());
  ASSERT_TRUE(
      store_->UpdateAttribute(oids[0], "name", Value::String("same")).ok());
  EXPECT_EQ(*store_->IndexLookup("person", 2, Value::Int(30)), oids);
  EXPECT_EQ(*store_->IndexLookup("person", 1, Value::String("same")), oids);
  EXPECT_EQ(metrics.CounterValue("index.delta_applies"), 0u);

  // A different value still moves the object (to the end of its new
  // bucket).
  ASSERT_TRUE(store_->UpdateAttribute(oids[0], "age", Value::Int(31)).ok());
  ASSERT_TRUE(store_->UpdateAttribute(oids[0], "age", Value::Int(30)).ok());
  EXPECT_EQ(*store_->IndexLookup("person", 2, Value::Int(30)),
            (std::vector<sqo::Oid>{oids[1], oids[2], oids[0]}));
  EXPECT_EQ(metrics.CounterValue("index.delta_applies"), 2u);
}

TEST_F(ObjectStoreTest, RelationshipChurnKeepsAttributeIndexes) {
  for (int i = 0; i < 20; ++i) {
    MustCreate("Student", {{"name", Value::String("s" + std::to_string(i))},
                           {"age", Value::Int(20)}});
  }
  sqo::Oid section = MustCreate("Section", {});
  ASSERT_NE(store_->IndexLookup("student", 2, Value::Int(20)), nullptr);

  obs::MetricsRegistry metrics;
  obs::ScopedMetrics install(&metrics);
  const sqo::Oid student = store_->Extent("student").front();
  ASSERT_TRUE(store_->Relate("takes", student, section).ok());
  ASSERT_TRUE(store_->Unrelate("takes", student, section).ok());
  // Pair churn is invisible to attribute indexes: no deltas, no rebuilds,
  // and the next probe reuses the built index.
  ASSERT_NE(store_->IndexLookup("student", 2, Value::Int(20)), nullptr);
  EXPECT_EQ(metrics.CounterValue("index.lazy_builds"), 0u);
  EXPECT_EQ(metrics.CounterValue("index.full_rebuilds"), 0u);
}

TEST_F(ObjectStoreTest, AsrMaintainedIncrementallyOnInsert) {
  sqo::Oid student = MustCreate("Student", {{"name", Value::String("s")}});
  sqo::Oid course = MustCreate("Course", {});
  sqo::Oid sec1 = MustCreate("Section", {});
  sqo::Oid sec2 = MustCreate("Section", {});
  sqo::Oid ta = MustCreate("TA", {{"name", Value::String("t")}});
  ASSERT_TRUE(store_->Relate("has_sections", course, sec1).ok());
  ASSERT_TRUE(store_->Relate("has_sections", course, sec2).ok());
  ASSERT_TRUE(store_->Relate("takes", student, sec1).ok());

  std::vector<core::AsrDefinition> registry;
  ASSERT_TRUE(
      core::RegisterAsr(workload::UniversityAsr(), schema_.get(), &registry).ok());
  ASSERT_TRUE(store_->Materialize(registry[0]).ok());
  EXPECT_TRUE(store_->Pairs("asr_student_ta").empty());  // no TA yet

  // Completing the path AFTER materialization delta-extends the ASR.
  obs::MetricsRegistry metrics;
  obs::ScopedMetrics install(&metrics);
  ASSERT_TRUE(store_->Relate("assists", ta, sec2).ok());
  const auto& pairs = store_->Pairs("asr_student_ta");
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].first, student);
  EXPECT_EQ(pairs[0].second, ta);
  EXPECT_GE(metrics.CounterValue("asr.delta_pairs"), 1u);

  // A second student joining the prefix extends it again.
  sqo::Oid student2 = MustCreate("Student", {{"name", Value::String("u")}});
  ASSERT_TRUE(store_->Relate("takes", student2, sec1).ok());
  EXPECT_EQ(store_->Pairs("asr_student_ta").size(), 2u);
  // Fresh throughout: inserts never mark the ASR stale.
  for (const auto& asr : store_->AsrStates()) EXPECT_FALSE(asr.stale);
}

TEST_F(ObjectStoreTest, AsrMarkedStaleOnErase) {
  sqo::Oid student = MustCreate("Student", {{"name", Value::String("s")}});
  sqo::Oid course = MustCreate("Course", {});
  sqo::Oid sec1 = MustCreate("Section", {});
  sqo::Oid sec2 = MustCreate("Section", {});
  sqo::Oid ta = MustCreate("TA", {{"name", Value::String("t")}});
  ASSERT_TRUE(store_->Relate("has_sections", course, sec1).ok());
  ASSERT_TRUE(store_->Relate("has_sections", course, sec2).ok());
  ASSERT_TRUE(store_->Relate("takes", student, sec1).ok());
  ASSERT_TRUE(store_->Relate("assists", ta, sec2).ok());

  std::vector<core::AsrDefinition> registry;
  ASSERT_TRUE(
      core::RegisterAsr(workload::UniversityAsr(), schema_.get(), &registry).ok());
  ASSERT_TRUE(store_->Materialize(registry[0]).ok());
  ASSERT_EQ(store_->Pairs("asr_student_ta").size(), 1u);
  for (const auto& asr : store_->AsrStates()) EXPECT_FALSE(asr.stale);

  obs::MetricsRegistry metrics;
  obs::ScopedMetrics install(&metrics);
  ASSERT_TRUE(store_->Unrelate("takes", student, sec1).ok());
  bool stale = false;
  for (const auto& asr : store_->AsrStates()) stale |= asr.stale;
  EXPECT_TRUE(stale);
  EXPECT_GE(metrics.CounterValue("asr.marked_stale"), 1u);

  // Re-materializing restores freshness.
  ASSERT_TRUE(store_->Materialize(registry[0]).ok());
  for (const auto& asr : store_->AsrStates()) EXPECT_FALSE(asr.stale);
}

TEST_F(ObjectStoreTest, StaleAsrLazilyRebuildsOnNextAccess) {
  // The erase "counting problem": instead of serving a stale extent (and
  // an SQO-A019 warning) until someone re-materializes by hand, the first
  // access after an erase rebuilds the extent in place.
  sqo::Oid student = MustCreate("Student", {{"name", Value::String("s")}});
  sqo::Oid course = MustCreate("Course", {});
  sqo::Oid sec1 = MustCreate("Section", {});
  sqo::Oid sec2 = MustCreate("Section", {});
  sqo::Oid ta = MustCreate("TA", {{"name", Value::String("t")}});
  ASSERT_TRUE(store_->Relate("has_sections", course, sec1).ok());
  ASSERT_TRUE(store_->Relate("has_sections", course, sec2).ok());
  ASSERT_TRUE(store_->Relate("takes", student, sec1).ok());
  ASSERT_TRUE(store_->Relate("assists", ta, sec2).ok());

  std::vector<core::AsrDefinition> registry;
  ASSERT_TRUE(
      core::RegisterAsr(workload::UniversityAsr(), schema_.get(), &registry).ok());
  ASSERT_TRUE(store_->Materialize(registry[0]).ok());
  ASSERT_EQ(store_->Pairs("asr_student_ta").size(), 1u);

  obs::MetricsRegistry metrics;
  obs::ScopedMetrics install(&metrics);
  ASSERT_TRUE(store_->Unrelate("takes", student, sec1).ok());

  // The access itself heals: the broken path's pair is gone, the ASR is
  // fresh again, and the rebuild was counted.
  EXPECT_TRUE(store_->Pairs("asr_student_ta").empty());
  for (const auto& asr : store_->AsrStates()) EXPECT_FALSE(asr.stale);
  EXPECT_GE(metrics.CounterValue("asr.lazy_rebuilds"), 1u);

  // Delta maintenance resumes on the rebuilt extent: re-completing the
  // path re-derives the pair without another rebuild.
  const uint64_t rebuilds = metrics.CounterValue("asr.lazy_rebuilds");
  ASSERT_TRUE(store_->Relate("takes", student, sec1).ok());
  EXPECT_EQ(store_->Pairs("asr_student_ta").size(), 1u);
  EXPECT_EQ(metrics.CounterValue("asr.lazy_rebuilds"), rebuilds);
}

TEST_F(ObjectStoreTest, NeighborAccessAlsoTriggersTheLazyRebuild) {
  sqo::Oid student = MustCreate("Student", {{"name", Value::String("s")}});
  sqo::Oid course = MustCreate("Course", {});
  sqo::Oid sec1 = MustCreate("Section", {});
  sqo::Oid sec2 = MustCreate("Section", {});
  sqo::Oid ta = MustCreate("TA", {{"name", Value::String("t")}});
  ASSERT_TRUE(store_->Relate("has_sections", course, sec1).ok());
  ASSERT_TRUE(store_->Relate("has_sections", course, sec2).ok());
  ASSERT_TRUE(store_->Relate("takes", student, sec1).ok());
  ASSERT_TRUE(store_->Relate("assists", ta, sec2).ok());

  std::vector<core::AsrDefinition> registry;
  ASSERT_TRUE(
      core::RegisterAsr(workload::UniversityAsr(), schema_.get(), &registry).ok());
  ASSERT_TRUE(store_->Materialize(registry[0]).ok());
  ASSERT_EQ(store_->Neighbors("asr_student_ta", student).size(), 1u);

  obs::MetricsRegistry metrics;
  obs::ScopedMetrics install(&metrics);
  ASSERT_TRUE(store_->Unrelate("assists", ta, sec2).ok());
  EXPECT_TRUE(store_->Neighbors("asr_student_ta", student).empty());
  EXPECT_TRUE(store_->ReverseNeighbors("asr_student_ta", ta).empty());
  for (const auto& asr : store_->AsrStates()) EXPECT_FALSE(asr.stale);
  EXPECT_GE(metrics.CounterValue("asr.lazy_rebuilds"), 1u);
}

TEST_F(ObjectStoreTest, RefreshStaleAsrsRebuildsEagerly) {
  // The epoch publisher's hook: refresh everything stale up front so a
  // replica handed to concurrent readers never rebuilds under their feet.
  sqo::Oid student = MustCreate("Student", {{"name", Value::String("s")}});
  sqo::Oid course = MustCreate("Course", {});
  sqo::Oid sec1 = MustCreate("Section", {});
  sqo::Oid sec2 = MustCreate("Section", {});
  sqo::Oid ta = MustCreate("TA", {{"name", Value::String("t")}});
  ASSERT_TRUE(store_->Relate("has_sections", course, sec1).ok());
  ASSERT_TRUE(store_->Relate("has_sections", course, sec2).ok());
  ASSERT_TRUE(store_->Relate("takes", student, sec1).ok());
  ASSERT_TRUE(store_->Relate("assists", ta, sec2).ok());

  std::vector<core::AsrDefinition> registry;
  ASSERT_TRUE(
      core::RegisterAsr(workload::UniversityAsr(), schema_.get(), &registry).ok());
  ASSERT_TRUE(store_->Materialize(registry[0]).ok());

  obs::MetricsRegistry metrics;
  obs::ScopedMetrics install(&metrics);
  ASSERT_TRUE(store_->Unrelate("takes", student, sec1).ok());
  store_->RefreshStaleAsrs();
  for (const auto& asr : store_->AsrStates()) EXPECT_FALSE(asr.stale);
  EXPECT_GE(metrics.CounterValue("asr.lazy_rebuilds"), 1u);
  EXPECT_TRUE(store_->Pairs("asr_student_ta").empty());

  // Idempotent and free when nothing is stale.
  const uint64_t rebuilds = metrics.CounterValue("asr.lazy_rebuilds");
  store_->RefreshStaleAsrs();
  EXPECT_EQ(metrics.CounterValue("asr.lazy_rebuilds"), rebuilds);
}

}  // namespace
}  // namespace sqo::engine
