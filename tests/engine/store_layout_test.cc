/// Store-layout differential test: random creates, struct creates,
/// updates, deletes, Relate/Unrelate, Clear, replay, RestoreNextOid and
/// snapshot round trips against a naive model of the store. After every
/// operation each (relation, OID) membership and row view must equal what
/// the model and the ODL class hierarchy (`odl::Schema::IsSubclassOf`)
/// say, and the object visitor must walk the model's objects in OID order.
/// Also: an ASR registered after the store was built, and OIDs forged past
/// the allocated range.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/fileio.h"
#include "datalog/parser.h"
#include "engine/evaluator.h"
#include "engine/object_store.h"
#include "odl/parser.h"
#include "sqo/asr.h"
#include "storage/snapshot.h"
#include "workload/university.h"
#include "../storage/storage_test_util.h"

namespace sqo::engine {
namespace {

using datalog::RelationId;
using datalog::RelationKind;
using datalog::RelationSignature;
using sqo::Oid;
using sqo::Value;

std::unique_ptr<translate::TranslatedSchema> UniversitySchema() {
  auto ast = odl::ParseOdl(workload::UniversityOdl());
  EXPECT_TRUE(ast.ok());
  auto schema = odl::Schema::Resolve(*ast);
  EXPECT_TRUE(schema.ok());
  auto translated = translate::TranslateSchema(*schema);
  EXPECT_TRUE(translated.ok());
  return std::make_unique<translate::TranslatedSchema>(
      std::move(translated).value());
}

bool IsObjectRelation(const RelationSignature& sig) {
  return sig.kind == RelationKind::kClass ||
         sig.kind == RelationKind::kStructure;
}

/// Whether an instance of exact type relation `exact` belongs to
/// `relation`, from the ODL hierarchy alone.
bool NaiveMember(const translate::TranslatedSchema& schema,
                 const std::string& exact, const RelationSignature& relation) {
  if (!IsObjectRelation(relation)) return false;
  const std::string& type = schema.relation_to_type.at(exact);
  if (schema.schema.FindClass(type) == nullptr) return exact == relation.name;
  return relation.kind == RelationKind::kClass &&
         schema.schema.IsSubclassOf(type, relation.owner);
}

/// What the store should hold: objects by OID, and the `takes` pairs.
struct Model {
  std::map<uint64_t, std::pair<std::string, ObjectStore::Row>> objects;
  std::set<std::pair<uint64_t, uint64_t>> takes;  // (student, section)
};

std::set<std::pair<uint64_t, uint64_t>> PairSet(const ObjectStore& store,
                                                const std::string& rel,
                                                bool flip = false) {
  std::set<std::pair<uint64_t, uint64_t>> out;
  for (const auto& [src, dst] : store.PairsRaw(rel)) {
    out.emplace(flip ? dst.raw() : src.raw(), flip ? src.raw() : dst.raw());
  }
  return out;
}

/// Checks every (relation, OID) membership, view and extent, the visitor
/// and the pair sets of `store` against `model`.
void ExpectMatchesModel(const ObjectStore& store, const Model& model,
                        const std::string& where) {
  SCOPED_TRACE(where);
  const translate::TranslatedSchema& schema = store.schema();
  std::vector<uint64_t> visited;
  store.ForEachObject([&](Oid oid, const std::string& relation,
                          ObjectStore::RowView row) {
    visited.push_back(oid.raw());
    const auto it = model.objects.find(oid.raw());
    ASSERT_NE(it, model.objects.end()) << "visited @" << oid.raw();
    EXPECT_EQ(relation, it->second.first);
    EXPECT_EQ(std::vector<Value>(row.begin(), row.end()), it->second.second);
  });
  std::vector<uint64_t> expected_order;
  for (const auto& [oid, object] : model.objects) expected_order.push_back(oid);
  EXPECT_EQ(visited, expected_order);  // every object, in OID order
  EXPECT_EQ(store.object_count(), model.objects.size());

  for (const auto& [name, sig] : schema.catalog.relations()) {
    std::set<uint64_t> expected_extent;
    for (uint64_t raw = 0; raw < store.next_oid() + 2; ++raw) {
      const Oid oid(raw);
      const auto it = model.objects.find(raw);
      const bool member =
          it != model.objects.end() && NaiveMember(schema, it->second.first, sig);
      ASSERT_EQ(store.IsMember(sig.id, oid), member) << name << " @" << raw;
      ASSERT_EQ(store.IsMember(name, oid), member) << name << " @" << raw;
      const ObjectStore::RowView view = store.RowAs(sig.id, oid);
      if (!member) {
        ASSERT_TRUE(view.empty()) << name << " @" << raw;
        continue;
      }
      expected_extent.insert(raw);
      const ObjectStore::Row& full = it->second.second;
      ASSERT_EQ(view.size(), sig.arity()) << name << " @" << raw;
      EXPECT_EQ(std::vector<Value>(view.begin(), view.end()),
                std::vector<Value>(full.begin(), full.begin() + sig.arity()));
      // The name-keyed read is the same zero-copy view.
      EXPECT_EQ(store.RowAs(name, oid).data(), view.data());
    }
    std::set<uint64_t> extent;
    for (Oid oid : store.Extent(sig.id)) extent.insert(oid.raw());
    EXPECT_EQ(store.Extent(sig.id).size(), extent.size()) << name;
    EXPECT_EQ(extent, expected_extent) << name;
  }
  EXPECT_EQ(PairSet(store, "takes"), model.takes);
  EXPECT_EQ(PairSet(store, "is_taken_by", /*flip=*/true), model.takes);
}

/// Drives one store and its model through a random operation sequence.
class LayoutDriver {
 public:
  LayoutDriver(const translate::TranslatedSchema* schema, uint64_t seed)
      : schema_(schema), store_(schema), rng_(seed) {
    store_.SetMutationListener([this](const std::vector<Mutation>& batch) {
      log_.push_back(batch);
      return sqo::Status::Ok();
    });
  }

  void Step(size_t i) {
    const int op = Pick(100);
    if (op < 30) {
      CreateObject();
    } else if (op < 38) {
      CreateStruct();
    } else if (op < 42) {
      // An unknown attribute fails the create after its OID is minted:
      // the burned OID is a gap in the allocated range.
      EXPECT_FALSE(store_.CreateObject("Person", {{"phone", Value::Int(1)}}).ok());
    } else if (op < 56) {
      Update();
    } else if (op < 66) {
      Delete();
    } else if (op < 80) {
      Relate();
    } else if (op < 86) {
      Unrelate();
    } else if (op < 89) {
      RestoreNextOid();
    } else if (op < 93) {
      Replay();
    } else if (op < 97) {
      SnapshotRoundTrip();
    } else if (op < 98) {
      store_.Clear();
      model_ = Model{};
      log_.clear();
    }
    ExpectMatchesModel(store_, model_, "step " + std::to_string(i));
  }

 private:
  int Pick(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }

  /// A random live object of `relation` (any, when empty); nullopt if none.
  std::optional<Oid> AnyMember(const std::string& relation = "") {
    std::vector<Oid> candidates;
    for (const auto& [raw, object] : model_.objects) {
      if (relation.empty() ||
          NaiveMember(*schema_, object.first, *schema_->catalog.Find(relation))) {
        candidates.push_back(Oid(raw));
      }
    }
    if (candidates.empty()) return std::nullopt;
    return candidates[Pick(static_cast<int>(candidates.size()))];
  }

  void Install(Oid oid, const std::string& relation,
               const std::map<std::string, Value>& attrs) {
    const RelationSignature* sig = schema_->catalog.Find(relation);
    ObjectStore::Row row(sig->arity());
    row[0] = Value::FromOid(oid);
    for (const auto& [attr, value] : attrs) row[*sig->AttributeIndex(attr)] = value;
    model_.objects[oid.raw()] = {relation, std::move(row)};
  }

  void CreateObject() {
    static const char* kClasses[] = {"Person", "Employee", "Faculty", "Student",
                                     "TA",     "Course",   "Section"};
    const std::string cls = kClasses[Pick(7)];
    std::map<std::string, Value> attrs;
    if (cls == "Course") {
      attrs["cname"] = Value::String("c" + std::to_string(++names_));
    } else if (cls == "Section") {
      attrs["number"] = Value::String("s" + std::to_string(++names_));
    } else {
      attrs["name"] = Value::String("p" + std::to_string(++names_));
      attrs["age"] = Value::Int(18 + Pick(50));
      if (cls == "Faculty") attrs["salary"] = Value::Double(40000 + Pick(9) * 1000);
    }
    auto oid = store_.CreateObject(cls, attrs);
    ASSERT_TRUE(oid.ok()) << oid.status().ToString();
    Install(*oid, schema_->RelationFor(cls), attrs);
  }

  void CreateStruct() {
    const std::map<std::string, Value> fields = {
        {"street", Value::String(std::to_string(Pick(99)) + " Main")},
        {"city", Value::String("cp")}};
    auto oid = store_.CreateStruct("Address", fields);
    ASSERT_TRUE(oid.ok()) << oid.status().ToString();
    Install(*oid, "address", fields);
  }

  void Update() {
    std::optional<Oid> oid = AnyMember();
    if (!oid.has_value()) return;
    auto& [relation, row] = model_.objects[oid->raw()];
    const RelationSignature* sig = schema_->catalog.Find(relation);
    const size_t pos = 1 + Pick(static_cast<int>(sig->arity()) - 1);
    const Value value = Value::String("u" + std::to_string(++names_));
    ASSERT_TRUE(store_.UpdateAttribute(*oid, sig->attributes[pos], value).ok());
    row[pos] = value;
  }

  void Delete() {
    std::optional<Oid> oid = AnyMember();
    if (!oid.has_value()) return;
    ASSERT_TRUE(store_.DeleteObject(*oid).ok());
    model_.objects.erase(oid->raw());
    std::erase_if(model_.takes, [&](const auto& pair) {
      return pair.first == oid->raw() || pair.second == oid->raw();
    });
  }

  void Relate() {
    std::optional<Oid> student = AnyMember("student");
    std::optional<Oid> section = AnyMember("section");
    if (!student.has_value() || !section.has_value()) return;
    ASSERT_TRUE(store_.Relate("takes", *student, *section).ok());
    model_.takes.emplace(student->raw(), section->raw());
  }

  void Unrelate() {
    if (model_.takes.empty()) return;
    auto it = model_.takes.begin();
    std::advance(it, Pick(static_cast<int>(model_.takes.size())));
    ASSERT_TRUE(store_.Unrelate("takes", Oid(it->first), Oid(it->second)).ok());
    model_.takes.erase(it);
  }

  void RestoreNextOid() {
    const uint64_t before = store_.next_oid();
    ASSERT_TRUE(store_.RestoreNextOid(before + 1 + Pick(5)).ok());
    EXPECT_GT(store_.next_oid(), before);
    const uint64_t raised = store_.next_oid();
    const sqo::Status forged =
        store_.RestoreNextOid(raised + ObjectStore::kMaxOidGap + 1);
    EXPECT_EQ(forged.code(), sqo::StatusCode::kDataCorruption);
    EXPECT_EQ(store_.next_oid(), raised);
  }

  /// Replays every logged batch into a fresh store, which must then match
  /// the model too.
  void Replay() {
    ObjectStore replica(schema_);
    for (const std::vector<Mutation>& batch : log_) {
      ASSERT_TRUE(replica.ApplyMutations(batch).ok());
    }
    ExpectMatchesModel(replica, model_, "replay");
  }

  void SnapshotRoundTrip() {
    const std::string dir = storage_test::FreshDir("layout");
    ASSERT_TRUE(fs::EnsureDir(dir).ok());
    const std::string path = dir + "/snapshot.sqo";
    ASSERT_TRUE(storage::WriteSnapshot(path, store_, sqo::Fingerprint128{}, 0, "")
                    .ok());
    auto contents = storage::ReadSnapshot(path);
    ASSERT_TRUE(contents.ok()) << contents.status().ToString();
    ObjectStore restored(schema_);
    ASSERT_TRUE(restored.ApplyMutations(contents->objects).ok());
    ASSERT_TRUE(restored.ApplyMutations(contents->pairs).ok());
    ASSERT_TRUE(restored.RestoreNextOid(contents->next_oid).ok());
    EXPECT_EQ(restored.next_oid(), store_.next_oid());
    ExpectMatchesModel(restored, model_, "snapshot");
    EXPECT_EQ(storage_test::StateSignature(restored),
              storage_test::StateSignature(store_));
  }

  const translate::TranslatedSchema* schema_;
  ObjectStore store_;
  Model model_;
  std::vector<std::vector<Mutation>> log_;
  std::mt19937_64 rng_;
  uint64_t names_ = 0;
};

TEST(StoreLayoutDifferential, RandomOperationsMatchTheNaiveModel) {
  auto schema = UniversitySchema();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    LayoutDriver driver(schema.get(), seed);
    for (size_t i = 0; i < 150 && !::testing::Test::HasFatalFailure(); ++i) {
      driver.Step(i);
    }
  }
}

TEST(StoreLayoutDifferential, AsrRegisteredAfterTheStoreWorks) {
  auto schema = UniversitySchema();
  ObjectStore store(schema.get());
  std::map<std::string, RelationId> ids;
  for (const auto& [name, sig] : schema->catalog.relations()) ids[name] = sig.id;

  auto make = [&](const std::string& cls, const std::string& attr) {
    auto oid = store.CreateObject(cls, {{attr, Value::String(cls)}});
    EXPECT_TRUE(oid.ok());
    return *oid;
  };
  const Oid student = make("Student", "name");
  const Oid section = make("Section", "number");
  const Oid course = make("Course", "cname");
  const Oid other_section = make("Section", "number");
  const Oid ta = make("TA", "name");
  ASSERT_TRUE(store.Relate("takes", student, section).ok());
  ASSERT_TRUE(store.Relate("is_section_of", section, course).ok());
  ASSERT_TRUE(store.Relate("has_ta", other_section, ta).ok());

  std::vector<core::AsrDefinition> registry;
  ASSERT_TRUE(core::RegisterAsr(workload::UniversityAsr(), schema.get(), &registry)
                  .ok());
  const RelationSignature* asr = schema->catalog.Find("asr_student_ta");
  ASSERT_NE(asr, nullptr);
  // Ids are append-only: the ASR takes the next one, the rest keep theirs.
  EXPECT_EQ(asr->id, ids.size());
  for (const auto& [name, id] : ids) {
    EXPECT_EQ(schema->catalog.ById(id).name, name);
    EXPECT_EQ(schema->catalog.Find(name)->id, id);
  }
  EXPECT_EQ(&schema->catalog.ById(asr->id), asr);

  ASSERT_TRUE(store.Materialize(registry.back()).ok());
  EXPECT_TRUE(store.Pairs("asr_student_ta").empty());
  // The last hop arrives after materialization: insert maintenance
  // derives the ASR pair.
  ASSERT_TRUE(store.Relate("has_sections", course, other_section).ok());
  ASSERT_EQ(store.Pairs("asr_student_ta").size(), 1u);
  EXPECT_EQ(store.Pairs("asr_student_ta")[0],
            std::make_pair(student, ta));
  // The ASR owns no objects.
  EXPECT_TRUE(store.Extent(asr->id).empty());
  EXPECT_TRUE(store.RowAs(asr->id, student).empty());
  EXPECT_FALSE(store.IsMember(asr->id, student));

  // The executor resolves the new id like any other.
  auto query = datalog::ParseQueryText("q(X, W) :- asr_student_ta(X, W).",
                                       &schema->catalog);
  ASSERT_TRUE(query.ok());
  Evaluator evaluator(&store);
  auto rows = evaluator.Evaluate(*query, nullptr);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], Value::FromOid(student));
  EXPECT_EQ((*rows)[0][1], Value::FromOid(ta));

  // Objects created after the registration land in the same tables.
  const Oid late = make("Student", "name");
  EXPECT_TRUE(store.IsMember(ids.at("person"), late));
  EXPECT_EQ(store.Extent("student").size(), 3u);  // student, ta, late
}

TEST(StoreLayoutDifferential, ForgedOidsFailBeforeTheSlotTableGrows) {
  auto schema = UniversitySchema();
  ObjectStore store(schema.get());
  ASSERT_TRUE(store.CreateObject("Person", {{"name", Value::String("a")}}).ok());
  auto create = [](uint64_t raw) {
    Mutation m;
    m.kind = Mutation::Kind::kCreate;
    m.oid = Oid(raw);
    m.relation = "person";
    m.row = {Value::FromOid(Oid(raw)), Value::String("forged"), Value(), Value()};
    return m;
  };
  for (uint64_t raw : {uint64_t{1} << 62, ~uint64_t{0},
                       store.next_oid() + ObjectStore::kMaxOidGap}) {
    const sqo::Status status = store.ApplyMutations({create(raw)});
    EXPECT_EQ(status.code(), sqo::StatusCode::kDataCorruption) << raw;
    EXPECT_EQ(store.object_count(), 1u);
    EXPECT_EQ(store.next_oid(), 2u);
  }
  // A gap within the bound (deleted objects, burned OIDs) is legitimate.
  ASSERT_TRUE(store.ApplyMutations({create(1000)}).ok());
  EXPECT_EQ(store.next_oid(), 1001u);
  EXPECT_EQ(store.RowAs("person", Oid(1000))[1], Value::String("forged"));
  EXPECT_TRUE(store.RowAs("person", Oid(999)).empty());
}

}  // namespace
}  // namespace sqo::engine
