#ifndef SQO_TESTS_STORAGE_STORAGE_TEST_UTIL_H_
#define SQO_TESTS_STORAGE_STORAGE_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/fileio.h"
#include "engine/database.h"
#include "engine/object_store.h"
#include "sqo/pipeline.h"
#include "workload/university.h"

namespace sqo::storage_test {

/// A per-test scratch directory under the gtest temp root, wiped of any
/// leftovers from a previous run. The current test's name is folded into
/// the path so tests sharing a tag stay isolated under `ctest -j`.
inline std::string FreshDir(const std::string& tag) {
  std::string name = "sqo_storage_" + tag;
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info();
      info != nullptr) {
    name += std::string("_") + info->name();
  }
  // Parameterized test names contain '/': flatten the name, not the root.
  std::replace(name.begin(), name.end(), '/', '_');
  const std::string dir = ::testing::TempDir() + name;
  if (sqo::Result<std::vector<std::string>> names = fs::ListDir(dir);
      names.ok()) {
    for (const std::string& name : *names) {
      const sqo::Status removed = fs::RemoveFile(dir + "/" + name);
      (void)removed;
    }
  }
  return dir;
}

/// Process-wide university pipeline (compiling it per test is wasteful and
/// its schema must outlive every database built on it).
inline const core::Pipeline& UniversityPipeline() {
  static const core::Pipeline* pipeline = [] {
    auto result = workload::MakeUniversityPipeline();
    if (!result.ok()) {
      ADD_FAILURE() << result.status().ToString();
      std::abort();
    }
    return new core::Pipeline(std::move(result).value());
  }();
  return *pipeline;
}

/// Small deterministic config — tests reopen databases many times.
inline workload::GeneratorConfig SmallConfig() {
  workload::GeneratorConfig config;
  config.n_plain_persons = 4;
  config.n_students = 8;
  config.n_faculty = 3;
  config.n_courses = 2;
  config.sections_per_course = 2;
  config.takes_per_student = 2;
  return config;
}

/// A populated university database (methods, indexes, data, ASR).
inline std::unique_ptr<engine::Database> MakePopulatedDb() {
  auto db = std::make_unique<engine::Database>(&UniversityPipeline().schema());
  const sqo::Status status =
      workload::PopulateUniversity(SmallConfig(), UniversityPipeline(),
                                   db.get());
  EXPECT_TRUE(status.ok()) << status.ToString();
  return db;
}

/// An empty database ready to recover persisted state (methods + indexes
/// registered, no data).
inline std::unique_ptr<engine::Database> MakeEmptyDb() {
  auto db = std::make_unique<engine::Database>(&UniversityPipeline().schema());
  const sqo::Status status = workload::SetupUniversityRuntime(db.get());
  EXPECT_TRUE(status.ok()) << status.ToString();
  return db;
}

/// Canonical textual signature of a store's logical contents: every object
/// row plus every non-empty relation's sorted pair set plus the OID
/// allocator. Two stores with equal signatures answer every query alike.
/// (Empty relations are skipped: recovery materializes a relation entry
/// only when it has pairs, which is invisible to queries.)
inline std::string StateSignature(const engine::ObjectStore& store) {
  std::string out;
  store.ForEachObject([&out](sqo::Oid oid, const std::string& relation,
                            engine::ObjectStore::RowView row) {
    out += std::to_string(oid.raw()) + "|" + relation;
    for (const sqo::Value& v : row) out += "|" + v.ToString();
    out += "\n";
  });
  for (const std::string& rel : store.RelationNames()) {
    std::vector<std::pair<uint64_t, uint64_t>> pairs;
    // PairsRaw: a signature is a verbatim capture — reading it must not
    // heal a stale ASR (Pairs() would, and would change what we compare).
    for (const auto& [src, dst] : store.PairsRaw(rel)) {
      pairs.emplace_back(src.raw(), dst.raw());
    }
    if (pairs.empty()) continue;
    std::sort(pairs.begin(), pairs.end());
    out += rel;
    for (const auto& [src, dst] : pairs) {
      out += " (" + std::to_string(src) + "," + std::to_string(dst) + ")";
    }
    out += "\n";
  }
  out += "next_oid=" + std::to_string(store.next_oid());
  return out;
}

/// One scripted store operation. Ops resolve OIDs through extents at call
/// time, so the same script drives both the durable database and the
/// in-memory oracle, as long as both saw the same op prefix.
using Op = std::function<sqo::Status(engine::Database*)>;

/// Deterministic mixed-mutation script (creates, attribute updates,
/// relates/unrelates, deletes) seeded by `seed`.
inline std::vector<Op> BuildOpScript(uint64_t seed, size_t n) {
  std::vector<Op> ops;
  std::mt19937_64 rng(seed);
  for (size_t i = 0; i < n; ++i) {
    switch (rng() % 6) {
      case 0:
        ops.push_back([i](engine::Database* db) {
          return db->store()
              .CreateObject("Person",
                            {{"name", Value::String("op_p" + std::to_string(i))},
                             {"age", Value::Int(20 + static_cast<int>(i % 50))}})
              .status();
        });
        break;
      case 1:
        ops.push_back([i](engine::Database* db) {
          return db->store()
              .CreateObject(
                  "Student",
                  {{"name", Value::String("op_s" + std::to_string(i))},
                   {"age", Value::Int(18 + static_cast<int>(i % 10))},
                   {"student_id", Value::String("OPS" + std::to_string(i))}})
              .status();
        });
        break;
      case 2: {
        const uint64_t pick = rng();
        ops.push_back([i, pick](engine::Database* db) {
          const auto& persons = db->store().Extent("person");
          if (persons.empty()) return sqo::Status::Ok();
          return db->store().UpdateAttribute(
              persons[pick % persons.size()], "age",
              Value::Int(21 + static_cast<int>(i % 60)));
        });
        break;
      }
      case 3: {
        const uint64_t s = rng(), t = rng();
        ops.push_back([s, t](engine::Database* db) {
          const auto& students = db->store().Extent("student");
          const auto& sections = db->store().Extent("section");
          if (students.empty() || sections.empty()) return sqo::Status::Ok();
          return db->store().Relate("takes", students[s % students.size()],
                                    sections[t % sections.size()]);
        });
        break;
      }
      case 4: {
        const uint64_t pick = rng();
        ops.push_back([pick](engine::Database* db) {
          const auto& takes = db->store().Pairs("takes");
          if (takes.empty()) return sqo::Status::Ok();
          const auto [src, dst] = takes[pick % takes.size()];
          return db->store().Unrelate("takes", src, dst);
        });
        break;
      }
      default: {
        const uint64_t pick = rng();
        ops.push_back([pick](engine::Database* db) {
          // Delete a plain person (students/TAs keep relationship shapes
          // simpler to reason about — deletes still drop pairs via extents).
          const auto& persons = db->store().Extent("person");
          if (persons.empty()) return sqo::Status::Ok();
          return db->store().DeleteObject(persons[pick % persons.size()]);
        });
        break;
      }
    }
  }
  return ops;
}

}  // namespace sqo::storage_test

#endif  // SQO_TESTS_STORAGE_STORAGE_TEST_UTIL_H_
