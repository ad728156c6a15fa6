#include "storage/snapshot.h"

#include <gtest/gtest.h>

#include <string>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/fileio.h"
#include "storage/catalog.h"
#include "storage_test_util.h"

namespace sqo::storage {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::DeactivateAll();
    dir_ = storage_test::FreshDir("snapshot");
    ASSERT_TRUE(fs::EnsureDir(dir_).ok());
    path_ = dir_ + "/snapshot-000001.sqo";
  }
  void TearDown() override { failpoint::DeactivateAll(); }

  std::string dir_;
  std::string path_;
};

TEST_F(SnapshotTest, RoundTripRestoresEveryObjectAndPair) {
  auto db = storage_test::MakePopulatedDb();
  const sqo::Fingerprint128 hash =
      SchemaFingerprint(storage_test::UniversityPipeline().schema());
  ASSERT_TRUE(
      WriteSnapshot(path_, db->store(), hash, 17, "{\"k\":1}").ok());

  auto contents = ReadSnapshot(path_);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_EQ(contents->schema_hash, hash);
  EXPECT_EQ(contents->last_lsn, 17u);
  EXPECT_EQ(contents->next_oid, db->store().next_oid());
  EXPECT_EQ(contents->objects.size(), db->store().object_count());
  EXPECT_EQ(contents->catalog_json, "{\"k\":1}");

  // Applying the decoded mutations to an empty store reproduces the state.
  auto restored = storage_test::MakeEmptyDb();
  ASSERT_TRUE(restored->store().ApplyMutations(contents->objects).ok());
  ASSERT_TRUE(restored->store().ApplyMutations(contents->pairs).ok());
  ASSERT_TRUE(restored->store().RestoreNextOid(contents->next_oid).ok());
  EXPECT_EQ(storage_test::StateSignature(restored->store()),
            storage_test::StateSignature(db->store()));
}

TEST_F(SnapshotTest, IndexSectionRoundTripsIndexesAndAsrStates) {
  auto db = storage_test::MakePopulatedDb();
  // Build the lazy secondary index on person.age (extent 19 >= 16) and
  // mark the workload ASR stale, so both halves of the index section are
  // non-trivial.
  bool built = false;
  db->store().LazyIndexLookup("person", 2, sqo::Value::Int(21), 16, &built);
  ASSERT_TRUE(built);
  ASSERT_FALSE(db->store().DumpSecondaryIndexes().empty());
  ASSERT_FALSE(db->store().AsrStates().empty());
  const auto& takes = db->store().Pairs("takes");
  ASSERT_FALSE(takes.empty());
  ASSERT_TRUE(
      db->store().Unrelate("takes", takes[0].first, takes[0].second).ok());

  const sqo::Fingerprint128 hash =
      SchemaFingerprint(storage_test::UniversityPipeline().schema());
  ASSERT_TRUE(WriteSnapshot(path_, db->store(), hash, 3, "{}").ok());

  auto contents = ReadSnapshot(path_);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  ASSERT_EQ(contents->indexes.size(),
            db->store().DumpSecondaryIndexes().size());
  EXPECT_EQ(contents->indexes[0].relation, "person");
  EXPECT_EQ(contents->indexes[0].pos, 2u);
  EXPECT_FALSE(contents->indexes[0].entries.empty());
  ASSERT_EQ(contents->asrs.size(), db->store().AsrStates().size());
  bool any_stale = false;
  for (const auto& asr : contents->asrs) {
    EXPECT_FALSE(asr.name.empty());
    EXPECT_FALSE(asr.path.empty());
    any_stale |= asr.stale;
  }
  EXPECT_TRUE(any_stale);

  // Restoring the dumps reinstalls a servable index: the next lookup is a
  // probe, not a build.
  auto restored = storage_test::MakeEmptyDb();
  ASSERT_TRUE(restored->store().ApplyMutations(contents->objects).ok());
  ASSERT_TRUE(restored->store().ApplyMutations(contents->pairs).ok());
  ASSERT_TRUE(restored->store().RestoreNextOid(contents->next_oid).ok());
  for (auto& dump : contents->indexes) {
    restored->store().RestoreSecondaryIndex(std::move(dump));
  }
  for (auto& asr : contents->asrs) {
    restored->store().RestoreAsrState(std::move(asr));
  }
  const auto* original =
      db->store().LazyIndexLookup("person", 2, sqo::Value::Int(21), 16, &built);
  const auto* probed = restored->store().LazyIndexLookup(
      "person", 2, sqo::Value::Int(21), 16, &built);
  ASSERT_TRUE(built);
  if (original == nullptr) {
    EXPECT_EQ(probed, nullptr);
  } else {
    ASSERT_NE(probed, nullptr);
    EXPECT_EQ(*probed, *original);
  }
}

TEST_F(SnapshotTest, IndexSectionBitFlipIsCorruption) {
  auto db = storage_test::MakePopulatedDb();
  bool built = false;
  db->store().LazyIndexLookup("person", 2, sqo::Value::Int(21), 16, &built);
  ASSERT_TRUE(built);
  const sqo::Fingerprint128 hash =
      SchemaFingerprint(storage_test::UniversityPipeline().schema());
  ASSERT_TRUE(WriteSnapshot(path_, db->store(), hash, 3, "{}").ok());

  auto bytes = fs::ReadFile(path_);
  ASSERT_TRUE(bytes.ok());
  std::string mutated = *bytes;
  mutated.back() ^= 0x10;  // the index section is the file's last section
  ASSERT_TRUE(fs::WriteFileAtomic(path_, mutated).ok());
  auto read = ReadSnapshot(path_);
  EXPECT_EQ(read.status().code(), sqo::StatusCode::kDataCorruption);
}

TEST_F(SnapshotTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadSnapshot(path_).status().code(), sqo::StatusCode::kNotFound);
}

TEST_F(SnapshotTest, TruncationIsCorruption) {
  auto db = storage_test::MakePopulatedDb();
  ASSERT_TRUE(WriteSnapshot(path_, db->store(), {}, 0, "").ok());
  auto data = fs::ReadFile(path_);
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(fs::TruncateFile(path_, data->size() / 2).ok());
  EXPECT_EQ(ReadSnapshot(path_).status().code(),
            sqo::StatusCode::kDataCorruption);
  // Even a sub-header stub fails cleanly.
  ASSERT_TRUE(fs::TruncateFile(path_, 10).ok());
  EXPECT_EQ(ReadSnapshot(path_).status().code(),
            sqo::StatusCode::kDataCorruption);
}

TEST_F(SnapshotTest, SectionBitFlipIsCorruption) {
  auto db = storage_test::MakePopulatedDb();
  ASSERT_TRUE(WriteSnapshot(path_, db->store(), {}, 0, "catalog!").ok());
  auto data = fs::ReadFile(path_);
  ASSERT_TRUE(data.ok());
  std::string mutated = *data;
  mutated[kSnapshotHeaderSize + 12] ^= 0x04;  // store section
  ASSERT_TRUE(fs::WriteFileAtomic(path_, mutated).ok());
  auto read = ReadSnapshot(path_);
  EXPECT_EQ(read.status().code(), sqo::StatusCode::kDataCorruption);
  EXPECT_NE(read.status().message().find("store section"), std::string::npos);

  mutated = *data;
  mutated[mutated.size() - 2] ^= 0x04;  // index section (at the tail)
  ASSERT_TRUE(fs::WriteFileAtomic(path_, mutated).ok());
  read = ReadSnapshot(path_);
  EXPECT_EQ(read.status().code(), sqo::StatusCode::kDataCorruption);
  EXPECT_NE(read.status().message().find("index section"),
            std::string::npos);
}

TEST_F(SnapshotTest, VersionSkewIsCorruptionEvenWithValidChecksum) {
  auto db = storage_test::MakePopulatedDb();
  ASSERT_TRUE(WriteSnapshot(path_, db->store(), {}, 0, "").ok());
  auto data = fs::ReadFile(path_);
  ASSERT_TRUE(data.ok());
  std::string mutated = *data;
  mutated[4] = 99;  // version field (u32 LE at offset 4)
  // Re-seal the header so only the version — not the checksum — is wrong.
  const uint32_t crc = MaskCrc32c(Crc32c(mutated.data(), kSnapshotHeaderSize - 4));
  for (int i = 0; i < 4; ++i) {
    mutated[kSnapshotHeaderSize - 4 + i] =
        static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  ASSERT_TRUE(fs::WriteFileAtomic(path_, mutated).ok());
  auto read = ReadSnapshot(path_);
  EXPECT_EQ(read.status().code(), sqo::StatusCode::kDataCorruption);
  EXPECT_NE(read.status().message().find("version"), std::string::npos);
}

TEST_F(SnapshotTest, WriteFailpointsLeaveNoFileBehind) {
  auto db = storage_test::MakePopulatedDb();
  for (const char* site :
       {"storage.snapshot_write", "storage.fsync", "storage.rename"}) {
    failpoint::Action action;
    action.status = sqo::InternalError(std::string("injected: ") + site);
    failpoint::Activate(site, action);
    EXPECT_FALSE(WriteSnapshot(path_, db->store(), {}, 0, "").ok()) << site;
    failpoint::DeactivateAll();
    EXPECT_FALSE(fs::Exists(path_)) << site;
  }
  // And with no failpoint armed, the same call succeeds.
  EXPECT_TRUE(WriteSnapshot(path_, db->store(), {}, 0, "").ok());
  EXPECT_TRUE(fs::Exists(path_));
}

}  // namespace
}  // namespace sqo::storage
