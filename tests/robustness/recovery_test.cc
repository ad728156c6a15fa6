/// Kill-and-reopen differential tests: for every storage failpoint site,
/// crash the database mid-stream and prove recovery restores exactly the
/// acknowledged prefix of operations (allowing the one durable-but-
/// unacknowledged record a post-write fsync failure can legitimately
/// leave behind). Plus a corruption corpus: truncated snapshots,
/// bit-flipped and stale-LSN WAL records, version-skewed headers and
/// outright garbage must degrade fail-open (or fail closed with
/// kDataCorruption when asked to) — never abort.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/fileio.h"
#include "engine/database.h"
#include "storage/manager.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "../storage/storage_test_util.h"

namespace sqo::storage {
namespace {

using storage_test::BuildOpScript;
using storage_test::MakeEmptyDb;
using storage_test::MakePopulatedDb;
using storage_test::Op;
using storage_test::StateSignature;
using storage_test::UniversityPipeline;

constexpr uint64_t kScriptSeed = 2026;
constexpr size_t kScriptLen = 24;

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::DeactivateAll();
    dir_ = storage_test::FreshDir("recovery");
  }
  void TearDown() override { failpoint::DeactivateAll(); }

  static OpenOptions CrashOptions() {
    OpenOptions options;
    options.compiled = &UniversityPipeline().compiled();
    options.checkpoint_on_close = false;
    return options;
  }

  static OpenOptions ReopenOptions() {
    OpenOptions options;
    options.compiled = &UniversityPipeline().compiled();
    return options;
  }

  /// Runs `ops` against a freshly-opened populated database with `site`
  /// armed (after open, so baseline checkpointing is unaffected), stopping
  /// at the first rejected op, then crashes (destroys without checkpoint).
  /// Returns the number of acknowledged ops.
  size_t RunUntilFailureAndCrash(const std::vector<Op>& ops,
                                 const std::string& site,
                                 uint64_t trigger_after) {
    auto db = MakePopulatedDb();
    EXPECT_TRUE(db->Open(dir_, CrashOptions()).ok());
    failpoint::Action action;
    action.status = sqo::InternalError("injected crash at " + site);
    action.trigger_after = trigger_after;
    action.max_trips = 1;
    failpoint::Activate(site, action);
    size_t acked = 0;
    for (const Op& op : ops) {
      if (!op(db.get()).ok()) break;
      ++acked;
    }
    failpoint::DeactivateAll();
    return acked;  // db destroyed here: crash
  }

  /// Signature of a populated oracle after applying the first `n` ops.
  static std::string OracleSignature(const std::vector<Op>& ops, size_t n) {
    auto oracle = MakePopulatedDb();
    for (size_t i = 0; i < n && i < ops.size(); ++i) {
      EXPECT_TRUE(ops[i](oracle.get()).ok());
    }
    return StateSignature(oracle->store());
  }

  std::string RecoverSignature(bool* degraded = nullptr) {
    auto db = MakeEmptyDb();
    EXPECT_TRUE(db->Open(dir_, ReopenOptions()).ok());
    if (degraded != nullptr) *degraded = db->recovery_info()->degraded;
    const std::string sig = StateSignature(db->store());
    EXPECT_TRUE(db->CloseStorage().ok());
    return sig;
  }

  /// Path of the newest WAL segment (the one traffic was appending to).
  std::string NewestWalPath() const {
    auto segments = ListWalSegments(*fs::Env::Default(), dir_);
    EXPECT_TRUE(segments.ok() && !segments->empty());
    return segments->back().path;
  }

  /// Snapshot file paths in `dir_`, newest first.
  std::vector<std::string> SnapshotPaths() const {
    std::vector<std::string> paths;
    auto names = fs::ListDir(dir_);
    EXPECT_TRUE(names.ok());
    for (const std::string& name : *names) {
      if (name.rfind("snapshot-", 0) == 0) paths.push_back(dir_ + "/" + name);
    }
    std::sort(paths.rbegin(), paths.rend());
    return paths;
  }

  std::string dir_;
};

TEST_F(RecoveryTest, WalAppendCrashRecoversExactlyTheAckedPrefix) {
  // The append failpoint fires before any byte is written, so recovery
  // must reproduce the acknowledged prefix exactly — no more, no less.
  for (uint64_t trigger_after : {0u, 4u, 11u}) {
    dir_ = storage_test::FreshDir("recovery_append" +
                                  std::to_string(trigger_after));
    const std::vector<Op> ops = BuildOpScript(kScriptSeed, kScriptLen);
    const size_t acked =
        RunUntilFailureAndCrash(ops, "storage.wal_append", trigger_after);
    ASSERT_LT(acked, ops.size());  // the injected failure did reject an op
    bool degraded = false;
    EXPECT_EQ(RecoverSignature(&degraded), OracleSignature(ops, acked))
        << "trigger_after=" << trigger_after;
    EXPECT_FALSE(degraded);  // a lost tail op is not corruption
  }
}

TEST_F(RecoveryTest, FsyncCrashRecoversAckedPrefixOrOneMore) {
  // The fsync failpoint fires after the record's bytes reached the file,
  // so the unacknowledged op may legitimately survive — but nothing past
  // it, and never a hole.
  for (uint64_t trigger_after : {0u, 6u}) {
    dir_ = storage_test::FreshDir("recovery_fsync" +
                                  std::to_string(trigger_after));
    const std::vector<Op> ops = BuildOpScript(kScriptSeed + 1, kScriptLen);
    const size_t acked =
        RunUntilFailureAndCrash(ops, "storage.fsync", trigger_after);
    ASSERT_LT(acked, ops.size());
    const std::string recovered = RecoverSignature();
    const std::string exact = OracleSignature(ops, acked);
    const std::string plus_one = OracleSignature(ops, acked + 1);
    EXPECT_TRUE(recovered == exact || recovered == plus_one)
        << "trigger_after=" << trigger_after
        << ": recovered state matches neither the acked prefix nor "
           "acked+1";
  }
}

TEST_F(RecoveryTest, FailedCheckpointLeavesOldStateAuthoritative) {
  // snapshot_write fails before anything touches disk; rename fails after
  // the temp file is written but before it is published. Either way the
  // previous snapshot + full WAL must still recover every acked op.
  for (const char* site : {"storage.snapshot_write", "storage.rename"}) {
    dir_ = storage_test::FreshDir(std::string("recovery_ckpt_") +
                                  (site + sizeof("storage.") - 1));
    const std::vector<Op> ops = BuildOpScript(kScriptSeed + 2, kScriptLen);
    {
      auto db = MakePopulatedDb();
      ASSERT_TRUE(db->Open(dir_, CrashOptions()).ok());
      for (const Op& op : ops) ASSERT_TRUE(op(db.get()).ok());
      failpoint::Action action;
      action.status = sqo::InternalError(std::string("injected: ") + site);
      failpoint::Activate(site, action);
      EXPECT_FALSE(db->Checkpoint().ok()) << site;
      failpoint::DeactivateAll();
      // Crash without a (successful) checkpoint.
    }
    EXPECT_EQ(RecoverSignature(), OracleSignature(ops, ops.size())) << site;
  }
}

TEST_F(RecoveryTest, TruncatedSnapshotDegradesToPreviousGoodOne) {
  std::string baseline_sig;
  {
    auto db = MakePopulatedDb();
    baseline_sig = StateSignature(db->store());
    ASSERT_TRUE(db->Open(dir_, ReopenOptions()).ok());  // snapshot-000001
    for (const Op& op : BuildOpScript(kScriptSeed + 3, kScriptLen)) {
      ASSERT_TRUE(op(db.get()).ok());
    }
    ASSERT_TRUE(db->CloseStorage().ok());  // snapshot-000002 + fresh WAL
  }
  const std::string newest = dir_ + "/snapshot-000002.sqo";
  ASSERT_TRUE(fs::Exists(newest));
  auto data = fs::ReadFile(newest);
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(fs::TruncateFile(newest, data->size() / 3).ok());

  auto db = MakeEmptyDb();
  ASSERT_TRUE(db->Open(dir_, ReopenOptions()).ok());
  const storage::RecoveryInfo* info = db->recovery_info();
  EXPECT_TRUE(info->degraded);
  EXPECT_TRUE(info->corruption_detected);
  // Fell back to the baseline snapshot; the WAL (based on the truncated
  // snapshot's LSN) was unusable against it and discarded.
  EXPECT_NE(info->snapshot_path.find("snapshot-000001"), std::string::npos);
  EXPECT_EQ(StateSignature(db->store()), baseline_sig);
}

TEST_F(RecoveryTest, BitFlippedWalRecordLosesOnlyTheTail) {
  const std::vector<Op> ops = BuildOpScript(kScriptSeed + 4, kScriptLen);
  {
    auto db = MakePopulatedDb();
    ASSERT_TRUE(db->Open(dir_, CrashOptions()).ok());
    for (const Op& op : ops) ASSERT_TRUE(op(db.get()).ok());
    // A final guaranteed-mutating op so the log's last record is known.
    ASSERT_TRUE(db->store()
                    .CreateObject("Person", {{"name", Value::String("tail")},
                                             {"age", Value::Int(99)}})
                    .ok());
  }
  const std::string wal = NewestWalPath();
  auto data = fs::ReadFile(wal);
  ASSERT_TRUE(data.ok());
  std::string mutated = *data;
  mutated[mutated.size() - 2] ^= 0x10;  // inside the last record's payload
  ASSERT_TRUE(fs::WriteFileAtomic(wal, mutated).ok());

  auto db = MakeEmptyDb();
  ASSERT_TRUE(db->Open(dir_, ReopenOptions()).ok());
  const storage::RecoveryInfo* info = db->recovery_info();
  EXPECT_TRUE(info->corruption_detected);
  EXPECT_TRUE(info->degraded);
  EXPECT_GT(info->truncated_bytes, 0u);
  // Everything before the flipped record survived.
  EXPECT_EQ(StateSignature(db->store()), OracleSignature(ops, ops.size()));
}

TEST_F(RecoveryTest, StaleLsnRecordTruncatesTheLog) {
  const std::vector<Op> ops = BuildOpScript(kScriptSeed + 5, kScriptLen);
  {
    auto db = MakePopulatedDb();
    ASSERT_TRUE(db->Open(dir_, CrashOptions()).ok());
    for (const Op& op : ops) ASSERT_TRUE(op(db.get()).ok());
  }
  // Forge a duplicate of LSN 1 at the tail, as a buggy writer would.
  {
    auto writer = WalWriter::OpenExisting(NewestWalPath());
    ASSERT_TRUE(writer.ok());
    engine::Mutation m;
    m.kind = engine::Mutation::Kind::kCreate;
    m.oid = sqo::Oid(1);
    m.relation = "person";
    m.row = {sqo::Value::FromOid(sqo::Oid(1)), sqo::Value::String("forged")};
    ASSERT_TRUE(writer->Append(1, {m}, true).ok());
  }
  auto db = MakeEmptyDb();
  ASSERT_TRUE(db->Open(dir_, ReopenOptions()).ok());
  EXPECT_TRUE(db->recovery_info()->corruption_detected);
  EXPECT_GT(db->recovery_info()->truncated_bytes, 0u);
  EXPECT_EQ(StateSignature(db->store()), OracleSignature(ops, ops.size()));
}

TEST_F(RecoveryTest, VersionSkewedSnapshotDegradesWithoutAborting) {
  {
    auto db = MakePopulatedDb();
    ASSERT_TRUE(db->Open(dir_, ReopenOptions()).ok());
    ASSERT_TRUE(db->CloseStorage().ok());
  }
  // Patch the version field of every snapshot and re-seal the header CRCs:
  // the skew itself, not a checksum failure, must be what recovery rejects.
  const std::vector<std::string> paths = SnapshotPaths();
  ASSERT_FALSE(paths.empty());
  for (const std::string& path : paths) {
    auto data = fs::ReadFile(path);
    ASSERT_TRUE(data.ok());
    std::string mutated = *data;
    mutated[4] = 77;
    const uint32_t crc =
        MaskCrc32c(Crc32c(mutated.data(), kSnapshotHeaderSize - 4));
    for (int i = 0; i < 4; ++i) {
      mutated[kSnapshotHeaderSize - 4 + i] =
          static_cast<char>((crc >> (8 * i)) & 0xFF);
    }
    ASSERT_TRUE(fs::WriteFileAtomic(path, mutated).ok());
  }

  auto db = MakeEmptyDb();
  ASSERT_TRUE(db->Open(dir_, ReopenOptions()).ok());
  const storage::RecoveryInfo* info = db->recovery_info();
  EXPECT_TRUE(info->degraded);
  EXPECT_TRUE(info->corruption_detected);
  EXPECT_TRUE(info->created);  // nothing usable: bootstrapped fresh
  EXPECT_EQ(db->store().object_count(), 0u);
}

TEST_F(RecoveryTest, VersionSkewedWalHeaderDiscardsTheLog) {
  std::string baseline_sig;
  {
    auto db = MakePopulatedDb();
    ASSERT_TRUE(db->Open(dir_, CrashOptions()).ok());
    baseline_sig = StateSignature(db->store());
    for (const Op& op : BuildOpScript(kScriptSeed + 6, kScriptLen)) {
      ASSERT_TRUE(op(db.get()).ok());
    }
  }
  const std::string wal = NewestWalPath();
  auto data = fs::ReadFile(wal);
  ASSERT_TRUE(data.ok());
  std::string mutated = *data;
  mutated[4] = 55;  // WAL version (u32 LE at offset 4)
  const uint32_t crc = MaskCrc32c(Crc32c(mutated.data(), kWalHeaderSize - 4));
  for (int i = 0; i < 4; ++i) {
    mutated[kWalHeaderSize - 4 + i] =
        static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  ASSERT_TRUE(fs::WriteFileAtomic(wal, mutated).ok());

  auto db = MakeEmptyDb();
  ASSERT_TRUE(db->Open(dir_, ReopenOptions()).ok());
  EXPECT_TRUE(db->recovery_info()->degraded);
  EXPECT_TRUE(db->recovery_info()->corruption_detected);
  // The log is untrusted wholesale: back to the baseline snapshot.
  EXPECT_EQ(StateSignature(db->store()), baseline_sig);
}

TEST_F(RecoveryTest, GarbageWalIsDiscarded) {
  std::string baseline_sig;
  {
    auto db = MakePopulatedDb();
    ASSERT_TRUE(db->Open(dir_, CrashOptions()).ok());
    baseline_sig = StateSignature(db->store());
    for (const Op& op : BuildOpScript(kScriptSeed + 7, kScriptLen)) {
      ASSERT_TRUE(op(db.get()).ok());
    }
  }
  std::string garbage(512, '\0');
  std::mt19937_64 rng(99);
  for (char& c : garbage) c = static_cast<char>(rng());
  ASSERT_TRUE(fs::WriteFileAtomic(NewestWalPath(), garbage).ok());

  auto db = MakeEmptyDb();
  ASSERT_TRUE(db->Open(dir_, ReopenOptions()).ok());
  EXPECT_TRUE(db->recovery_info()->degraded);
  EXPECT_EQ(StateSignature(db->store()), baseline_sig);
}

TEST_F(RecoveryTest, ResealedSnapshotWithAForgedOidFailsOpen) {
  std::string baseline_sig;
  {
    auto db = MakePopulatedDb();
    baseline_sig = StateSignature(db->store());
    ASSERT_TRUE(db->Open(dir_, ReopenOptions()).ok());  // snapshot-000001
    for (const Op& op : BuildOpScript(kScriptSeed + 7, kScriptLen)) {
      ASSERT_TRUE(op(db.get()).ok());
    }
    ASSERT_TRUE(db->CloseStorage().ok());  // snapshot-000002 + fresh WAL
  }
  // Rewrite the first object's OID in the newest snapshot to 2^62 and
  // re-seal the store-section and header checksums: the file stays
  // well-formed, so only the store's OID bound stands between the forged
  // create and a slot table sized by it.
  const std::string newest = dir_ + "/snapshot-000002.sqo";
  auto data = fs::ReadFile(newest);
  ASSERT_TRUE(data.ok());
  std::string mutated = *data;
  auto put = [&mutated](size_t at, uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      mutated[at + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
    }
  };
  uint64_t store_len = 0;
  for (int i = 0; i < 8; ++i) {
    store_len |= static_cast<uint64_t>(static_cast<uint8_t>(mutated[32 + i]))
                 << (8 * i);
  }
  const uint64_t forged = uint64_t{1} << 62;
  put(kSnapshotHeaderSize + 16, forged, 8);  // after next_oid, object count
  put(56, MaskCrc32c(Crc32c(mutated.data() + kSnapshotHeaderSize, store_len)),
      4);
  put(kSnapshotHeaderSize - 4,
      MaskCrc32c(Crc32c(mutated.data(), kSnapshotHeaderSize - 4)), 4);
  ASSERT_TRUE(fs::WriteFileAtomic(newest, mutated).ok());
  auto contents = ReadSnapshot(newest);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  ASSERT_EQ(contents->objects.front().oid.raw(), forged);

  auto db = MakeEmptyDb();
  ASSERT_TRUE(db->Open(dir_, ReopenOptions()).ok());
  const storage::RecoveryInfo* info = db->recovery_info();
  EXPECT_TRUE(info->degraded);
  EXPECT_TRUE(info->corruption_detected);
  EXPECT_NE(info->snapshot_path.find("snapshot-000001"), std::string::npos);
  EXPECT_EQ(StateSignature(db->store()), baseline_sig);
}

TEST_F(RecoveryTest, FailClosedModeReturnsCorruptionInsteadOfDegrading) {
  {
    auto db = MakePopulatedDb();
    ASSERT_TRUE(db->Open(dir_, ReopenOptions()).ok());
    ASSERT_TRUE(db->CloseStorage().ok());
  }
  const std::vector<std::string> paths = SnapshotPaths();
  ASSERT_FALSE(paths.empty());
  auto data = fs::ReadFile(paths.front());  // the newest: tried first
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(fs::TruncateFile(paths.front(), data->size() - 7).ok());

  auto db = MakeEmptyDb();
  OpenOptions closed = ReopenOptions();
  closed.fail_open = false;
  EXPECT_EQ(db->Open(dir_, closed).code(), sqo::StatusCode::kDataCorruption);
  EXPECT_FALSE(db->storage_attached());
}

}  // namespace
}  // namespace sqo::storage
