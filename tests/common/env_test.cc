#include "common/env.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/status.h"

namespace sqo::fs {
namespace {

/// Per-test scratch directory (the test name keeps `ctest -j` runs of
/// sibling tests from wiping each other's files).
std::string FreshDir() {
  std::string name = "sqo_env";
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info();
      info != nullptr) {
    name += std::string("_") + info->name();
  }
  // Parameterized test names contain '/': flatten the name, not the root.
  std::replace(name.begin(), name.end(), '/', '_');
  const std::string dir = ::testing::TempDir() + name;
  Env& env = *Env::Default();
  EXPECT_TRUE(env.EnsureDir(dir).ok());
  if (auto names = env.ListDir(dir); names.ok()) {
    for (const std::string& name : *names) {
      (void)env.RemoveFile(dir + "/" + name);
    }
  }
  return dir;
}

std::vector<std::string> TmpLeftovers(Env& env, const std::string& dir) {
  std::vector<std::string> tmps;
  if (auto names = env.ListDir(dir); names.ok()) {
    for (const std::string& name : *names) {
      if (name.find(".tmp.") != std::string::npos) tmps.push_back(name);
    }
  }
  return tmps;
}

class EnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::DeactivateAll();
    dir_ = FreshDir();
  }
  void TearDown() override { failpoint::DeactivateAll(); }

  std::string dir_;
  FaultInjectingEnv env_;  // default plan: no faults
};

TEST_F(EnvTest, PosixWritableFileRoundTrip) {
  Env& env = *Env::Default();
  const std::string path = dir_ + "/round_trip.bin";
  auto file = env.OpenTrunc(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("hello ").ok());
  ASSERT_TRUE((*file)->Append("world").ok());
  EXPECT_EQ((*file)->size(), 11u);
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Close().ok());

  auto read = env.ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "hello world");
  auto size = env.FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 11u);

  // Append mode resumes at the existing size.
  auto again = env.OpenAppend(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->size(), 11u);
  ASSERT_TRUE((*again)->Append("!").ok());
  ASSERT_TRUE((*again)->Close().ok());
  EXPECT_EQ(*env.ReadFile(path), "hello world!");
}

TEST_F(EnvTest, EnospcFailsTheCrossingAppendAndKeepsThePrefix) {
  FaultPlan plan;
  plan.enospc_after_bytes = 10;
  env_.set_plan(plan);

  const std::string path = dir_ + "/enospc.bin";
  auto file = env_.OpenTrunc(path);
  ASSERT_TRUE(file.ok());
  const Status failed = (*file)->Append("0123456789ABCDEF");  // 16 bytes
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.message().find("no space"), std::string::npos)
      << failed.ToString();
  // The disk filled mid-write: the prefix up to the threshold landed.
  EXPECT_EQ(env_.bytes_written(), 10u);
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_EQ(*env_.ReadFile(path), "0123456789");

  // The disk stays full: any later append fails without writing a byte.
  auto more = env_.OpenAppend(path);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE((*more)->Append("x").ok());
  EXPECT_EQ(env_.bytes_written(), 10u);
}

TEST_F(EnvTest, TornWriteCutsAtTheExactByte) {
  FaultPlan plan;
  plan.torn_write_at_byte = 6;
  env_.set_plan(plan);

  const std::string path = dir_ + "/torn.bin";
  auto file = env_.OpenTrunc(path);
  ASSERT_TRUE(file.ok());
  const Status failed = (*file)->Append("0123456789");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(env_.bytes_written(), 6u);
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_EQ(*env_.ReadFile(path), "012345");
}

TEST_F(EnvTest, FailedSyncIsSticky) {
  FaultPlan plan;
  plan.fail_sync_at = 1;  // first sync is fine, the disk dies on the second
  env_.set_plan(plan);

  const std::string path = dir_ + "/sync.bin";
  auto file = env_.OpenTrunc(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("a").ok());
  EXPECT_TRUE((*file)->Sync().ok());
  EXPECT_FALSE((*file)->Sync().ok());
  // A dead disk stays dead: every later sync fails too.
  EXPECT_FALSE((*file)->Sync().ok());
  EXPECT_EQ(env_.syncs(), 3u);
}

TEST_F(EnvTest, CloseAndRenameFailAtTheirIndexOnly) {
  FaultPlan plan;
  plan.fail_close_at = 0;
  plan.fail_rename_at = 0;
  env_.set_plan(plan);

  const std::string path = dir_ + "/close.bin";
  {
    auto file = env_.OpenTrunc(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("a").ok());
    EXPECT_FALSE((*file)->Close().ok());
  }
  {
    auto file = env_.OpenTrunc(path);
    ASSERT_TRUE(file.ok());
    EXPECT_TRUE((*file)->Close().ok());  // one-shot: index 1 succeeds
  }
  EXPECT_EQ(env_.closes(), 2u);

  EXPECT_FALSE(env_.RenameFile(path, dir_ + "/renamed.bin").ok());
  EXPECT_TRUE(env_.RenameFile(path, dir_ + "/renamed.bin").ok());
  EXPECT_EQ(env_.renames(), 2u);
}

TEST_F(EnvTest, SetPlanResetsTheCounters) {
  FaultPlan plan;
  plan.enospc_after_bytes = 4;
  env_.set_plan(plan);

  const std::string path = dir_ + "/reset.bin";
  auto file = env_.OpenTrunc(path);
  ASSERT_TRUE(file.ok());
  EXPECT_FALSE((*file)->Append("0123456789").ok());
  EXPECT_EQ(env_.bytes_written(), 4u);
  ASSERT_TRUE((*file)->Close().ok());

  env_.set_plan(FaultPlan{});  // clears faults and counters alike
  EXPECT_EQ(env_.bytes_written(), 0u);
  auto again = env_.OpenTrunc(path);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE((*again)->Append("0123456789").ok());
  EXPECT_TRUE((*again)->Close().ok());
  EXPECT_EQ(env_.bytes_written(), 10u);
}

TEST_F(EnvTest, WriteFileAtomicPublishesThroughAFaultFreeEnv) {
  const std::string path = dir_ + "/atomic.bin";
  ASSERT_TRUE(WriteFileAtomic(env_, path, "v1").ok());
  EXPECT_EQ(*env_.ReadFile(path), "v1");
  ASSERT_TRUE(WriteFileAtomic(env_, path, "v2").ok());
  EXPECT_EQ(*env_.ReadFile(path), "v2");
  EXPECT_TRUE(TmpLeftovers(env_, dir_).empty());
}

TEST_F(EnvTest, WriteFileAtomicFailedSyncKeepsTheOldFile) {
  const std::string path = dir_ + "/atomic.bin";
  ASSERT_TRUE(WriteFileAtomic(*Env::Default(), path, "old").ok());

  FaultPlan plan;
  plan.fail_sync_at = 0;  // the tmp file's fsync
  env_.set_plan(plan);
  EXPECT_FALSE(WriteFileAtomic(env_, path, "new").ok());
  EXPECT_EQ(*env_.ReadFile(path), "old");
  EXPECT_TRUE(TmpLeftovers(env_, dir_).empty());
}

TEST_F(EnvTest, WriteFileAtomicFailedCloseKeepsTheOldFile) {
  // The close-time error path: every write call succeeded, but the close
  // reports that buffered bytes may never have reached the file. Treating
  // it as success would publish a file whose contents were lost.
  const std::string path = dir_ + "/atomic.bin";
  ASSERT_TRUE(WriteFileAtomic(*Env::Default(), path, "old").ok());

  FaultPlan plan;
  plan.fail_close_at = 0;
  env_.set_plan(plan);
  const Status failed = WriteFileAtomic(env_, path, "new");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(*env_.ReadFile(path), "old");
  EXPECT_TRUE(TmpLeftovers(env_, dir_).empty());
}

TEST_F(EnvTest, WriteFileAtomicFailedRenameKeepsTheOldFile) {
  const std::string path = dir_ + "/atomic.bin";
  ASSERT_TRUE(WriteFileAtomic(*Env::Default(), path, "old").ok());

  FaultPlan plan;
  plan.fail_rename_at = 0;
  env_.set_plan(plan);
  EXPECT_FALSE(WriteFileAtomic(env_, path, "new").ok());
  EXPECT_EQ(*env_.ReadFile(path), "old");
  EXPECT_TRUE(TmpLeftovers(env_, dir_).empty());
}

TEST_F(EnvTest, WriteFileAtomicEnospcKeepsTheOldFile) {
  const std::string path = dir_ + "/atomic.bin";
  ASSERT_TRUE(WriteFileAtomic(*Env::Default(), path, "old").ok());

  FaultPlan plan;
  plan.enospc_after_bytes = 2;
  env_.set_plan(plan);
  EXPECT_FALSE(WriteFileAtomic(env_, path, "new-but-longer").ok());
  EXPECT_EQ(*env_.ReadFile(path), "old");
  EXPECT_TRUE(TmpLeftovers(env_, dir_).empty());
}

TEST_F(EnvTest, WriteFileAtomicRenameFailpointBlocksPublication) {
  const std::string path = dir_ + "/atomic.bin";
  ASSERT_TRUE(WriteFileAtomic(*Env::Default(), path, "old").ok());

  failpoint::Action action;
  action.status = InternalError("injected rename failure");
  action.max_trips = 1;
  failpoint::Activate("storage.rename", action);
  EXPECT_FALSE(WriteFileAtomic(*Env::Default(), path, "new").ok());
  EXPECT_EQ(*Env::Default()->ReadFile(path), "old");
  EXPECT_TRUE(WriteFileAtomic(*Env::Default(), path, "new").ok());
  EXPECT_EQ(*Env::Default()->ReadFile(path), "new");
}

}  // namespace
}  // namespace sqo::fs
