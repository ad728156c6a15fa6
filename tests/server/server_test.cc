#include "server/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/interner.h"
#include "common/status.h"
#include "common/value.h"
#include "workload/university.h"
#include "../storage/storage_test_util.h"

/// Server unit tests: the request lifecycle (admit -> per-session FIFO ->
/// dispatch -> execute -> reply), admission control and load shedding,
/// overload degradation, deadline/cancellation governance, the serving
/// failpoints and the SQO-A020 config lint.
namespace sqo::server {
namespace {

constexpr char kYoungQuery[] =
    "select x.name from x in Person where x.age < 30";

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::DeactivateAll();
    primary_ = storage_test::MakePopulatedDb();
  }
  void TearDown() override { failpoint::DeactivateAll(); }

  ServerConfig BaseConfig() {
    ServerConfig config;
    config.workers = 2;
    config.replicas = 2;
    config.replica_setup = workload::SetupUniversityRuntime;
    return config;
  }

  std::unique_ptr<Server> StartServer(ServerConfig config) {
    auto server = std::make_unique<Server>(&storage_test::UniversityPipeline(),
                                           primary_.get(), std::move(config));
    EXPECT_TRUE(server->Start().ok());
    return server;
  }

  /// A mutation op that blocks until `gate` opens — parks the worker so
  /// tests can pile requests up behind it deterministically.
  static std::function<sqo::Status(engine::Database*)> Blocker(
      std::shared_future<void> gate) {
    return [gate](engine::Database*) {
      gate.wait();
      return sqo::Status::Ok();
    };
  }

  static bool HasRow(const QueryResponse& response, const std::string& name) {
    for (const auto& row : response.rows) {
      for (const sqo::Value& v : row) {
        if (v == Value::String(name)) return true;
      }
    }
    return false;
  }

  std::unique_ptr<engine::Database> primary_;
};

TEST_F(ServerTest, ServesSnapshotQueriesAfterStart) {
  auto server = StartServer(BaseConfig());
  EXPECT_TRUE(server->started());
  EXPECT_TRUE(server->lint().empty()) << server->lint().ToString();

  auto session = server->OpenSession("reader");
  QueryResponse response = session->Query(kYoungQuery);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.epoch, 1u);
  EXPECT_FALSE(response.degraded);
  EXPECT_GE(response.n_alternatives, 1u);
}

// The interner's size is a point-in-time reading: per-request registries
// merge into the server's, and a counter would add one full table size per
// request.
TEST_F(ServerTest, InternerSizeIsTheTableSizeAfterManyQueries) {
  auto server = StartServer(BaseConfig());
  auto session = server->OpenSession("reader");
  for (int i = 0; i < 10; ++i) {
    QueryResponse response = session->Query(kYoungQuery);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  }
  const obs::MetricsRegistry metrics = server->MetricsSnapshot();
  EXPECT_EQ(metrics.CounterValue("interner.size"), 0u);
  const uint64_t size = metrics.GaugeValue("interner.size");
  EXPECT_GT(size, 0u);
  EXPECT_LE(size, sqo::InternerSize());
}

// A session lives while its client holds it: the server keeps no closed
// session (and its journal) alive, so session churn does not grow memory.
TEST_F(ServerTest, ADroppedSessionIsFreed) {
  auto server = StartServer(BaseConfig());
  std::shared_ptr<Session> session = server->OpenSession("short-lived");
  QueryResponse response = session->Query(kYoungQuery);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  const std::weak_ptr<Session> handle = session;
  session.reset();
  // The worker that answered may still be returning from the request.
  for (int i = 0; i < 200 && !handle.expired(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(handle.expired());
  // Later sessions and Stop still work.
  auto next = server->OpenSession("next");
  EXPECT_TRUE(next->Query(kYoungQuery).status.ok());
  server->Stop();
}

TEST_F(ServerTest, MutationsPublishAndBecomeVisibleToLaterQueries) {
  auto server = StartServer(BaseConfig());
  auto session = server->OpenSession("writer");

  QueryResponse before = session->Query(kYoungQuery);
  ASSERT_TRUE(before.status.ok());
  EXPECT_FALSE(HasRow(before, "srv_young"));

  ASSERT_TRUE(session
                  ->Mutate([](engine::Database* db) {
                    return db->store()
                        .CreateObject("Person",
                                      {{"name", Value::String("srv_young")},
                                       {"age", Value::Int(5)}})
                        .status();
                  })
                  .ok());

  QueryResponse after = session->Query(kYoungQuery);
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.epoch, 2u);
  EXPECT_TRUE(HasRow(after, "srv_young"));
  // The primary itself never served the read; the epoch replica did.
  EXPECT_EQ(server->epochs().published_epoch(), 2u);
}

TEST_F(ServerTest, RequestsOnOneSessionRunInSubmissionOrder) {
  ServerConfig config = BaseConfig();
  config.workers = 4;  // FIFO must hold even with spare workers
  auto server = StartServer(config);
  auto session = server->OpenSession("fifo");

  std::mutex mu;
  std::vector<int> order;
  std::vector<ReplyRef> replies;
  for (int i = 0; i < 12; ++i) {
    replies.push_back(session->SubmitMutation([&mu, &order, i](engine::Database*) {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
      return sqo::Status::Ok();
    }));
  }
  for (auto& reply : replies) EXPECT_TRUE(reply->Wait().status.ok());
  ASSERT_EQ(order.size(), 12u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(order[i], i);
}

TEST_F(ServerTest, ShedsWithRetryAfterAtTheQueueBound) {
  ServerConfig config = BaseConfig();
  config.workers = 1;
  config.max_queue_depth = 1;
  config.retry_after_ms = 7;
  auto server = StartServer(config);
  auto session = server->OpenSession("shed");

  std::promise<void> gate;
  ReplyRef blocked = session->SubmitMutation(Blocker(gate.get_future().share()));

  // The blocker occupies the whole admission budget: the next request is
  // shed immediately, with the retry hint, without ever queueing.
  ReplyRef shed = session->SubmitQuery(kYoungQuery);
  ASSERT_TRUE(shed->done());
  const QueryResponse& response = shed->Wait();
  EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted)
      << response.status.ToString();
  EXPECT_EQ(response.retry_after_ms, 7u);

  gate.set_value();
  EXPECT_TRUE(blocked->Wait().status.ok());
  EXPECT_GE(server->MetricsSnapshot().CounterValue("server.shed"), 1u);
}

TEST_F(ServerTest, DegradesQueriesAboveTheOverloadThreshold) {
  ServerConfig config = BaseConfig();
  config.degrade_queue_depth = 0;  // every in-flight query counts as overload
  auto server = StartServer(config);
  auto session = server->OpenSession("degraded");

  ASSERT_TRUE(session
                  ->Mutate([](engine::Database* db) {
                    return db->store()
                        .CreateObject("Person",
                                      {{"name", Value::String("srv_young")},
                                       {"age", Value::Int(5)}})
                        .status();
                  })
                  .ok());

  QueryResponse response = session->Query(kYoungQuery);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.degraded);
  EXPECT_NE(response.degradation_reason.find("overload"), std::string::npos);
  EXPECT_EQ(response.n_alternatives, 1u);  // the original query only
  // Fail-open: degraded still means correct rows, just unoptimized.
  EXPECT_TRUE(HasRow(response, "srv_young"));
  EXPECT_GE(server->MetricsSnapshot().CounterValue("server.degraded_overload"),
            1u);
}

TEST_F(ServerTest, DeadlineExpiredWhileQueuedIsRejectedWithoutWork) {
  ServerConfig config = BaseConfig();
  config.workers = 1;
  auto server = StartServer(config);
  auto session = server->OpenSession("deadline");

  std::promise<void> gate;
  ReplyRef blocked = session->SubmitMutation(Blocker(gate.get_future().share()));
  // 1ms of deadline, >=50ms stuck in the queue: the dispatch check must
  // reject it before any optimizer/evaluator work runs.
  ReplyRef late = session->SubmitQuery(kYoungQuery, /*deadline_ms=*/1);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.set_value();

  const QueryResponse& response = late->Wait();
  EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted)
      << response.status.ToString();
  EXPECT_TRUE(blocked->Wait().status.ok());
  EXPECT_GE(server->MetricsSnapshot().CounterValue("server.expired_in_queue"),
            1u);

  // The rejection is journaled as a cancelled event on the session.
  bool saw_cancelled = false;
  for (const obs::QueryEvent& event : session->JournalSnapshot()) {
    saw_cancelled |= event.cancelled;
  }
  EXPECT_TRUE(saw_cancelled);
}

TEST_F(ServerTest, CancelAllCancelsQueuedRequestsInFifoOrder) {
  ServerConfig config = BaseConfig();
  config.workers = 1;
  auto server = StartServer(config);
  auto session = server->OpenSession("cancel");

  std::promise<void> running;
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  ReplyRef blocked = session->SubmitMutation([&running, opened](engine::Database*) {
    running.set_value();
    opened.wait();
    return sqo::Status::Ok();
  });
  // Only cancel once the blocker is in flight (past its dispatch check):
  // CancelAll on a still-queued request cancels it too, by design.
  running.get_future().wait();
  ReplyRef q1 = session->SubmitQuery(kYoungQuery);
  ReplyRef q2 = session->SubmitQuery(kYoungQuery);

  session->CancelAll();
  gate.set_value();

  EXPECT_EQ(q1->Wait().status.code(), StatusCode::kCancelled)
      << q1->Wait().status.ToString();
  EXPECT_EQ(q2->Wait().status.code(), StatusCode::kCancelled);
  // The blocker ignores its cancellation flag and completes normally —
  // cancellation is cooperative, never preemptive.
  EXPECT_TRUE(blocked->Wait().status.ok());
}

TEST_F(ServerTest, EnqueueFailpointShedsAtAdmission) {
  auto server = StartServer(BaseConfig());
  auto session = server->OpenSession("fp-enqueue");

  failpoint::Activate("server.enqueue", failpoint::Action{});
  ReplyRef reply = session->SubmitQuery(kYoungQuery);
  ASSERT_TRUE(reply->done());
  EXPECT_FALSE(reply->Wait().status.ok());
  EXPECT_GT(reply->Wait().retry_after_ms, 0u);
  failpoint::Deactivate("server.enqueue");

  EXPECT_TRUE(session->Query(kYoungQuery).status.ok());
  EXPECT_GE(server->MetricsSnapshot().CounterValue("server.enqueue_faults"),
            1u);
}

TEST_F(ServerTest, DispatchFailpointFailsTheRequestOnTheWorker) {
  auto server = StartServer(BaseConfig());
  auto session = server->OpenSession("fp-dispatch");

  failpoint::Activate("server.dispatch",
                      failpoint::Action{.max_trips = 1});
  QueryResponse response = session->Query(kYoungQuery);
  EXPECT_FALSE(response.status.ok());
  EXPECT_TRUE(response.rows.empty());
  EXPECT_GE(server->MetricsSnapshot().CounterValue("server.dispatch_faults"),
            1u);
  EXPECT_TRUE(session->Query(kYoungQuery).status.ok());  // dormant after 1
}

TEST_F(ServerTest, ReplyFailpointSurfacesAsTheRequestStatus) {
  auto server = StartServer(BaseConfig());
  auto session = server->OpenSession("fp-reply");

  failpoint::Activate("server.reply", failpoint::Action{.max_trips = 1});
  QueryResponse response = session->Query(kYoungQuery);
  // The work ran, but the reply channel faulted: the client sees the
  // fault, no rows, and must treat the request as unacknowledged.
  EXPECT_FALSE(response.status.ok());
  EXPECT_TRUE(response.rows.empty());
  EXPECT_GE(server->MetricsSnapshot().CounterValue("server.reply_faults"), 1u);
  EXPECT_TRUE(session->Query(kYoungQuery).status.ok());
}

TEST_F(ServerTest, LintFlagsConfigThatDefeatsTheOverloadPosture) {
  ServerConfig config = BaseConfig();
  config.max_queue_depth = 100;
  config.degrade_queue_depth = 200;  // degradation can never engage
  config.shed_wait_ms = 10;
  config.default_deadline_ms = 100;  // sheds before the deadline it promises
  auto server = StartServer(std::move(config));

  ASSERT_GE(server->lint().diagnostics.size(), 2u)
      << server->lint().ToString();
  for (const analysis::Diagnostic& d : server->lint().diagnostics) {
    EXPECT_EQ(d.code, std::string(analysis::kCodeServerConfig));
  }
  // A sane config lints clean (covered by ServesSnapshotQueriesAfterStart).
}

TEST_F(ServerTest, StopShedsQueuedWorkAndRefusesNewRequests) {
  ServerConfig config = BaseConfig();
  config.workers = 1;
  auto server = StartServer(config);
  auto session = server->OpenSession("stop");

  std::promise<void> gate;
  ReplyRef blocked = session->SubmitMutation(Blocker(gate.get_future().share()));
  ReplyRef queued = session->SubmitQuery(kYoungQuery);

  std::thread stopper([&] { server->Stop(); });
  // Stop drains the queue immediately, then waits for the in-flight op.
  const QueryResponse& drained = queued->Wait();
  EXPECT_EQ(drained.status.code(), StatusCode::kResourceExhausted)
      << drained.status.ToString();
  gate.set_value();
  stopper.join();

  EXPECT_TRUE(blocked->Wait().status.ok());
  EXPECT_FALSE(server->started());
  ReplyRef refused = session->SubmitQuery(kYoungQuery);
  ASSERT_TRUE(refused->done());
  EXPECT_EQ(refused->Wait().status.code(), StatusCode::kInvalidArgument);
  server->Stop();  // idempotent
}

TEST_F(ServerTest, SessionsOwnTheirObservability) {
  ServerConfig config = BaseConfig();
  config.slow_threshold_ns = 1;  // every query is journal-slow
  auto server = StartServer(config);
  auto a = server->OpenSession("obs-a");
  auto b = server->OpenSession("obs-b");

  ASSERT_TRUE(a->Query(kYoungQuery).status.ok());
  ASSERT_TRUE(a->Query(kYoungQuery).status.ok());
  ASSERT_TRUE(b->Query(kYoungQuery).status.ok());

  EXPECT_EQ(a->JournalSnapshot().size(), 2u);
  EXPECT_EQ(b->JournalSnapshot().size(), 1u);
  EXPECT_EQ(a->Latency().count, 2u);
  EXPECT_EQ(server->Latency().count, 3u);
  const obs::QueryEvent last = b->JournalSnapshot().back();
  EXPECT_EQ(last.query, kYoungQuery);
  EXPECT_FALSE(last.fingerprint.empty());
  EXPECT_TRUE(last.slow);
}

TEST_F(ServerTest, ConcurrentSessionsServeWhileAWriterPublishes) {
  // Sanity end-to-end: readers on their own sessions never fail while a
  // writer session streams mutations and publishes epochs.
  auto server = StartServer(BaseConfig());
  auto writer = server->OpenSession("writer");

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      auto session = server->OpenSession("reader-" + std::to_string(r));
      while (!stop.load()) {
        QueryResponse response = session->Query(kYoungQuery);
        if (!response.status.ok()) failures.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(writer
                    ->Mutate([i](engine::Database* db) {
                      return db->store()
                          .CreateObject(
                              "Person",
                              {{"name",
                                Value::String("w" + std::to_string(i))},
                               {"age", Value::Int(20 + i)}})
                          .status();
                    })
                    .ok());
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server->epochs().published_epoch(), 2u);
}

}  // namespace
}  // namespace sqo::server
