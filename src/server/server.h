#ifndef SQO_SERVER_SERVER_H_
#define SQO_SERVER_SERVER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/database.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "server/epoch.h"
#include "server/session.h"
#include "sqo/pipeline.h"
#include "storage/manager.h"

namespace sqo::server {

/// Multi-client serving layer over one pipeline + one primary database:
/// snapshot-isolated reads (EpochStore), per-session FIFO execution on a
/// shared worker pool, admission control with load shedding, and
/// fail-open degradation under overload.
///
/// Request lifecycle: admit (failpoint `server.enqueue`; shed at the
/// queue bound or by p99 wait estimate) -> queue per session -> dispatch
/// on a pool worker (failpoint `server.dispatch`; requests whose deadline
/// expired while queued are rejected without work) -> execute (queries
/// pin an epoch; writes serialize on the primary, then publish after the
/// WAL ack) -> reply (failpoint `server.reply`; the reply always
/// completes, a reply fault surfaces as the request's status).
///
/// Overload posture, in order of pressure: degrade reads (skip Step-3
/// optimization above `degrade_queue_depth`), then shed new requests with
/// retry-after (at `max_queue_depth` or the shed-wait estimate), and only
/// then — never implicitly — refuse. Readers are never blocked by
/// writers: a publish that cannot find an unpinned replica skips rather
/// than waits.
///
/// Thread-safe after Start(). Start/Stop themselves must be externally
/// serialized with respect to each other.
class Server {
 public:
  /// `pipeline` and `primary` must outlive the server. `primary` may have
  /// storage attached (Database::Open): the server then tees the store's
  /// mutation listener so every acked batch reaches the WAL first and the
  /// epoch journal second, and restores the plain WAL listener on Stop.
  Server(const core::Pipeline* pipeline, engine::Database* primary,
         ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Lints the config (SQO-A020), bootstraps the epoch replicas from the
  /// primary, installs the listener tee and spins up the worker pool.
  /// The primary must be quiescent until Start returns.
  sqo::Status Start();

  /// Drains: sheds everything still queued (kResourceExhausted), cancels
  /// in-flight work cooperatively, joins the pool, restores the storage
  /// listener. Idempotent.
  void Stop();

  /// Opens a named session. It lives while the caller holds the handle or
  /// a request of it is queued or running; the server keeps no session
  /// alive by itself, so a dropped session's journal and metrics go with
  /// it.
  std::shared_ptr<Session> OpenSession(std::string name);

  /// Admitted-but-unfinished requests across all sessions.
  size_t queue_depth() const { return queued_.load(std::memory_order_relaxed); }

  bool started() const { return started_.load(std::memory_order_acquire); }

  /// SQO-A020 findings from the last Start().
  const analysis::AnalysisReport& lint() const { return lint_; }

  const EpochStore& epochs() const { return *epochs_; }
  const ServerConfig& config() const { return config_; }

  /// Server-wide latency distribution (all sessions, queries only).
  obs::QpsMeter::Snapshot Latency() const;

  /// Server-wide counters (shed/degraded/expired/faults) merged with
  /// every worker-recorded metric.
  obs::MetricsRegistry MetricsSnapshot() const;

 private:
  friend class Session;

  /// Admission control. Completes the reply immediately on shed/fault;
  /// otherwise queues on `session` and kicks its dispatch chain.
  ReplyRef Enqueue(const std::shared_ptr<Session>& session,
                   Session::Request request, uint64_t deadline_ms);

  /// Pops and serves one request of `session` on the calling pool worker,
  /// then chains the next if the session queue is non-empty.
  void RunOne(const std::shared_ptr<Session>& session);

  QueryResponse Execute(Session* session, Session::Request& request);
  QueryResponse ExecuteQuery(Session::Request& request);
  QueryResponse ExecuteMutation(Session::Request& request);

  /// Overload path: parse + translate only (Steps 1-2), original query as
  /// the sole alternative, degraded flag set.
  sqo::Result<core::PipelineResult> TranslateOnly(
      const std::string& oql, const core::CostModel& cost_model) const;

  void CompleteShed(const ReplyRef& reply, sqo::Status status);

  const core::Pipeline* pipeline_;
  engine::Database* primary_;
  storage::StorageManager* storage_ = nullptr;
  ServerConfig config_;
  analysis::AnalysisReport lint_;

  std::unique_ptr<EpochStore> epochs_;
  std::unique_ptr<ThreadPool> pool_;
  std::mutex write_mu_;  // serializes mutations on the primary

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<size_t> queued_{0};

  std::mutex sessions_mu_;
  std::vector<std::weak_ptr<Session>> sessions_;  // what Stop drains

  mutable std::mutex obs_mu_;
  obs::QpsMeter latency_;
  obs::MetricsRegistry metrics_;
};

}  // namespace sqo::server

#endif  // SQO_SERVER_SERVER_H_
