#include "server/server.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/fingerprint.h"
#include "engine/cost_model.h"
#include "obs/eval_stats.h"
#include "oql/parser.h"
#include "translate/query_translator.h"

namespace sqo::server {

namespace {

int64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

std::string Fingerprint(const std::string& text) {
  sqo::FingerprintBuilder builder;
  for (char c : text) builder.Append(static_cast<unsigned char>(c));
  return builder.fingerprint().ToString();
}

bool IsGovernanceStatus(const sqo::Status& status) {
  return status.code() == sqo::StatusCode::kResourceExhausted ||
         status.code() == sqo::StatusCode::kCancelled;
}

}  // namespace

Server::Server(const core::Pipeline* pipeline, engine::Database* primary,
               ServerConfig config)
    : pipeline_(pipeline), primary_(primary), config_(std::move(config)) {
  if (config_.workers == 0) config_.workers = ThreadPool::DefaultSize();
  if (config_.replicas == 0) config_.replicas = 1;
}

Server::~Server() { Stop(); }

sqo::Status Server::Start() {
  if (started_.load(std::memory_order_acquire)) {
    return sqo::InvalidArgumentError("Server::Start: already started");
  }
  if (pipeline_ == nullptr || primary_ == nullptr) {
    return sqo::InvalidArgumentError("Server::Start: null pipeline/database");
  }
  lint_ = analysis::AnalyzeServerConfig(
      config_.workers, std::thread::hardware_concurrency(),
      config_.max_queue_depth, config_.degrade_queue_depth,
      config_.shed_wait_ms, config_.default_deadline_ms);

  EpochStore::Options epoch_options;
  epoch_options.replicas = config_.replicas;
  epoch_options.replica_setup = config_.replica_setup;
  epochs_ = std::make_unique<EpochStore>(&pipeline_->schema(), epoch_options);
  SQO_RETURN_IF_ERROR(epochs_->Initialize(primary_));

  // The ack-before-publish tee: replace the storage layer's listener (or
  // install a fresh one on a storage-less database) so each logical batch
  // is durable *before* it enters the epoch journal readers can see.
  storage_ = primary_->storage();
  storage::StorageManager* storage = storage_;
  EpochStore* epochs = epochs_.get();
  primary_->store().SetMutationListener(
      [storage, epochs](const std::vector<engine::Mutation>& batch) {
        if (storage != nullptr) {
          SQO_RETURN_IF_ERROR(storage->AppendBatch(batch));
        }
        epochs->Append(batch);
        return sqo::Status::Ok();
      });

  pool_ = std::make_unique<ThreadPool>(config_.workers);
  stopping_.store(false, std::memory_order_release);
  started_.store(true, std::memory_order_release);
  obs::Gauge("server.workers", config_.workers);
  return sqo::Status::Ok();
}

void Server::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);

  // Shed everything still queued and cancel in-flight work; workers
  // observe the cancellation at their next governance check.
  {
    std::lock_guard<std::mutex> sessions_lock(sessions_mu_);
    for (const std::weak_ptr<Session>& handle : sessions_) {
      // A session with queued work is held by its running request.
      const std::shared_ptr<Session> session = handle.lock();
      if (session == nullptr) continue;
      std::deque<Session::Request> drained;
      {
        std::lock_guard<std::mutex> lock(session->mu_);
        drained.swap(session->queue_);
        if (session->in_flight_reply_ != nullptr) {
          session->in_flight_reply_->Cancel();
        }
      }
      for (Session::Request& request : drained) {
        queued_.fetch_sub(1, std::memory_order_relaxed);
        QueryResponse response;
        response.status = sqo::ResourceExhaustedError("server stopping");
        request.reply->Complete(std::move(response));
      }
    }
  }
  pool_.reset();  // joins workers; every in-flight request has completed

  if (storage_ != nullptr) {
    storage::StorageManager* storage = storage_;
    primary_->store().SetMutationListener(
        [storage](const std::vector<engine::Mutation>& batch) {
          return storage->AppendBatch(batch);
        });
  } else {
    primary_->store().SetMutationListener(nullptr);
  }
  started_.store(false, std::memory_order_release);
}

std::shared_ptr<Session> Server::OpenSession(std::string name) {
  std::shared_ptr<Session> session(
      new Session(this, std::move(name), config_.slow_threshold_ns));
  std::lock_guard<std::mutex> lock(sessions_mu_);
  std::erase_if(sessions_, [](const std::weak_ptr<Session>& handle) {
    return handle.expired();
  });
  sessions_.push_back(session);
  return session;
}

obs::QpsMeter::Snapshot Server::Latency() const { return latency_.Summarize(); }

obs::MetricsRegistry Server::MetricsSnapshot() const {
  std::lock_guard<std::mutex> lock(obs_mu_);
  obs::MetricsRegistry copy;
  copy.MergeFrom(metrics_);
  return copy;
}

void Server::CompleteShed(const ReplyRef& reply, sqo::Status status) {
  QueryResponse response;
  response.status = std::move(status);
  response.retry_after_ms = config_.retry_after_ms;
  reply->Complete(std::move(response));
}

ReplyRef Server::Enqueue(const std::shared_ptr<Session>& session,
                         Session::Request request, uint64_t deadline_ms) {
  request.reply = std::make_shared<PendingReply>();
  request.admitted = std::chrono::steady_clock::now();
  ReplyRef reply = request.reply;

  reply->context_.budgets() = config_.budgets;
  const uint64_t budget =
      deadline_ms != 0 ? deadline_ms : config_.default_deadline_ms;
  if (budget != 0) {
    reply->context_.SetDeadlineAfter(std::chrono::milliseconds(budget));
  }

  if (!started_.load(std::memory_order_acquire) ||
      stopping_.load(std::memory_order_acquire)) {
    QueryResponse response;
    response.status = sqo::InvalidArgumentError("server is not serving");
    reply->Complete(std::move(response));
    return reply;
  }

  const sqo::Status enqueue_fault = failpoint::Check("server.enqueue");
  if (!enqueue_fault.ok()) {
    std::lock_guard<std::mutex> lock(obs_mu_);
    metrics_.Add("server.enqueue_faults");
    CompleteShed(reply, enqueue_fault);
    return reply;
  }

  // Admission control: a hard bound on admitted-but-unfinished requests,
  // plus (optional) shedding by estimated wait = depth x observed p99.
  const size_t depth = queued_.load(std::memory_order_relaxed);
  bool shed = depth >= config_.max_queue_depth;
  std::string reason = "queue full";
  if (!shed && config_.shed_wait_ms > 0) {
    const obs::QpsMeter::Snapshot seen = latency_.Summarize();
    if (seen.count >= 32) {
      const double estimated_wait_ms =
          static_cast<double>(depth + 1) * static_cast<double>(seen.p99_ns) /
          1e6;
      if (estimated_wait_ms > static_cast<double>(config_.shed_wait_ms)) {
        shed = true;
        reason = "estimated wait exceeds shed threshold";
      }
    }
  }
  if (shed) {
    {
      std::lock_guard<std::mutex> lock(obs_mu_);
      metrics_.Add("server.shed");
    }
    obs::Count("server.shed");
    CompleteShed(reply, sqo::ResourceExhaustedError(
                            "server overloaded (" + reason + "); retry after " +
                            std::to_string(config_.retry_after_ms) + "ms"));
    return reply;
  }

  queued_.fetch_add(1, std::memory_order_relaxed);
  bool rejected = false;
  {
    // Push and kick under the session lock, re-checking stopping_ there:
    // Stop() flips stopping_ before draining each session under this same
    // lock, so no request can slip in after the drain and no Submit can
    // race the pool teardown.
    std::lock_guard<std::mutex> lock(session->mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      rejected = true;
    } else {
      session->queue_.push_back(std::move(request));
      if (!session->in_flight_) {
        session->in_flight_ = true;
        pool_->Submit([this, session] { RunOne(session); });
      }
    }
  }
  if (rejected) {
    queued_.fetch_sub(1, std::memory_order_relaxed);
    QueryResponse response;
    response.status = sqo::ResourceExhaustedError("server stopping");
    reply->Complete(std::move(response));
  }
  return reply;
}

void Server::RunOne(const std::shared_ptr<Session>& session) {
  Session::Request request;
  {
    std::lock_guard<std::mutex> lock(session->mu_);
    if (session->queue_.empty()) {  // drained by Stop
      session->in_flight_ = false;
      return;
    }
    request = std::move(session->queue_.front());
    session->queue_.pop_front();
    session->in_flight_reply_ = request.reply;
  }

  // Per-request metrics recorded on this worker land in a local registry
  // and merge into the session's under its lock.
  obs::MetricsRegistry local;
  QueryResponse response;
  {
    obs::ScopedMetrics scoped(&local);
    response = Execute(session.get(), request);
    const sqo::Status reply_fault = failpoint::Check("server.reply");
    if (!reply_fault.ok()) {
      // The reply channel failed after the work ran: the client sees the
      // fault (and must treat the request as unacknowledged), not rows.
      obs::Count("server.reply_faults");
      response = QueryResponse();
      response.status = reply_fault;
    }
  }

  const int64_t duration_ns = ElapsedNs(request.admitted);
  obs::QueryEvent event;
  event.query = request.kind == Session::Request::Kind::kQuery
                    ? request.oql
                    : "<mutation>";
  event.fingerprint = Fingerprint(event.query);
  event.duration_ns = duration_ns;
  event.status = response.status.ok() ? "ok" : response.status.ToString();
  event.degraded = response.degraded;
  event.cancelled = IsGovernanceStatus(response.status);
  event.contradiction = response.contradiction;
  event.chosen_alternative = response.chosen_alternative;
  event.n_alternatives = response.n_alternatives;
  {
    std::lock_guard<std::mutex> lock(session->obs_mu_);
    obs::ScopedMetrics session_scope(&session->metrics_);
    session->journal_.Record(std::move(event));
    session->metrics_.MergeFrom(local);
  }
  if (request.kind == Session::Request::Kind::kQuery) {
    session->qps_.Record(duration_ns);
    latency_.Record(duration_ns);
  }
  {
    std::lock_guard<std::mutex> lock(obs_mu_);
    metrics_.MergeFrom(local);
  }

  request.reply->Complete(std::move(response));

  bool chain = false;
  {
    std::lock_guard<std::mutex> lock(session->mu_);
    session->in_flight_reply_.reset();
    if (!session->queue_.empty() &&
        !stopping_.load(std::memory_order_acquire)) {
      chain = true;  // keep in_flight_: FIFO continues on the next worker
    } else {
      session->in_flight_ = false;
    }
  }
  queued_.fetch_sub(1, std::memory_order_relaxed);
  if (chain) {
    std::shared_ptr<Session> chained = session;
    pool_->Submit([this, chained] { RunOne(chained); });
  }
}

QueryResponse Server::Execute(Session* session, Session::Request& request) {
  (void)session;
  QueryResponse response;

  const sqo::Status dispatch_fault = failpoint::Check("server.dispatch");
  if (!dispatch_fault.ok()) {
    obs::Count("server.dispatch_faults");
    response.status = dispatch_fault;
    return response;
  }
  // Cooperative cancellation / deadline-expired-while-queued: reject
  // before doing any work. The latch makes later checks agree.
  const sqo::Status admitted = request.reply->context_.Check("server.dispatch");
  if (!admitted.ok()) {
    obs::Count("server.expired_in_queue");
    response.status = admitted;
    return response;
  }

  return request.kind == Session::Request::Kind::kQuery
             ? ExecuteQuery(request)
             : ExecuteMutation(request);
}

QueryResponse Server::ExecuteMutation(Session::Request& request) {
  QueryResponse response;
  ScopedContext governed(&request.reply->context_);
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    response.status = request.op(primary_);
    if (response.status.ok()) {
      // The listener tee already journaled the acked batches; expose them.
      response.status = epochs_->Publish();
    }
  }
  response.epoch = epochs_->published_epoch();
  return response;
}

QueryResponse Server::ExecuteQuery(Session::Request& request) {
  QueryResponse response;
  EpochStore::SnapshotRef snapshot = epochs_->Pin();
  if (snapshot == nullptr) {
    response.status = sqo::InternalError("no published epoch");
    return response;
  }
  response.epoch = snapshot->epoch();

  engine::EngineCostModel cost_model(&snapshot->db().store());
  ScopedContext governed(&request.reply->context_);

  // Fail-open degradation: above the overload threshold, skip Step-3
  // optimization entirely and serve the original translated query. Reads
  // degrade before they are ever refused.
  const bool overloaded =
      queued_.load(std::memory_order_relaxed) > config_.degrade_queue_depth;
  sqo::Result<core::PipelineResult> optimized =
      overloaded ? TranslateOnly(request.oql, cost_model)
                 : pipeline_->OptimizeText(request.oql, &cost_model);
  if (overloaded) obs::Count("server.degraded_overload");
  if (!optimized.ok()) {
    response.status = optimized.status();
    return response;
  }

  response.degraded = optimized->degraded;
  response.degradation_reason = optimized->degradation_reason;
  response.n_alternatives = optimized->alternatives.size();
  if (optimized->contradiction) {
    response.contradiction = true;  // proven empty; nothing to evaluate
    return response;
  }
  if (optimized->alternatives.empty()) {
    response.status = sqo::InternalError("pipeline produced no alternatives");
    return response;
  }
  response.chosen_alternative = optimized->best_index;
  const core::Alternative& best =
      optimized->alternatives[optimized->best_index];
  obs::EvalStats stats;
  sqo::Result<std::vector<std::vector<sqo::Value>>> rows =
      snapshot->db().Run(best.datalog, &stats);
  if (!rows.ok()) {
    response.status = rows.status();
    return response;
  }
  response.rows = std::move(*rows);
  return response;
}

sqo::Result<core::PipelineResult> Server::TranslateOnly(
    const std::string& oql, const core::CostModel& cost_model) const {
  SQO_ASSIGN_OR_RETURN(oql::SelectQuery parsed, oql::ParseOql(oql));
  SQO_ASSIGN_OR_RETURN(translate::TranslatedQuery translated,
                       translate::TranslateQuery(pipeline_->schema(), parsed));
  core::PipelineResult result;
  result.original_oql = parsed;
  result.original_datalog = translated.query;
  result.map = std::move(translated.map);
  result.degraded = true;
  result.degradation_reason = "overload: Step-3 optimization bypassed";
  core::Alternative original;
  original.datalog = result.original_datalog;
  original.oql_ok = true;
  original.oql = std::move(parsed);
  original.cost = cost_model.EstimateCost(original.datalog);
  result.alternatives.push_back(std::move(original));
  result.best_index = 0;
  return result;
}

}  // namespace sqo::server
