#include "server/epoch.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"
#include "obs/metrics.h"

namespace sqo::server {

EpochStore::EpochStore(const translate::TranslatedSchema* schema,
                       Options options)
    : schema_(schema), options_(std::move(options)) {
  if (options_.replicas == 0) options_.replicas = 1;
}

sqo::Status EpochStore::Initialize(const engine::Database* primary) {
  std::lock_guard<std::mutex> lock(mu_);
  if (primary == nullptr) {
    return sqo::InvalidArgumentError("EpochStore::Initialize: null primary");
  }
  primary_ = primary;
  replicas_.clear();
  replicas_.resize(options_.replicas);
  for (Replica& replica : replicas_) {
    SQO_RETURN_IF_ERROR(BootstrapLocked(&replica));
  }
  epoch_ = 1;
  current_ = 0;
  replicas_[0].handle = std::make_shared<Snapshot>();
  replicas_[0].handle->db_ = replicas_[0].db.get();
  replicas_[0].handle->epoch_ = epoch_;
  return sqo::Status::Ok();
}

sqo::Status EpochStore::BootstrapLocked(Replica* replica) {
  replica->db = std::make_unique<engine::Database>(schema_);
  if (options_.replica_setup) {
    SQO_RETURN_IF_ERROR(options_.replica_setup(replica->db.get()));
  }
  // Encode the primary's contents as one replayable batch: objects first
  // (declared indexes are maintained by replay), then every stored pair —
  // including ASR-derived pairs, inserted verbatim since no ASR state is
  // registered yet, so maintenance cannot double-derive them.
  std::vector<engine::Mutation> batch;
  const engine::ObjectStore& src = primary_->store();
  batch.reserve(src.object_count());
  src.ForEachObject([&batch](sqo::Oid oid, const std::string& relation,
                             engine::ObjectStore::RowView row) {
    engine::Mutation m;
    m.kind = engine::Mutation::Kind::kCreate;
    m.oid = oid;
    m.relation = relation;
    m.row.assign(row.begin(), row.end());
    batch.push_back(std::move(m));
  });
  for (const std::string& rel : src.RelationNames()) {
    for (const auto& [pair_src, pair_dst] : src.Pairs(rel)) {
      engine::Mutation m;
      m.kind = engine::Mutation::Kind::kInsertPair;
      m.relation = rel;
      m.src = pair_src;
      m.dst = pair_dst;
      batch.push_back(std::move(m));
    }
  }
  engine::ObjectStore& dst = replica->db->store();
  SQO_RETURN_IF_ERROR(dst.ApplyMutations(batch));
  SQO_RETURN_IF_ERROR(dst.RestoreNextOid(src.next_oid()));
  // Register ASR maintenance state last, so future journal replay extends
  // materializations incrementally exactly as the primary does.
  for (engine::ObjectStore::AsrState state : src.AsrStates()) {
    dst.RestoreAsrState(std::move(state));
  }
  dst.RefreshStaleAsrs();
  replica->applied = journal_base_ + journal_.size();
  replica->handle.reset();
  return sqo::Status::Ok();
}

void EpochStore::Append(const std::vector<engine::Mutation>& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  journal_.push_back(batch);
  ++appended_;
}

sqo::Status EpochStore::CatchUpLocked(Replica* replica) {
  const uint64_t tip = journal_base_ + journal_.size();
  while (replica->applied < tip) {
    const auto& batch = journal_[replica->applied - journal_base_];
    const sqo::Status applied = replica->db->store().ApplyMutations(batch);
    if (!applied.ok()) {
      // A replica that cannot replay a batch the primary applied is
      // corrupt; rebuild it wholesale from the primary (which reflects
      // every journaled batch already).
      obs::Count("server.epoch_rebootstraps");
      return BootstrapLocked(replica);
    }
    ++replica->applied;
  }
  return sqo::Status::Ok();
}

sqo::Status EpochStore::Publish() {
  std::lock_guard<std::mutex> lock(mu_);
  if (current_ == SIZE_MAX) {
    return sqo::InternalError("EpochStore::Publish before Initialize");
  }
  const uint64_t tip = journal_base_ + journal_.size();
  if (replicas_[current_].applied == tip) {
    TruncateJournalLocked();
    return sqo::Status::Ok();  // nothing new to expose
  }
  const sqo::Status faulted = failpoint::Check("server.epoch_publish");
  if (!faulted.ok()) {
    ++skips_;
    obs::Count("server.epoch_skips");
    return sqo::Status::Ok();  // readers keep the previous epoch
  }
  // A replica is reusable when it is not the published one and no reader
  // pin is outstanding: pins are copies of `handle` handed out under mu_,
  // so use_count() == 1 here cannot race a new pin.
  size_t victim = SIZE_MAX;
  for (size_t i = 0; i < replicas_.size(); ++i) {
    if (i == current_) continue;
    if (replicas_[i].handle == nullptr ||
        replicas_[i].handle.use_count() == 1) {
      victim = i;
      break;
    }
  }
  if (victim == SIZE_MAX && replicas_[current_].handle.use_count() == 1) {
    victim = current_;  // single-replica pool, no pins: update in place
  }
  if (victim == SIZE_MAX) {
    ++skips_;
    obs::Count("server.epoch_skips");
    obs::Gauge("server.epoch_retained_batches", journal_.size());
    return sqo::Status::Ok();  // every replica pinned: bounded staleness
  }
  Replica& next = replicas_[victim];
  next.handle.reset();
  SQO_RETURN_IF_ERROR(CatchUpLocked(&next));
  // Readers must never trip the in-place lazy ASR rebuild concurrently;
  // heal stale materializations before any reader can pin this replica.
  next.db->store().RefreshStaleAsrs();
  ++epoch_;
  next.handle = std::make_shared<Snapshot>();
  next.handle->db_ = next.db.get();
  next.handle->epoch_ = epoch_;
  current_ = victim;
  obs::Count("server.epoch_publishes");
  TruncateJournalLocked();
  return sqo::Status::Ok();
}

void EpochStore::TruncateJournalLocked() {
  uint64_t min_applied = journal_base_ + journal_.size();
  for (const Replica& replica : replicas_) {
    min_applied = std::min(min_applied, replica.applied);
  }
  while (journal_base_ < min_applied && !journal_.empty()) {
    journal_.pop_front();
    ++journal_base_;
  }
}

EpochStore::SnapshotRef EpochStore::Pin() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (current_ == SIZE_MAX) return nullptr;
  return replicas_[current_].handle;
}

uint64_t EpochStore::published_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

uint64_t EpochStore::appended_batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_;
}

uint64_t EpochStore::retained_batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return journal_.size();
}

uint64_t EpochStore::publish_skips() const {
  std::lock_guard<std::mutex> lock(mu_);
  return skips_;
}

}  // namespace sqo::server
