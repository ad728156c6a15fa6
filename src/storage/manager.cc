#include "storage/manager.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "common/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/format.h"
#include "storage/snapshot.h"

namespace sqo::storage {
namespace {

constexpr std::string_view kSnapshotPrefix = "snapshot-";
constexpr std::string_view kSnapshotSuffix = ".sqo";

/// snapshot-NNNNNN.sqo → NNNNNN; nullopt for anything else.
std::optional<uint64_t> ParseSnapshotSeq(std::string_view name) {
  if (name.size() <= kSnapshotPrefix.size() + kSnapshotSuffix.size() ||
      name.substr(0, kSnapshotPrefix.size()) != kSnapshotPrefix ||
      name.substr(name.size() - kSnapshotSuffix.size()) != kSnapshotSuffix) {
    return std::nullopt;
  }
  const std::string_view digits = name.substr(
      kSnapshotPrefix.size(),
      name.size() - kSnapshotPrefix.size() - kSnapshotSuffix.size());
  uint64_t seq = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    seq = seq * 10 + static_cast<uint64_t>(c - '0');
  }
  return seq;
}

}  // namespace

sqo::Result<std::unique_ptr<StorageManager>> StorageManager::Open(
    const std::string& dir, engine::ObjectStore* store,
    const OpenOptions& options) {
  obs::Span span("storage.open");
  std::unique_ptr<StorageManager> manager(
      new StorageManager(dir, store, options));
  sqo::Status status = manager->Recover();
  if (!status.ok()) {
    // Never leave a half-attached listener behind a failed open.
    store->SetMutationListener(nullptr);
    return status;
  }
  return manager;
}

StorageManager::~StorageManager() { Close(); }

std::string StorageManager::SnapshotPath(uint64_t seq) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06llu",
                static_cast<unsigned long long>(seq));
  return dir_ + "/" + std::string(kSnapshotPrefix) + buf +
         std::string(kSnapshotSuffix);
}

std::string StorageManager::SegmentPath(uint64_t seq) const {
  return dir_ + "/" + WalSegmentFileName(seq);
}

std::string StorageManager::CatalogJson() const {
  return options_.compiled != nullptr ? SerializeCatalog(*options_.compiled)
                                      : std::string();
}

void StorageManager::Degrade(std::string reason, bool corruption) {
  info_.degraded = true;
  if (corruption) {
    info_.corruption_detected = true;
    obs::Count("storage.corruption_detected");
  }
  if (info_.degradation_reason.empty()) {
    info_.degradation_reason = std::move(reason);
  } else {
    info_.degradation_reason += "; " + reason;
  }
}

uint64_t StorageManager::last_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_lsn_;
}

StorageManager::WalStats StorageManager::wal_stats() const {
  WalStats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.current_seq = wal_seq_;
    stats.rotations = wal_rotations_;
  }
  if (sqo::Result<std::vector<WalSegmentFile>> segments =
          ListWalSegments(*env_, dir_);
      segments.ok()) {
    stats.segments = segments->size();
    for (const WalSegmentFile& segment : *segments) {
      if (sqo::Result<uint64_t> size = env_->FileSize(segment.path); size.ok()) {
        stats.bytes += *size;
      }
    }
  }
  return stats;
}

GroupCommitter::Stats StorageManager::group_commit_stats() const {
  return committer_ != nullptr ? committer_->stats() : GroupCommitter::Stats{};
}

void StorageManager::LintOpenOptions() {
  // The deadline budget is whatever the calling session has left right now;
  // that is the bound a group-commit wait must fit under.
  int64_t deadline_budget_ms = 0;
  if (ExecutionContext* ctx = CurrentContext();
      ctx != nullptr && ctx->has_deadline()) {
    deadline_budget_ms = std::max<int64_t>(
        1, std::chrono::duration_cast<std::chrono::milliseconds>(
               ctx->deadline() - std::chrono::steady_clock::now())
               .count());
  }
  info_.lint.Append(analysis::AnalyzeStorageOptions(
      options_.sync_each_append,
      static_cast<int64_t>(options_.group_commit_flush_interval.count()),
      deadline_budget_ms, options_.keep_snapshots));
}

sqo::Status StorageManager::Recover() {
  obs::Span span("storage.recovery");
  SQO_RETURN_IF_ERROR(env_->EnsureDir(dir_));
  const sqo::Fingerprint128 live = SchemaFingerprint(store_->schema());
  uint64_t max_seq = 0;
  SQO_RETURN_IF_ERROR(LoadSnapshots(live, &max_seq));
  next_snapshot_seq_ = max_seq + 1;
  SQO_RETURN_IF_ERROR(RecoverWal(live));
  assigned_lsn_ = last_lsn_;
  LintOpenOptions();
  if (options_.group_commit) {
    GroupCommitter::Options committer_options;
    committer_options.max_batch_ops = std::max<size_t>(
        1, options_.group_commit_max_batch);
    committer_options.flush_interval = options_.group_commit_flush_interval;
    committer_ = std::make_unique<GroupCommitter>(
        committer_options, [this](const std::vector<std::string>& frames) {
          return WriteBatch(frames);
        });
  }
  store_->SetMutationListener(
      [this](const std::vector<engine::Mutation>& batch) {
        return AppendBatch(batch);
      });
  if (info_.created) {
    // First open (or total loss): the in-memory contents are the baseline.
    // Persist them immediately so "opened OK" implies "durable".
    SQO_RETURN_IF_ERROR(Checkpoint());
  }
  obs::Gauge("storage.healthy", healthy() ? 1 : 0);
  obs::Gauge("wal.segments", wal_stats().segments);
  return sqo::Status::Ok();
}

sqo::Status StorageManager::LoadSnapshots(const sqo::Fingerprint128& live_hash,
                                          uint64_t* max_seq) {
  SQO_ASSIGN_OR_RETURN(std::vector<std::string> names, env_->ListDir(dir_));
  std::vector<std::pair<uint64_t, std::string>> candidates;
  for (const std::string& name : names) {
    if (std::optional<uint64_t> seq = ParseSnapshotSeq(name)) {
      candidates.emplace_back(*seq, name);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  *max_seq = candidates.empty() ? 0 : candidates.front().first;

  bool loaded = false;
  for (size_t i = 0; i < candidates.size() && !loaded; ++i) {
    const std::string& name = candidates[i].second;
    const std::string path = dir_ + "/" + name;
    sqo::Result<SnapshotContents> contents = ReadSnapshot(path);
    if (!contents.ok()) {
      if (!options_.fail_open) return contents.status();
      Degrade("snapshot " + name + " unusable: " + contents.status().message(),
              /*corruption=*/true);
      continue;
    }
    if (contents->schema_hash != live_hash) {
      // Version skew, not bit rot: the file is intact but describes a
      // different schema. Refuse it (fail-closed) or skip it (fail-open).
      if (!options_.fail_open) {
        return sqo::DataCorruptionError(
            "snapshot " + name + " was written for schema " +
            contents->schema_hash.ToString() + " but the live schema is " +
            live_hash.ToString());
      }
      Degrade("snapshot " + name + " skipped: schema mismatch (" +
                  contents->schema_hash.ToString() + " vs live " +
                  live_hash.ToString() + ")",
              /*corruption=*/false);
      continue;
    }
    store_->Clear();
    sqo::Status status = store_->ApplyMutations(contents->objects);
    if (status.ok()) status = store_->ApplyMutations(contents->pairs);
    if (status.ok()) status = store_->RestoreNextOid(contents->next_oid);
    if (!status.ok()) {
      store_->Clear();
      if (!options_.fail_open) return status;
      Degrade("snapshot " + name + " failed to apply: " + status.message(),
              /*corruption=*/true);
      continue;
    }
    // Reinstall the persisted adaptive access structures before WAL
    // replay, so replayed mutations delta-maintain them instead of the
    // first post-recovery query rebuilding from scratch.
    for (auto& dump : contents->indexes) {
      store_->RestoreSecondaryIndex(std::move(dump));
    }
    for (auto& asr : contents->asrs) {
      store_->RestoreAsrState(std::move(asr));
    }
    info_.snapshot_path = path;
    info_.snapshot_lsn = contents->last_lsn;
    last_lsn_ = contents->last_lsn;
    if (!contents->catalog_json.empty()) {
      sqo::Result<CatalogInfo> catalog =
          ParseCatalogInfo(contents->catalog_json);
      if (catalog.ok()) {
        info_.catalog_loaded = true;
        info_.catalog = std::move(catalog).value();
        if (options_.compiled != nullptr) {
          info_.lint = analysis::AnalyzeCatalogFreshness(
              info_.catalog.schema_hash.ToString(), live_hash.ToString(),
              info_.catalog.total_residues,
              options_.compiled->total_residues());
        }
      } else {
        // The section passed its CRC but the document is malformed. The
        // store itself recovered fine; flag the catalog and move on.
        Degrade("stored catalog unreadable: " + catalog.status().message(),
                /*corruption=*/true);
      }
    }
    loaded = true;
  }
  if (loaded) {
    obs::Count("storage.recovery.snapshot_loaded");
  } else {
    // Nothing usable on disk: bootstrap from the store's current contents.
    info_.created = true;
    last_lsn_ = 0;
    obs::Count("storage.recovery.fresh");
  }
  return sqo::Status::Ok();
}

sqo::Status StorageManager::RecoverWal(const sqo::Fingerprint128& live_hash) {
  sqo::Result<WalChainResult> chain = ReadWalChain(*env_, dir_);
  if (!chain.ok()) {
    if (chain.status().code() != sqo::StatusCode::kNotFound) {
      // The first segment's header is untrusted — the whole chain is
      // discarded, same contract as a bad header on a single-file log.
      if (!options_.fail_open) return chain.status();
      Degrade("WAL discarded: " + chain.status().message(),
              /*corruption=*/true);
      if (sqo::Result<std::vector<WalSegmentFile>> files =
              ListWalSegments(*env_, dir_);
          files.ok()) {
        for (const WalSegmentFile& file : *files) {
          (void)env_->RemoveFile(file.path);
        }
      }
    }
    wal_seq_ = 0;
    return RotateLocked();
  }

  WalChainResult& wal = *chain;
  wal_seq_ = wal.max_seq;

  // Cross-check every trusted segment against the live SchemaFingerprint:
  // a segment written for another schema would replay mutations that mean
  // something different under the current catalog (the residue-soundness
  // hazard the catalog artifact exists to prevent).
  size_t trusted = wal.segments.size();
  for (size_t i = 0; i < wal.segments.size(); ++i) {
    if (wal.segments[i].read.header.schema_hash != live_hash) {
      if (!options_.fail_open) {
        return sqo::DataCorruptionError(
            "WAL segment " + wal.segments[i].path + " was written for schema " +
            wal.segments[i].read.header.schema_hash.ToString() +
            " but the live schema is " + live_hash.ToString());
      }
      Degrade("WAL discarded from " + wal.segments[i].path +
                  ": schema mismatch",
              /*corruption=*/false);
      trusted = i;
      break;
    }
  }
  if (trusted > 0 && wal.segments.front().read.header.base_lsn > last_lsn_) {
    // The chain extends a snapshot newer than the one recovery could load
    // (we failed open to an older one): the intermediate history is gone,
    // so replaying would apply operations against the wrong base state.
    if (!options_.fail_open) {
      return sqo::DataCorruptionError(
          "WAL base LSN " +
          std::to_string(wal.segments.front().read.header.base_lsn) +
          " is beyond the recovered snapshot LSN " + std::to_string(last_lsn_));
    }
    Degrade("WAL discarded: base LSN " +
                std::to_string(wal.segments.front().read.header.base_lsn) +
                " beyond recovered snapshot LSN " + std::to_string(last_lsn_),
            /*corruption=*/false);
    trusted = 0;
  }

  // Replay the trusted chain; an apply failure cuts the log at that record.
  size_t stop_segment = trusted;   // first segment to delete entirely
  uint64_t stop_offset = 0;        // truncation point inside stop_segment-1
  bool apply_failed = false;
  for (size_t i = 0; i < trusted && !apply_failed; ++i) {
    const WalReadResult& read = wal.segments[i].read;
    for (const WalRecord& record : read.records) {
      if (record.lsn <= last_lsn_) continue;  // covered by the snapshot
      sqo::Status status = store_->ApplyMutations(record.batch);
      if (!status.ok()) {
        // Checksummed but semantically inconsistent (e.g. pairs a deleted
        // object): cut the log here, keep what applied.
        if (!options_.fail_open) return status;
        Degrade("WAL record LSN " + std::to_string(record.lsn) +
                    " failed to apply: " + status.message() + "; log truncated",
                /*corruption=*/true);
        apply_failed = true;
        stop_segment = i + 1;
        stop_offset = record.offset;
        break;
      }
      last_lsn_ = record.lsn;
      ++info_.replayed_records;
    }
  }
  if (!apply_failed && trusted > 0) {
    stop_offset = wal.segments[trusted - 1].read.valid_bytes;
  }
  if (wal.corrupt && trusted == wal.segments.size()) {
    if (!options_.fail_open) {
      return sqo::DataCorruptionError("WAL: " + wal.stop_reason);
    }
    Degrade("WAL truncated: " + wal.stop_reason, /*corruption=*/true);
  }
  info_.wal_segments = stop_segment;

  // Physical cleanup, newest first so a crash mid-cleanup cannot leave a
  // trusted-looking segment beyond a hole: delete rejected files and
  // segments past the stop point, truncate the stop segment's bad tail.
  for (auto it = wal.rejected_paths.rbegin(); it != wal.rejected_paths.rend();
       ++it) {
    (void)env_->RemoveFile(*it);
  }
  for (size_t i = wal.segments.size(); i > stop_segment; --i) {
    const WalReadResult& read = wal.segments[i - 1].read;
    info_.truncated_bytes += read.valid_bytes;  // whole segment discarded
    (void)env_->RemoveFile(wal.segments[i - 1].path);
  }
  if (stop_segment > 0) {
    const WalChainSegment& tail = wal.segments[stop_segment - 1];
    if (stop_offset < tail.read.file_bytes) {
      info_.truncated_bytes += tail.read.file_bytes - stop_offset;
      SQO_RETURN_IF_ERROR(env_->TruncateFile(tail.path, stop_offset));
    }
  }
  // A clean torn tail (stopped_early without corrupt) is the expected
  // artifact of a crash mid-append: truncated silently, no degradation.
  obs::Count("storage.recovery.wal_records_replayed", info_.replayed_records);

  // Always append into a fresh segment based at the recovered LSN — the
  // truncated tail segment stays read-only until a checkpoint prunes it.
  return RotateLocked();
}

sqo::Status StorageManager::RotateLocked() {
  const sqo::Fingerprint128 live = SchemaFingerprint(store_->schema());
  const uint64_t seq = wal_seq_ + 1;
  sqo::Result<WalWriter> writer =
      WalWriter::Create(*env_, SegmentPath(seq), WalHeader{live, last_lsn_});
  if (!writer.ok()) {
    return writer.status();
  }
  wal_ = std::make_unique<WalWriter>(std::move(writer).value());
  wal_seq_ = seq;
  return sqo::Status::Ok();
}

void StorageManager::MaybeRotateLocked() {
  if (wal_ == nullptr || wal_->size() < options_.wal_segment_bytes) return;
  const uint64_t before = wal_seq_;
  // Best-effort: a failed rotation (e.g. no space for the new header) keeps
  // the current oversized segment as the writer — nothing durable is lost,
  // and the next batch retries.
  if (RotateLocked().ok() && wal_seq_ != before) {
    ++wal_rotations_;
    obs::Count("storage.wal.rotations");
  }
}

sqo::Status StorageManager::WriteBatch(const std::vector<std::string>& frames) {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_ == nullptr) {
    return sqo::InternalError("storage manager has no open WAL segment");
  }
  if (!healthy_.load(std::memory_order_relaxed)) {
    return sqo::DataCorruptionError(
        "storage is unhealthy after an earlier append failure; mutation not "
        "durable (checkpoint to re-base the log)");
  }
  for (const std::string& frame : frames) {
    sqo::Status status = wal_->AppendFrame(frame);
    if (!status.ok()) {
      // Latch: once one record fails, later appends must not succeed or the
      // durable log would have a hole — acknowledged ops must be a prefix.
      healthy_.store(false, std::memory_order_relaxed);
      return status;
    }
  }
  if (options_.sync_each_append) {
    sqo::Status status = wal_->Sync();
    if (!status.ok()) {
      // The bytes may or may not be on disk; nobody in this batch gets
      // acknowledged, and the latch keeps the acknowledged set a durable
      // prefix.
      healthy_.store(false, std::memory_order_relaxed);
      return status;
    }
  }
  // Frames are enqueued in LSN order and batches are FIFO, so the batch
  // covers exactly the next `frames.size()` LSNs.
  last_lsn_ += frames.size();
  MaybeRotateLocked();
  return sqo::Status::Ok();
}

sqo::Status StorageManager::AppendBatch(
    const std::vector<engine::Mutation>& batch) {
  if (batch.empty()) return sqo::Status::Ok();
  std::shared_ptr<GroupCommitter::Ticket> ticket;
  {
    std::lock_guard<std::mutex> gate(checkpoint_mu_);
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || wal_ == nullptr) {
      return sqo::InternalError("storage manager is closed");
    }
    if (!healthy_.load(std::memory_order_relaxed)) {
      return sqo::DataCorruptionError(
          "storage is unhealthy after an earlier append failure; mutation not "
          "durable (checkpoint to re-base the log)");
    }
    const uint64_t lsn = assigned_lsn_ + 1;
    std::string frame = EncodeWalRecord(lsn, EncodeMutationBatch(batch));
    if (committer_ != nullptr) {
      // LSN assignment and enqueue happen under one lock so queue order is
      // LSN order; the wait happens outside every lock.
      ticket = committer_->Enqueue(std::move(frame));
      assigned_lsn_ = lsn;
    } else {
      sqo::Status status = wal_->AppendFrame(frame);
      if (status.ok() && options_.sync_each_append) status = wal_->Sync();
      if (!status.ok()) {
        healthy_.store(false, std::memory_order_relaxed);
        obs::Count("storage.wal.append_failed");
        obs::Gauge("storage.healthy", 0);
        return status;
      }
      assigned_lsn_ = lsn;
      last_lsn_ = lsn;
      obs::Count("storage.wal.records");
      MaybeRotateLocked();
      return sqo::Status::Ok();
    }
  }
  sqo::Status status = committer_->Wait(ticket);
  if (!status.ok()) {
    obs::Count("storage.wal.append_failed");
    obs::Gauge("storage.healthy", healthy() ? 1 : 0);
    return status;
  }
  obs::Count("storage.wal.records");
  return sqo::Status::Ok();
}

sqo::Status StorageManager::Checkpoint() {
  obs::Span span("storage.checkpoint");
  std::lock_guard<std::mutex> gate(checkpoint_mu_);
  if (committer_ != nullptr) {
    // Drain: every frame enqueued before the gate closed gets its batch
    // outcome (and its waiter is acknowledged) before we snapshot — so no
    // acknowledged record can sit only in a segment we are about to prune,
    // and the snapshot LSN covers everything the log acknowledged.
    committer_->Flush();
  }
  std::lock_guard<std::mutex> lock(mu_);
  return CheckpointLocked();
}

sqo::Status StorageManager::CheckpointLocked() {
  const sqo::Fingerprint128 live = SchemaFingerprint(store_->schema());
  // Memory is the truth: the snapshot contains every applied mutation,
  // including any that failed acknowledgment after the unhealthy latch, so
  // it is stamped with the highest *assigned* LSN.
  const uint64_t snapshot_lsn = assigned_lsn_;
  const uint64_t seq = next_snapshot_seq_;
  sqo::Status status = WriteSnapshot(*env_, SnapshotPath(seq), *store_, live,
                                     snapshot_lsn, CatalogJson());
  if (!status.ok()) {
    // The previous snapshot + segments remain authoritative; nothing lost.
    obs::Count("storage.checkpoint.failed");
    return status;
  }
  next_snapshot_seq_ = seq + 1;
  last_lsn_ = snapshot_lsn;
  const uint64_t covered_seq = wal_seq_;
  sqo::Status rotated = RotateLocked();
  if (!rotated.ok()) {
    // The new snapshot already covers every logged operation, but with no
    // working log further mutations cannot be acknowledged.
    healthy_.store(false, std::memory_order_relaxed);
    wal_.reset();
    obs::Count("storage.checkpoint.failed");
    obs::Gauge("storage.healthy", 0);
    return rotated;
  }
  healthy_.store(true, std::memory_order_relaxed);
  obs::Count("storage.checkpoint.count");

  // The snapshot covers every record in segments up to covered_seq: prune
  // them (best-effort, oldest first so a crash mid-prune leaves a
  // contiguous chain suffix).
  if (sqo::Result<std::vector<WalSegmentFile>> segments =
          ListWalSegments(*env_, dir_);
      segments.ok()) {
    for (const WalSegmentFile& segment : *segments) {
      if (segment.seq <= covered_seq) {
        (void)env_->RemoveFile(segment.path);
      }
    }
  }

  // Prune checkpoints beyond the newest keep_snapshots (best-effort).
  const size_t keep = std::max<size_t>(1, options_.keep_snapshots);
  if (sqo::Result<std::vector<std::string>> names = env_->ListDir(dir_);
      names.ok()) {
    std::vector<uint64_t> seqs;
    for (const std::string& name : *names) {
      if (std::optional<uint64_t> s = ParseSnapshotSeq(name)) {
        seqs.push_back(*s);
      }
    }
    std::sort(seqs.begin(), seqs.end(), std::greater<uint64_t>());
    for (size_t i = keep; i < seqs.size(); ++i) {
      const sqo::Status removed = env_->RemoveFile(SnapshotPath(seqs[i]));
      (void)removed;  // best-effort: a stale extra snapshot is harmless
    }
  }
  obs::Gauge("storage.healthy", 1);
  obs::Gauge("wal.segments", 1);
  return sqo::Status::Ok();
}

sqo::Status StorageManager::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return sqo::Status::Ok();
  }
  sqo::Status status = sqo::Status::Ok();
  if (options_.checkpoint_on_close && wal_ != nullptr) {
    // Memory is the truth: a final checkpoint repairs durability even if
    // the log went unhealthy mid-session.
    status = Checkpoint();
  }
  if (committer_ != nullptr) committer_->Stop();
  {
    std::lock_guard<std::mutex> gate(checkpoint_mu_);
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    wal_.reset();
  }
  store_->SetMutationListener(nullptr);
  return status;
}

}  // namespace sqo::storage
