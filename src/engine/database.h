#ifndef SQO_ENGINE_DATABASE_H_
#define SQO_ENGINE_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/evaluator.h"
#include "engine/object_store.h"
#include "sqo/pipeline.h"

namespace sqo::storage {
class StorageManager;
struct OpenOptions;
struct RecoveryInfo;
}  // namespace sqo::storage

namespace sqo::engine {

/// Convenience facade bundling an ObjectStore with evaluation: the
/// "database" a user of the library populates and queries. Also creates
/// hash indexes for every declared ODL key (the physical structure §5.3's
/// optimization assumes).
class Database {
 public:
  /// `schema` must outlive the database.
  explicit Database(const translate::TranslatedSchema* schema)
      : store_(schema) {}

  ObjectStore& store() { return store_; }
  const ObjectStore& store() const { return store_; }
  const translate::TranslatedSchema& schema() const { return store_.schema(); }

  /// Builds a hash index on every (class, key attribute) declared in the
  /// ODL schema. Call once (before or after loading; indexes are
  /// maintained incrementally afterwards).
  sqo::Status CreateKeyIndexes();

  /// Plans and evaluates a DATALOG query. `stats` may be null.
  sqo::Result<std::vector<std::vector<sqo::Value>>> Run(
      const datalog::Query& query, obs::EvalStats* stats = nullptr,
      EvalOptions options = {}) const;

  /// Result of a profiled evaluation: the rows plus the EXPLAIN ANALYZE
  /// operator tree the evaluator recorded while producing them.
  struct ProfiledRun {
    std::vector<std::vector<sqo::Value>> rows;
    obs::EvalStats stats;
    obs::QueryProfile profile;
  };

  /// Plans and evaluates `query` with operator-level profiling on: each
  /// plan step gets a ProfileNode with rows in/out, inclusive/self time,
  /// the planner's estimate, and whether an index served it. On error the
  /// partial profile is discarded with the rows.
  sqo::Result<ProfiledRun> ProfileQuery(const datalog::Query& query,
                                        EvalOptions options = {}) const;

  /// Evaluates every alternative of a pipeline result, filling each
  /// `Alternative::eval_stats` / `evaluated` — so shells and benches can
  /// report evaluator counters per alternative, not just per run. An
  /// alternative whose evaluation fails keeps `evaluated == false`; the
  /// first such error (by alternative index) is returned (after profiling
  /// the rest). Skipped for contradictory results (nothing to evaluate).
  ///
  /// Alternatives are profiled in parallel on a fixed-size pool
  /// (`options.profile_threads`; the store is only read). Each task gets
  /// its own ExecutionContext seeded from the caller's deadline and
  /// budgets and its own metrics registry; registries merge into the
  /// caller's in alternative order, so totals are deterministic and
  /// identical to a serial run.
  sqo::Status ProfileAlternatives(core::PipelineResult* result,
                                  EvalOptions options = {}) const;

  // --- Durability (implemented in src/storage/database_storage.cc; link
  // sqo_storage to use; calling without it is an unresolved symbol).

  /// Attaches crash-safe persistence rooted at `dir`: recovers the store
  /// from the newest valid snapshot + WAL (see storage::StorageManager),
  /// then logs every further mutation. On a fresh directory the current
  /// in-memory contents become the persisted baseline.
  sqo::Status Open(const std::string& dir,
                   const storage::OpenOptions& options);
  sqo::Status Open(const std::string& dir);

  /// Writes a snapshot and resets the log. No-op error if not open.
  sqo::Status Checkpoint();

  /// Detaches persistence (final checkpoint per the open options).
  sqo::Status CloseStorage();

  bool storage_attached() const { return storage_ != nullptr; }

  /// What the last Open() recovered; nullptr when storage is not attached.
  const storage::RecoveryInfo* recovery_info() const;

  /// The attached manager (health, WAL/group-commit stats for `\status`);
  /// nullptr when storage is not attached.
  storage::StorageManager* storage() const { return storage_.get(); }

 private:
  ObjectStore store_;
  std::shared_ptr<storage::StorageManager> storage_;
};

}  // namespace sqo::engine

#endif  // SQO_ENGINE_DATABASE_H_
