#ifndef SQO_ENGINE_OBJECT_STORE_H_
#define SQO_ENGINE_OBJECT_STORE_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "sqo/asr.h"
#include "translate/schema_translator.h"

namespace sqo::engine {

/// One primitive state change of an ObjectStore, in replayable form. Every
/// public mutator decomposes into a sequence of these records; the store
/// hands the whole sequence of one logical operation to its
/// MutationListener as a single batch, and the storage layer's write-ahead
/// log frames each batch as one checksummed record — so a torn log tail
/// never exposes half of a Relate (pair + inverse) or DeleteObject (pair
/// erasures + removal).
struct Mutation {
  enum class Kind : uint8_t {
    kCreate = 1,      // oid, relation (exact type), row
    kUpdate = 2,      // oid, relation, pos, value
    kDelete = 3,      // oid
    kInsertPair = 4,  // relation, src, dst
    kErasePair = 5,   // relation, src, dst
    kClearRel = 6,    // relation (ASR re-materialization)
  };

  Kind kind = Kind::kCreate;
  sqo::Oid oid;
  std::string relation;
  std::vector<sqo::Value> row;  // kCreate
  size_t pos = 0;               // kUpdate
  sqo::Value value;             // kUpdate
  sqo::Oid src, dst;            // kInsertPair / kErasePair
};

/// An in-memory ODMG-style object store bound to a translated schema.
///
/// Storage model:
///   * every object/structure instance gets a fresh OID and one full row
///     aligned with its exact type's relation signature (row[0] is the OID);
///     rows live in a slot table indexed by OID, and OIDs are minted
///     densely, so a fetch is one array index;
///   * class extents are maintained for the exact class and every ancestor
///     (the paper's "object databases that maintain the extents of
///     classes"), so a Faculty object is enumerable via person, employee
///     and faculty. Each exact type carries a precomputed bitset of the
///     relations its instances belong to, so a membership test is one bit
///     test;
///   * extents, indexes and methods are tables indexed by the catalog's
///     dense `RelationId`; the string-keyed accessors resolve the name and
///     then index;
///   * relationships are stored as OID pairs with forward/backward
///     adjacency; declared inverses are maintained automatically and
///     declared cardinalities are enforced on insert;
///   * methods are registered C++ callbacks, invoked by OID;
///   * hash indexes can be built on any (class relation, attribute);
///   * access support relations are materialized from their path
///     definition and then behave like relationships.
class ObjectStore {
 public:
  using Row = std::vector<sqo::Value>;
  using MethodFn = std::function<sqo::Result<sqo::Value>(
      const ObjectStore&, sqo::Oid receiver,
      const std::vector<sqo::Value>& args)>;

  /// Called once per completed logical mutation with the primitive records
  /// it decomposed into (never empty). A non-OK return is propagated to the
  /// mutator's caller as *unacknowledged durability*: the in-memory change
  /// has already been applied, but the storage layer could not log it — the
  /// caller must treat the operation as not persisted (the crash-recovery
  /// tests reopen from disk and expect state as of the last OK batch).
  using MutationListener = std::function<sqo::Status(const std::vector<Mutation>&)>;

  /// A zero-copy view of a stored row (or a prefix of it). Valid until
  /// the next mutation of the store: readers that share a store hold an
  /// epoch pin, under which the store is immutable.
  using RowView = std::span<const sqo::Value>;

  /// How far past the allocated OID range — max(next_oid(), one past the
  /// highest OID the slot table holds) — an OID the store did not mint
  /// itself may lie: a replayed create or a restored allocator. Legitimate
  /// gaps come from deleted objects and from failed creates, which burn an
  /// OID. A larger gap fails with kDataCorruption before the slot table
  /// grows, so one forged OID costs at most this many slots (DESIGN.md §5,
  /// "Dense object plane").
  static constexpr uint64_t kMaxOidGap = uint64_t{1} << 22;

  /// `schema` must outlive the store. Relations the catalog gains after
  /// construction (ASRs) are served too; they own no objects.
  explicit ObjectStore(const translate::TranslatedSchema* schema);

  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  // ---- Population ----

  /// Creates an object of ODL class `class_name`. `attrs` maps attribute
  /// names (any case) to values; struct-valued attributes take the OID of
  /// a previously created structure instance. Missing attributes are null.
  sqo::Result<sqo::Oid> CreateObject(const std::string& class_name,
                                     const std::map<std::string, sqo::Value>& attrs);

  /// Creates a structure instance.
  sqo::Result<sqo::Oid> CreateStruct(const std::string& struct_name,
                                     const std::map<std::string, sqo::Value>& fields);

  /// Adds (src, dst) to a relationship (by ODL or relation name). Enforces
  /// endpoint class membership and declared cardinalities; maintains the
  /// declared inverse.
  sqo::Status Relate(const std::string& relationship, sqo::Oid src, sqo::Oid dst);

  /// Removes (src, dst) from a relationship, and the mirrored pair from
  /// its declared inverse. No-op if the pair is absent.
  sqo::Status Unrelate(const std::string& relationship, sqo::Oid src, sqo::Oid dst);

  /// Updates one attribute of an existing object/structure, maintaining
  /// any indexes. The attribute is addressed by name on the object's exact
  /// type.
  sqo::Status UpdateAttribute(sqo::Oid oid, const std::string& attribute,
                              sqo::Value value);

  /// Deletes an object: removes it from every extent and index, and drops
  /// every relationship pair (either endpoint) that references it.
  /// Structure instances referenced by the object's attributes are not
  /// cascaded (structures may be shared in this store).
  sqo::Status DeleteObject(sqo::Oid oid);

  /// Registers the implementation of a method (by ODL or relation name).
  sqo::Status RegisterMethod(const std::string& method, MethodFn fn);

  /// Builds (or rebuilds) a hash index on `relation`.`attribute`.
  /// Maintained incrementally by subsequent CreateObject calls.
  sqo::Status CreateIndex(const std::string& relation, const std::string& attribute);

  /// Materializes an access support relation from its path definition; the
  /// result is queryable like a relationship under `asr.name`. Call after
  /// loading data (re-call to refresh).
  sqo::Status Materialize(const core::AsrDefinition& asr);

  /// Rebuilds every stale materialized ASR in place from its path
  /// definition, so reads trust the materialization again (counter
  /// "asr.lazy_rebuilds" per ASR). Unlike Materialize this records no
  /// mutations — like the adaptive indexes, the rebuilt extent is derived
  /// state recovery re-derives on demand. The read accessors (Pairs /
  /// Neighbors / ReverseNeighbors) invoke the same rebuild lazily on the
  /// first access to a stale ASR; serving layers that share one store
  /// among concurrent readers should call this eagerly before publishing
  /// a snapshot, so the read path stays structurally immutable.
  void RefreshStaleAsrs();

  // ---- Reads ----
  //
  // Each relation-keyed read takes the catalog's RelationId; the
  // string-keyed overloads resolve the name and then index.

  /// OIDs of all members of a class/structure relation (subclass instances
  /// included), in insertion order. Empty for other or unknown relations.
  const std::vector<sqo::Oid>& Extent(datalog::RelationId relation) const;
  const std::vector<sqo::Oid>& Extent(const std::string& relation) const;

  /// True if `oid` is a member of class/structure relation `relation`.
  bool IsMember(datalog::RelationId relation, sqo::Oid oid) const {
    const Slot* slot = Find(oid);
    return slot != nullptr && Covers(slot->exact, relation);
  }
  bool IsMember(const std::string& relation, sqo::Oid oid) const;

  /// The row of `oid` viewed as `relation`: a zero-copy view of the prefix
  /// of its exact row that `relation`'s signature covers. Empty when the
  /// object is not a member of that relation (a member's view always holds
  /// at least its OID).
  RowView RowAs(datalog::RelationId relation, sqo::Oid oid) const {
    const Slot* slot = Find(oid);
    if (slot == nullptr || !Covers(slot->exact, relation)) return {};
    return RowView(slot->row.data(), schema_->catalog.ById(relation).arity());
  }
  RowView RowAs(const std::string& relation, sqo::Oid oid) const;

  /// Position `pos` of `oid`'s row viewed as `relation`.
  sqo::Result<sqo::Value> AttributeOf(const std::string& relation, sqo::Oid oid,
                                      size_t pos) const;

  /// All (src, dst) pairs of a relationship or materialized ASR.
  const std::vector<std::pair<sqo::Oid, sqo::Oid>>& Pairs(
      const std::string& relation) const;

  /// Pairs() without the lazy stale-ASR rebuild: dump/serialization paths
  /// (snapshots, signatures) must capture the store verbatim — including
  /// the staleness a later access would heal — not mutate derived state.
  const std::vector<std::pair<sqo::Oid, sqo::Oid>>& PairsRaw(
      const std::string& relation) const;

  /// Forward / backward adjacency.
  const std::vector<sqo::Oid>& Neighbors(const std::string& relation,
                                         sqo::Oid src) const;
  const std::vector<sqo::Oid>& ReverseNeighbors(const std::string& relation,
                                                sqo::Oid dst) const;

  /// The registered implementation of method relation `method`; nullptr
  /// when none is registered.
  const MethodFn* Method(datalog::RelationId method) const;

  /// Invokes a registered method.
  sqo::Result<sqo::Value> InvokeMethod(const std::string& method, sqo::Oid receiver,
                                       const std::vector<sqo::Value>& args) const;

  bool HasIndex(const std::string& relation, size_t pos) const;

  /// Index probe; nullptr when no index or no entry.
  const std::vector<sqo::Oid>* IndexLookup(datalog::RelationId relation,
                                           size_t pos,
                                           const sqo::Value& value) const;
  const std::vector<sqo::Oid>* IndexLookup(const std::string& relation, size_t pos,
                                           const sqo::Value& value) const;

  /// Like IndexLookup, but over the store's *adaptive* secondary indexes:
  /// the first probe of (relation, pos) whose extent has at least
  /// `min_extent` members builds a hash index over that attribute. Once
  /// built, the index is persistent: mutations to members of `relation`
  /// apply deltas in place (counter "index.delta_applies") instead of
  /// dropping the table, and mutations to other relations never touch it.
  /// Only Clear() discards the tables; a build after Clear counts as
  /// "index.full_rebuilds" (first-ever builds count "index.lazy_builds").
  /// Returns nullptr when the extent is under the threshold or the value
  /// has no entry — callers distinguish "no index" from "no match" via
  /// `built`, set to true when an index (fresh or cached) answered the
  /// probe.
  ///
  /// Thread-safe for concurrent readers (one mutex-guarded table). The
  /// returned pointer is valid until the next store mutation; concurrent
  /// evaluation over an immutable store — the parallel-profiling contract —
  /// never invalidates it.
  const std::vector<sqo::Oid>* LazyIndexLookup(datalog::RelationId relation,
                                               size_t pos, const sqo::Value& value,
                                               size_t min_extent,
                                               bool* built) const;
  const std::vector<sqo::Oid>* LazyIndexLookup(const std::string& relation,
                                               size_t pos, const sqo::Value& value,
                                               size_t min_extent,
                                               bool* built) const;

  // ---- Statistics (for the planner / cost model) ----

  size_t ExtentSize(const std::string& relation) const;
  size_t PairCount(const std::string& relation) const;
  /// Average out-degree (pairs / distinct sources); ≥ 0.
  double AvgFanout(const std::string& relation) const;
  double AvgReverseFanout(const std::string& relation) const;
  /// Distinct values at an indexed position (0 when unindexed).
  size_t IndexDistinct(const std::string& relation, size_t pos) const;

  const translate::TranslatedSchema& schema() const { return *schema_; }
  size_t object_count() const { return object_count_; }

  // ---- Persistence support ----

  /// One adaptive secondary index in snapshot-serializable form: every
  /// (value → OIDs) bucket of the hash index on `relation`.`pos`, with the
  /// buckets in a deterministic order.
  struct SecondaryIndexDump {
    std::string relation;
    size_t pos = 0;
    std::vector<std::pair<sqo::Value, std::vector<sqo::Oid>>> entries;
  };

  /// Maintenance state of one materialized access support relation: the
  /// relationship path its pairs were derived from, and whether a deletion
  /// on a path relation has left the materialization stale (pair inserts
  /// are applied incrementally; deletions mark the ASR for
  /// re-materialization instead).
  struct AsrState {
    std::string name;
    std::vector<std::string> path;
    bool stale = false;
  };

  /// Every built adaptive secondary index (LazyIndexLookup tables), for
  /// snapshot serialization.
  std::vector<SecondaryIndexDump> DumpSecondaryIndexes() const;

  /// Installs one secondary index restored from a snapshot, marking it as
  /// previously built so a later from-scratch build counts as a full
  /// rebuild. A dump over a relation that is not a class or structure of
  /// the schema is dropped.
  void RestoreSecondaryIndex(SecondaryIndexDump dump);

  /// Maintenance states of every ASR materialized (or restored) into this
  /// store, in name order.
  std::vector<AsrState> AsrStates() const;

  /// Re-registers one ASR maintenance state restored from a snapshot, so
  /// incremental maintenance resumes across recovery.
  void RestoreAsrState(AsrState state);

  /// Installs (or, with an empty function, removes) the mutation listener.
  /// The storage layer installs its WAL appender here *after* recovery, so
  /// replayed mutations are never re-logged.
  void SetMutationListener(MutationListener listener);
  bool has_mutation_listener() const { return static_cast<bool>(listener_); }

  /// Replays a batch of primitive mutation records (one logical operation,
  /// as previously delivered to a MutationListener or reconstructed from a
  /// snapshot). Bypasses cardinality enforcement and the listener. A record
  /// inconsistent with the schema or current state (unknown relation, arity
  /// mismatch, duplicate or missing OID, a create's OID more than
  /// kMaxOidGap past the allocated range, position out of range) yields
  /// kDataCorruption; earlier records of the batch stay applied — recovery
  /// treats any failure as a corrupt log suffix and truncates.
  sqo::Status ApplyMutations(const std::vector<Mutation>& batch);

  /// Drops all data (objects, extents, relationship pairs, index *entries*
  /// and lazy indexes) and resets OID allocation. Keeps what is code or
  /// schema rather than data: registered methods, declared index positions
  /// (emptied, still maintained) and the inverse-relation cache. Recovery
  /// uses this between snapshot attempts when failing open to an older
  /// snapshot.
  void Clear();

  /// Visits every stored object in OID order as `visit(oid,
  /// exact_relation, row)`: the name of its exact type's relation and a
  /// view of its full row. The one way to enumerate the store (snapshot
  /// encoding, replica bootstrap, state signatures).
  template <typename Visit>
  void ForEachObject(Visit&& visit) const {
    for (uint64_t raw = 1; raw < slots_.size(); ++raw) {
      const Slot& slot = slots_[raw];
      if (slot.exact == datalog::kNoRelation) continue;
      visit(sqo::Oid(raw), schema_->catalog.ById(slot.exact).name,
            RowView(slot.row));
    }
  }

  /// Names of every relation with pair data (relationships + materialized
  /// ASRs), in map order.
  std::vector<std::string> RelationNames() const;

  /// The next OID the store would mint.
  uint64_t next_oid() const { return next_oid_; }

  /// Raises the OID allocator to at least `next_oid` (never lowers it):
  /// deleted objects must not lead to OID reuse after recovery. A value
  /// more than kMaxOidGap past the allocated range is kDataCorruption and
  /// leaves the allocator as it was.
  sqo::Status RestoreNextOid(uint64_t next_oid);

 private:
  /// One OID's entry in the slot table. `exact` is kNoRelation when the
  /// OID holds no object (never installed here, burned by a failed create,
  /// or deleted).
  struct Slot {
    datalog::RelationId exact = datalog::kNoRelation;
    Row row;  // full row, aligned with the exact type's relation
  };

  struct RelData {
    std::vector<std::pair<sqo::Oid, sqo::Oid>> pairs;
    std::map<uint64_t, std::vector<sqo::Oid>> fwd;
    std::map<uint64_t, std::vector<sqo::Oid>> bwd;
    std::set<std::pair<uint64_t, uint64_t>> pair_set;
  };

  struct ValueEq {
    bool operator()(const sqo::Value& a, const sqo::Value& b) const {
      return a.Equals(b);
    }
  };
  using HashIndex =
      std::unordered_map<sqo::Value, std::vector<sqo::Oid>, sqo::ValueHash, ValueEq>;

  /// The id of relation `name`; kNoRelation when the catalog lacks it.
  datalog::RelationId Resolve(const std::string& name) const;

  /// The slot holding object `oid`; nullptr when there is none.
  const Slot* Find(sqo::Oid oid) const {
    return oid.raw() < slots_.size() &&
                   slots_[oid.raw()].exact != datalog::kNoRelation
               ? &slots_[oid.raw()]
               : nullptr;
  }
  Slot* Find(sqo::Oid oid) {
    return const_cast<Slot*>(std::as_const(*this).Find(oid));
  }

  /// True when exact type `exact` is `relation` or one of its subtypes.
  bool Covers(datalog::RelationId exact, datalog::RelationId relation) const {
    return relation < member_words_ * 64 &&
           ((member_bits_[exact * member_words_ + relation / 64] >>
             (relation % 64)) & 1) != 0;
  }

  /// One past the highest OID allocated so far: minted or installed.
  uint64_t AllocatedEnd() const {
    return std::max<uint64_t>(next_oid_, slots_.size());
  }

  /// Inserts a pair into `rel` (no inverse handling). `record` queues a
  /// kInsertPair mutation for the listener (off on replay paths).
  sqo::Status InsertPair(const std::string& rel, sqo::Oid src, sqo::Oid dst,
                         bool enforce_cardinality, bool record = true);

  /// Removes a pair from `rel` (no inverse handling).
  void ErasePair(const std::string& rel, sqo::Oid src, sqo::Oid dst,
                 bool record = true);

  /// Installs a fully built object row: its slot, the extents of every
  /// member relation, declared indexes. Shared by CreateInstance and replay.
  void InstallRecord(sqo::Oid oid, datalog::RelationId exact, Row row);

  /// In-place attribute write with index maintenance, shared by
  /// UpdateAttribute and replay. `pos` must be a valid non-OID position of
  /// the object's exact row.
  sqo::Status UpdateRowPosition(sqo::Oid oid, size_t pos, sqo::Value value);

  /// DeleteObject's body; `record` queues the primitive records.
  sqo::Status DeleteObjectImpl(sqo::Oid oid, bool record);

  /// Applies one primitive record (replay; no listener, no cardinality).
  sqo::Status ApplyOne(const Mutation& m);

  /// Queues `m` for the listener (no-op without one).
  void Record(Mutation m);

  /// Delivers and clears the queued records of the completing operation.
  sqo::Status FlushMutations();

  /// Resolves the declared inverse relation of `rel` ("" if none), cached.
  std::string InverseOf(const std::string& rel, const datalog::RelationSignature& sig);

  sqo::Result<sqo::Oid> CreateInstance(const std::string& type_name,
                                       const std::map<std::string, sqo::Value>& attrs,
                                       bool is_struct);

  /// Incremental maintenance of the adaptive secondary indexes, scoped to
  /// the member relations of the mutated object's exact type (indexes over
  /// unrelated relations are untouched). Each call that changes a built
  /// index counts one "index.delta_applies".
  void LazyIndexInsert(datalog::RelationId exact, const Row& row, sqo::Oid oid);
  void LazyIndexUpdate(datalog::RelationId exact, size_t pos,
                       const sqo::Value& old_value, const sqo::Value& new_value,
                       sqo::Oid oid);
  void LazyIndexErase(datalog::RelationId exact, const Row& row, sqo::Oid oid);

  /// Derives and inserts the ASR pairs a new `(src, dst)` pair of path
  /// relation `rel` gives rise to, for every fresh registered ASR whose
  /// path contains `rel` (prefix reachability backwards from `src`, suffix
  /// reachability forwards from `dst`).
  sqo::Status MaintainAsrsOnInsert(const std::string& rel, sqo::Oid src,
                                   sqo::Oid dst, bool record);

  /// Marks every registered ASR whose path contains `rel` stale: removing
  /// a path pair is a counting problem (a derived pair may have other
  /// witnesses), so deletions demand re-materialization.
  void MarkAsrsStaleOnErase(const std::string& rel);

  /// Read-path half of the lazy ASR self-heal: when `relation` names a
  /// stale ASR, re-derive its extent in place before the read proceeds.
  /// Const because it runs on read accessors; like LazyIndexLookup the
  /// rebuild happens under `lazy_mu_` and mutates only derived state.
  void LazyRebuildIfStale(const std::string& relation) const;

  /// Rebuilds one stale ASR (and, first, any stale ASR its path hops
  /// through, depth-bounded like insert maintenance) by re-walking the
  /// path over the current pair data. lazy_mu_ held; no mutation records.
  void RebuildAsrLocked(AsrState& state, int depth);

  const translate::TranslatedSchema* schema_;
  /// Objects by OID; slot 0 stays empty (OID 0 is invalid).
  std::vector<Slot> slots_;
  size_t object_count_ = 0;
  /// members_[t]: the relations an exact instance of class/structure
  /// relation t belongs to — t itself, then its ancestors. Empty for other
  /// kinds. member_bits_ holds the same sets as a row-major bit matrix,
  /// member_words_ 64-bit words per row.
  std::vector<std::vector<datalog::RelationId>> members_;
  std::vector<uint64_t> member_bits_;
  size_t member_words_ = 0;
  // Tables indexed by RelationId, sized to the catalog at construction; an
  // id past the end (a later ASR) has an empty entry in each.
  std::vector<std::vector<sqo::Oid>> extents_;
  std::vector<std::map<size_t, HashIndex>> indexes_;
  std::vector<MethodFn> methods_;
  std::map<std::string, RelData> rels_;
  /// Adaptive attribute indexes (LazyIndexLookup), by RelationId: built on
  /// first probe, then delta-maintained by mutations. Mutable: building
  /// happens on const read paths; `lazy_mu_` guards the tables and
  /// `ever_built_`.
  mutable std::mutex lazy_mu_;
  mutable std::vector<std::map<size_t, HashIndex>> lazy_indexes_;
  /// (relation, pos) pairs that were built at least once this store
  /// lifetime — a later from-scratch build is a full rebuild, not a lazy
  /// build.
  mutable std::set<std::pair<datalog::RelationId, size_t>> ever_built_;
  /// Maintenance state of every materialized ASR, keyed by relation name.
  std::map<std::string, AsrState> asrs_;
  /// Number of entries of `asrs_` with `stale == true`. The read accessors
  /// poll this (one relaxed-ish atomic load) to keep the fresh-ASR fast
  /// path free of map lookups; a release store after a rebuild pairs with
  /// the acquire load, so a reader that sees zero also sees the rebuilt
  /// pair data.
  mutable std::atomic<size_t> stale_asr_count_{0};
  /// Recursion guard for ASRs whose paths are defined over other ASRs.
  int asr_maintenance_depth_ = 0;
  /// relation name of a relationship -> relation name of its inverse ("")
  std::map<std::string, std::string> inverse_of_;
  uint64_t next_oid_ = 1;
  MutationListener listener_;
  /// Primitive records of the logical operation in progress; delivered as
  /// one batch by FlushMutations. Only populated while a listener is set.
  std::vector<Mutation> pending_;
};

}  // namespace sqo::engine

#endif  // SQO_ENGINE_OBJECT_STORE_H_
