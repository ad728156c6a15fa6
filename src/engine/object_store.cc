#include "engine/object_store.h"

#include <algorithm>

#include "common/strings.h"
#include "obs/metrics.h"

namespace sqo::engine {

using datalog::RelationKind;
using datalog::RelationSignature;

namespace {
const std::vector<sqo::Oid>& EmptyOids() {
  static const std::vector<sqo::Oid> empty;
  return empty;
}
const std::vector<std::pair<sqo::Oid, sqo::Oid>>& EmptyPairs() {
  static const std::vector<std::pair<sqo::Oid, sqo::Oid>> empty;
  return empty;
}
}  // namespace

ObjectStore::ObjectStore(const translate::TranslatedSchema* schema)
    : schema_(schema) {
  const datalog::RelationCatalog& catalog = schema_->catalog;
  const size_t n = catalog.size();
  members_.resize(n);
  extents_.resize(n);
  methods_.resize(n);
  for (const auto& [name, sig] : catalog.relations()) {
    std::vector<datalog::RelationId>& members = members_[sig.id];
    if (sig.kind == RelationKind::kStructure) {
      members.push_back(sig.id);
    } else if (sig.kind == RelationKind::kClass) {
      const odl::ClassInfo* cls = schema_->schema.FindClass(sig.owner);
      while (cls != nullptr) {
        if (const RelationSignature* rel =
                catalog.Find(schema_->RelationFor(cls->name))) {
          members.push_back(rel->id);
        }
        cls = cls->super.empty() ? nullptr : schema_->schema.FindClass(cls->super);
      }
    }
  }
  member_words_ = (n + 63) / 64;
  member_bits_.assign(n * member_words_, 0);
  for (datalog::RelationId exact = 0; exact < n; ++exact) {
    for (datalog::RelationId rel : members_[exact]) {
      member_bits_[exact * member_words_ + rel / 64] |= uint64_t{1} << (rel % 64);
    }
  }
  index_base_.assign(n + 1, 0);
  for (datalog::RelationId rel = 0; rel < n; ++rel) {
    const size_t positions = members_[rel].empty() ? 0 : catalog.ById(rel).arity();
    index_base_[rel + 1] = index_base_[rel] + positions;
  }
  indexes_ = std::vector<IndexSlot>(index_base_[n]);
}

template <typename Fn>
void ObjectStore::ForEachBuiltIndex(datalog::RelationId exact, Fn&& fn) {
  for (datalog::RelationId member : members_[exact]) {
    for (size_t slot = index_base_[member] + 1; slot < index_base_[member + 1];
         ++slot) {
      if (indexes_[slot].built.load(std::memory_order_relaxed)) {
        fn(indexes_[slot], slot - index_base_[member]);
      }
    }
  }
}

datalog::RelationId ObjectStore::Resolve(const std::string& name) const {
  const RelationSignature* sig = schema_->catalog.Find(name);
  return sig == nullptr ? datalog::kNoRelation : sig->id;
}

void ObjectStore::InstallRecord(sqo::Oid oid, datalog::RelationId exact,
                                Row row) {
  if (oid.raw() >= slots_.size()) slots_.resize(oid.raw() + 1);
  Slot& slot = slots_[oid.raw()];
  slot.exact = exact;
  slot.row = std::move(row);
  ++object_count_;
  const Row& stored = slot.row;
  for (datalog::RelationId member : members_[exact]) {
    extents_[member].push_back(oid);
  }
  ForEachBuiltIndex(exact, [&](IndexSlot& index, size_t pos) {
    index.table[stored[pos]].push_back(oid);
    if (!index.declared) obs::Count("index.delta_applies");
  });
}

sqo::Result<sqo::Oid> ObjectStore::CreateInstance(
    const std::string& type_name, const std::map<std::string, sqo::Value>& attrs,
    bool is_struct) {
  const std::string relation = schema_->RelationFor(type_name);
  const RelationSignature* sig = schema_->catalog.Find(relation);
  if (sig == nullptr ||
      (is_struct && sig->kind != RelationKind::kStructure) ||
      (!is_struct && sig->kind != RelationKind::kClass)) {
    return sqo::NotFoundError("unknown " +
                              std::string(is_struct ? "struct" : "class") +
                              " '" + type_name + "'");
  }
  sqo::Oid oid(next_oid_++);
  Row row(sig->arity());
  row[0] = sqo::Value::FromOid(oid);
  for (const auto& [name, value] : attrs) {
    auto pos = sig->AttributeIndex(sqo::ToLower(name));
    if (!pos.has_value() || *pos == 0) {
      return sqo::InvalidArgumentError("type '" + type_name +
                                       "' has no attribute '" + name + "'");
    }
    row[*pos] = value;
  }
  if (listener_) {
    Mutation m;
    m.kind = Mutation::Kind::kCreate;
    m.oid = oid;
    m.relation = relation;
    m.row = row;
    pending_.push_back(std::move(m));
  }
  InstallRecord(oid, sig->id, std::move(row));
  SQO_RETURN_IF_ERROR(FlushMutations());
  return oid;
}

sqo::Result<sqo::Oid> ObjectStore::CreateObject(
    const std::string& class_name, const std::map<std::string, sqo::Value>& attrs) {
  return CreateInstance(class_name, attrs, /*is_struct=*/false);
}

sqo::Result<sqo::Oid> ObjectStore::CreateStruct(
    const std::string& struct_name, const std::map<std::string, sqo::Value>& fields) {
  return CreateInstance(struct_name, fields, /*is_struct=*/true);
}

sqo::Status ObjectStore::InsertPair(const std::string& rel, sqo::Oid src,
                                    sqo::Oid dst, bool enforce_cardinality,
                                    bool record) {
  const RelationSignature* sig = schema_->catalog.Find(rel);
  RelData& data = rels_[rel];
  if (data.pair_set.count({src.raw(), dst.raw()}) > 0) {
    return sqo::Status::Ok();  // already related
  }
  if (enforce_cardinality && sig != nullptr) {
    if (sig->functional_src_to_dst && data.fwd.count(src.raw()) > 0 &&
        !data.fwd.at(src.raw()).empty()) {
      return sqo::SemanticError("cardinality violation: '" + rel +
                                "' is to-one from its source");
    }
    if (sig->functional_dst_to_src && data.bwd.count(dst.raw()) > 0 &&
        !data.bwd.at(dst.raw()).empty()) {
      return sqo::SemanticError("cardinality violation: '" + rel +
                                "' is to-one from its target");
    }
  }
  data.pair_set.insert({src.raw(), dst.raw()});
  data.pairs.emplace_back(src, dst);
  data.fwd[src.raw()].push_back(dst);
  data.bwd[dst.raw()].push_back(src);
  if (record) {
    Mutation m;
    m.kind = Mutation::Kind::kInsertPair;
    m.relation = rel;
    m.src = src;
    m.dst = dst;
    Record(std::move(m));
  }
  // Pair data never feeds the attribute indexes, so they stay intact; the
  // new pair may extend materialized ASR paths, though.
  return MaintainAsrsOnInsert(rel, src, dst, record);
}

sqo::Status ObjectStore::Relate(const std::string& relationship, sqo::Oid src,
                                sqo::Oid dst) {
  const std::string rel = sqo::ToLower(relationship);
  const RelationSignature* sig = schema_->catalog.Find(rel);
  if (sig == nullptr || sig->kind != RelationKind::kRelationship) {
    return sqo::NotFoundError("unknown relationship '" + relationship + "'");
  }
  if (!IsMember(schema_->RelationFor(sig->owner), src)) {
    return sqo::SemanticError("Relate('" + rel + "'): source object is not a " +
                              sig->owner);
  }
  if (!IsMember(schema_->RelationFor(sig->target), dst)) {
    return sqo::SemanticError("Relate('" + rel + "'): target object is not a " +
                              sig->target);
  }
  sqo::Status status = InsertPair(rel, src, dst, /*enforce_cardinality=*/true);

  // Maintain the declared inverse.
  if (status.ok()) {
    const std::string inverse = InverseOf(rel, *sig);
    if (!inverse.empty()) {
      status = InsertPair(inverse, dst, src, /*enforce_cardinality=*/true);
    }
  }
  // Flush even on failure: whatever was applied in memory must reach the
  // log, or disk and memory diverge without a crash.
  const sqo::Status log_status = FlushMutations();
  return status.ok() ? log_status : status;
}

std::string ObjectStore::InverseOf(const std::string& rel,
                                   const RelationSignature& sig) {
  auto it = inverse_of_.find(rel);
  if (it != inverse_of_.end()) return it->second;
  const odl::ResolvedRelationship* decl =
      schema_->schema.FindRelationship(sig.owner, sig.display_name);
  std::string inverse = (decl != nullptr && !decl->inverse.empty())
                            ? sqo::ToLower(decl->inverse)
                            : "";
  inverse_of_[rel] = inverse;
  return inverse;
}

void ObjectStore::ErasePair(const std::string& rel, sqo::Oid src, sqo::Oid dst,
                            bool record) {
  auto it = rels_.find(rel);
  if (it == rels_.end()) return;
  RelData& data = it->second;
  if (data.pair_set.erase({src.raw(), dst.raw()}) == 0) return;
  if (record) {
    Mutation m;
    m.kind = Mutation::Kind::kErasePair;
    m.relation = rel;
    m.src = src;
    m.dst = dst;
    Record(std::move(m));
  }
  auto drop = [](std::vector<sqo::Oid>& v, sqo::Oid x) {
    v.erase(std::remove(v.begin(), v.end(), x), v.end());
  };
  data.pairs.erase(std::remove(data.pairs.begin(), data.pairs.end(),
                               std::make_pair(src, dst)),
                   data.pairs.end());
  auto fit = data.fwd.find(src.raw());
  if (fit != data.fwd.end()) drop(fit->second, dst);
  auto bit = data.bwd.find(dst.raw());
  if (bit != data.bwd.end()) drop(bit->second, src);
  // A removed path pair may invalidate derived ASR pairs whose only
  // witness it was — a counting problem we do not track, so the ASR is
  // marked for re-materialization instead.
  MarkAsrsStaleOnErase(rel);
}

sqo::Status ObjectStore::Unrelate(const std::string& relationship, sqo::Oid src,
                                  sqo::Oid dst) {
  const std::string rel = sqo::ToLower(relationship);
  const RelationSignature* sig = schema_->catalog.Find(rel);
  if (sig == nullptr || sig->kind != RelationKind::kRelationship) {
    return sqo::NotFoundError("unknown relationship '" + relationship + "'");
  }
  ErasePair(rel, src, dst);
  const std::string inverse = InverseOf(rel, *sig);
  if (!inverse.empty()) ErasePair(inverse, dst, src);
  return FlushMutations();
}

sqo::Status ObjectStore::UpdateRowPosition(sqo::Oid oid, size_t pos,
                                           sqo::Value value) {
  Slot* slot = Find(oid);
  if (slot == nullptr) {
    return sqo::NotFoundError("no object @" + std::to_string(oid.raw()));
  }
  if (pos == 0 || pos >= slot->row.size()) {
    return sqo::InvalidArgumentError("attribute position out of range");
  }
  const sqo::Value old_value = slot->row[pos];
  slot->row[pos] = std::move(value);
  const sqo::Value& new_value = slot->row[pos];
  // An equal value stays in its bucket, at its place in it.
  if (new_value.Equals(old_value)) return sqo::Status::Ok();
  // Maintain the index of every member relation covering this position.
  for (datalog::RelationId member : members_[slot->exact]) {
    IndexSlot* index = IndexSlotOf(member, pos);
    if (index == nullptr || !index->built.load(std::memory_order_relaxed)) {
      continue;
    }
    auto old_bucket = index->table.find(old_value);
    if (old_bucket != index->table.end()) {
      auto& oids = old_bucket->second;
      oids.erase(std::remove(oids.begin(), oids.end(), oid), oids.end());
      if (oids.empty()) index->table.erase(old_bucket);
    }
    index->table[new_value].push_back(oid);
    if (!index->declared) obs::Count("index.delta_applies");
  }
  return sqo::Status::Ok();
}

sqo::Status ObjectStore::UpdateAttribute(sqo::Oid oid,
                                         const std::string& attribute,
                                         sqo::Value value) {
  const Slot* slot = Find(oid);
  if (slot == nullptr) {
    return sqo::NotFoundError("no object @" + std::to_string(oid.raw()));
  }
  const RelationSignature& sig = schema_->catalog.ById(slot->exact);
  auto pos = sig.AttributeIndex(sqo::ToLower(attribute));
  if (!pos.has_value() || *pos == 0) {
    return sqo::InvalidArgumentError("type '" + sig.display_name +
                                     "' has no attribute '" + attribute + "'");
  }
  if (listener_) {
    Mutation m;
    m.kind = Mutation::Kind::kUpdate;
    m.oid = oid;
    m.relation = sig.name;
    m.pos = *pos;
    m.value = value;
    pending_.push_back(std::move(m));
  }
  const sqo::Status status = UpdateRowPosition(oid, *pos, std::move(value));
  const sqo::Status log_status = FlushMutations();
  return status.ok() ? log_status : status;
}

sqo::Status ObjectStore::DeleteObjectImpl(sqo::Oid oid, bool record_mutations) {
  if (Find(oid) == nullptr) {
    return sqo::NotFoundError("no object @" + std::to_string(oid.raw()));
  }

  // Drop relationship pairs touching the object.
  for (auto& [rel, data] : rels_) {
    std::vector<std::pair<sqo::Oid, sqo::Oid>> doomed;
    for (const auto& pair : data.pairs) {
      if (pair.first == oid || pair.second == oid) doomed.push_back(pair);
    }
    for (const auto& [src, dst] : doomed) {
      ErasePair(rel, src, dst, record_mutations);
    }
  }

  // Remove from extents and indexes.
  Slot& slot = slots_[oid.raw()];
  const datalog::RelationId exact = slot.exact;
  const Row row = std::move(slot.row);
  slot = Slot{};
  --object_count_;
  for (datalog::RelationId member : members_[exact]) {
    auto& extent = extents_[member];
    extent.erase(std::remove(extent.begin(), extent.end(), oid), extent.end());
  }
  ForEachBuiltIndex(exact, [&](IndexSlot& index, size_t pos) {
    auto bucket = index.table.find(row[pos]);
    if (bucket == index.table.end()) return;
    auto& oids = bucket->second;
    oids.erase(std::remove(oids.begin(), oids.end(), oid), oids.end());
    if (oids.empty()) index.table.erase(bucket);
    if (!index.declared) obs::Count("index.delta_applies");
  });

  if (record_mutations) {
    Mutation m;
    m.kind = Mutation::Kind::kDelete;
    m.oid = oid;
    m.relation = schema_->catalog.ById(exact).name;
    Record(std::move(m));
  }
  return sqo::Status::Ok();
}

sqo::Status ObjectStore::DeleteObject(sqo::Oid oid) {
  const sqo::Status status = DeleteObjectImpl(oid, /*record_mutations=*/true);
  const sqo::Status log_status = FlushMutations();
  return status.ok() ? log_status : status;
}

sqo::Status ObjectStore::RegisterMethod(const std::string& method, MethodFn fn) {
  const std::string rel = sqo::ToLower(method);
  const RelationSignature* sig = schema_->catalog.Find(rel);
  if (sig == nullptr || sig->kind != RelationKind::kMethod) {
    return sqo::NotFoundError("unknown method '" + method + "'");
  }
  if (sig->id >= methods_.size()) methods_.resize(sig->id + 1);
  methods_[sig->id] = std::move(fn);
  return sqo::Status::Ok();
}

sqo::Status ObjectStore::CreateIndex(const std::string& relation,
                                     const std::string& attribute) {
  const std::string rel = sqo::ToLower(relation);
  const RelationSignature* sig = schema_->catalog.Find(rel);
  if (sig == nullptr || (sig->kind != RelationKind::kClass &&
                         sig->kind != RelationKind::kStructure)) {
    return sqo::NotFoundError("cannot index relation '" + relation + "'");
  }
  auto pos = sig->AttributeIndex(sqo::ToLower(attribute));
  if (!pos.has_value() || *pos == 0) {
    return sqo::InvalidArgumentError("relation '" + rel +
                                     "' has no indexable attribute '" +
                                     attribute + "'");
  }
  HashIndex index;
  for (sqo::Oid oid : Extent(sig->id)) {
    index[slots_[oid.raw()].row[*pos]].push_back(oid);
  }
  IndexSlot* slot = IndexSlotOf(sig->id, *pos);
  slot->table = std::move(index);
  slot->declared = true;
  slot->built.store(true, std::memory_order_release);
  return sqo::Status::Ok();
}

sqo::Status ObjectStore::Materialize(const core::AsrDefinition& asr) {
  if (rels_.erase(asr.name) > 0) {
    Mutation m;
    m.kind = Mutation::Kind::kClearRel;
    m.relation = asr.name;
    Record(std::move(m));
  }
  // Walk the path breadth-first from every source of the first hop.
  const RelData* first = nullptr;
  auto it = rels_.find(asr.path.front());
  if (it != rels_.end()) first = &it->second;
  std::vector<std::pair<sqo::Oid, sqo::Oid>> frontier;
  if (first != nullptr) {
    frontier.assign(first->pairs.begin(), first->pairs.end());
  }
  for (size_t hop = 1; hop < asr.path.size(); ++hop) {
    std::vector<std::pair<sqo::Oid, sqo::Oid>> next;
    for (const auto& [origin, mid] : frontier) {
      for (sqo::Oid dst : Neighbors(asr.path[hop], mid)) {
        next.emplace_back(origin, dst);
      }
    }
    frontier = std::move(next);
  }
  sqo::Status status = sqo::Status::Ok();
  for (const auto& [src, dst] : frontier) {
    status = InsertPair(asr.name, src, dst, /*enforce_cardinality=*/false);
    if (!status.ok()) break;
  }
  if (status.ok()) {
    // Register (or refresh) the maintenance state: from here on, inserts
    // into path relations extend the materialization incrementally and
    // erasures mark it stale.
    AsrState& state = asrs_[asr.name];
    if (state.stale) stale_asr_count_.fetch_sub(1, std::memory_order_release);
    state.name = asr.name;
    state.path = asr.path;
    state.stale = false;
  }
  const sqo::Status log_status = FlushMutations();
  return status.ok() ? log_status : status;
}

sqo::Status ObjectStore::MaintainAsrsOnInsert(const std::string& rel,
                                              sqo::Oid src, sqo::Oid dst,
                                              bool record) {
  if (asrs_.empty() || asr_maintenance_depth_ >= 4) return sqo::Status::Ok();
  ++asr_maintenance_depth_;
  sqo::Status status = sqo::Status::Ok();
  for (auto& [name, state] : asrs_) {
    if (state.stale || !status.ok()) continue;
    for (size_t hop = 0; hop < state.path.size() && status.ok(); ++hop) {
      if (state.path[hop] != rel) continue;
      // Origins: everything that reaches `src` through the path prefix.
      std::vector<sqo::Oid> origins{src};
      for (size_t i = hop; i-- > 0 && !origins.empty();) {
        std::vector<sqo::Oid> prev;
        std::set<uint64_t> seen;
        for (sqo::Oid o : origins) {
          for (sqo::Oid p : ReverseNeighbors(state.path[i], o)) {
            if (seen.insert(p.raw()).second) prev.push_back(p);
          }
        }
        origins = std::move(prev);
      }
      if (origins.empty()) continue;
      // Targets: everything `dst` reaches through the path suffix.
      std::vector<sqo::Oid> targets{dst};
      for (size_t i = hop + 1; i < state.path.size() && !targets.empty(); ++i) {
        std::vector<sqo::Oid> next;
        std::set<uint64_t> seen;
        for (sqo::Oid t : targets) {
          for (sqo::Oid n : Neighbors(state.path[i], t)) {
            if (seen.insert(n.raw()).second) next.push_back(n);
          }
        }
        targets = std::move(next);
      }
      if (targets.empty()) continue;
      obs::Count("asr.delta_pairs", origins.size() * targets.size());
      for (sqo::Oid origin : origins) {
        for (sqo::Oid target : targets) {
          status = InsertPair(name, origin, target,
                              /*enforce_cardinality=*/false, record);
          if (!status.ok()) break;
        }
        if (!status.ok()) break;
      }
    }
  }
  --asr_maintenance_depth_;
  return status;
}

void ObjectStore::MarkAsrsStaleOnErase(const std::string& rel) {
  for (auto& [name, state] : asrs_) {
    if (state.stale) continue;
    if (name == rel ||
        std::find(state.path.begin(), state.path.end(), rel) !=
            state.path.end()) {
      state.stale = true;
      stale_asr_count_.fetch_add(1, std::memory_order_release);
      obs::Count("asr.marked_stale");
    }
  }
}

void ObjectStore::RebuildAsrLocked(AsrState& state, int depth) {
  if (!state.stale) return;
  if (depth >= 4) return;  // ASR-over-ASR cycle guard; stays stale (A019)
  // A stale hop would feed the walk invalidated pairs; heal it first.
  for (const std::string& hop : state.path) {
    auto hit = asrs_.find(hop);
    if (hit != asrs_.end() && hit->second.stale && hit->first != state.name) {
      RebuildAsrLocked(hit->second, depth + 1);
      if (hit->second.stale) return;  // depth-bounded out: give up here too
    }
  }
  // Re-walk the path breadth-first (Materialize's derivation) over raw
  // pair data — the accessor wrappers would re-enter the stale check.
  std::vector<std::pair<sqo::Oid, sqo::Oid>> frontier;
  if (auto it = rels_.find(state.path.front()); it != rels_.end()) {
    frontier.assign(it->second.pairs.begin(), it->second.pairs.end());
  }
  for (size_t hop = 1; hop < state.path.size(); ++hop) {
    std::vector<std::pair<sqo::Oid, sqo::Oid>> next;
    auto it = rels_.find(state.path[hop]);
    if (it != rels_.end()) {
      for (const auto& [origin, mid] : frontier) {
        auto fit = it->second.fwd.find(mid.raw());
        if (fit == it->second.fwd.end()) continue;
        for (sqo::Oid dst : fit->second) next.emplace_back(origin, dst);
      }
    }
    frontier = std::move(next);
  }
  RelData& data = rels_[state.name];
  data.pairs.clear();
  data.fwd.clear();
  data.bwd.clear();
  data.pair_set.clear();
  for (const auto& [src, dst] : frontier) {
    if (!data.pair_set.insert({src.raw(), dst.raw()}).second) continue;
    data.pairs.emplace_back(src, dst);
    data.fwd[src.raw()].push_back(dst);
    data.bwd[dst.raw()].push_back(src);
  }
  state.stale = false;
  stale_asr_count_.fetch_sub(1, std::memory_order_release);
  obs::Count("asr.lazy_rebuilds");
}

void ObjectStore::LazyRebuildIfStale(const std::string& relation) const {
  // Derived-state rebuild on a const read path, like an adaptive index.
  ObjectStore* self = const_cast<ObjectStore*>(this);
  std::lock_guard<std::mutex> lock(lazy_mu_);
  auto it = self->asrs_.find(relation);
  if (it == self->asrs_.end() || !it->second.stale) return;
  self->RebuildAsrLocked(it->second, 0);
}

void ObjectStore::RefreshStaleAsrs() {
  if (stale_asr_count_.load(std::memory_order_acquire) == 0) return;
  std::lock_guard<std::mutex> lock(lazy_mu_);
  for (auto& [name, state] : asrs_) {
    (void)name;
    if (state.stale) RebuildAsrLocked(state, 0);
  }
}

const std::vector<sqo::Oid>& ObjectStore::Extent(
    datalog::RelationId relation) const {
  return relation < extents_.size() ? extents_[relation] : EmptyOids();
}

const std::vector<sqo::Oid>& ObjectStore::Extent(const std::string& relation) const {
  return Extent(Resolve(relation));
}

bool ObjectStore::IsMember(const std::string& relation, sqo::Oid oid) const {
  return IsMember(Resolve(relation), oid);
}

ObjectStore::RowView ObjectStore::RowAs(const std::string& relation,
                                        sqo::Oid oid) const {
  return RowAs(Resolve(relation), oid);
}

sqo::Result<sqo::Value> ObjectStore::AttributeOf(const std::string& relation,
                                                 sqo::Oid oid, size_t pos) const {
  const Slot* slot = Find(oid);
  if (slot == nullptr || !Covers(slot->exact, Resolve(relation))) {
    return sqo::NotFoundError("object @" + std::to_string(oid.raw()) +
                              " is not a member of '" + relation + "'");
  }
  if (pos >= slot->row.size()) {
    return sqo::InvalidArgumentError("attribute position out of range");
  }
  return slot->row[pos];
}

const std::vector<std::pair<sqo::Oid, sqo::Oid>>& ObjectStore::Pairs(
    const std::string& relation) const {
  if (stale_asr_count_.load(std::memory_order_acquire) != 0) {
    LazyRebuildIfStale(relation);
  }
  return PairsRaw(relation);
}

const std::vector<std::pair<sqo::Oid, sqo::Oid>>& ObjectStore::PairsRaw(
    const std::string& relation) const {
  auto it = rels_.find(relation);
  return it == rels_.end() ? EmptyPairs() : it->second.pairs;
}

const std::vector<sqo::Oid>& ObjectStore::Neighbors(const std::string& relation,
                                                    sqo::Oid src) const {
  if (stale_asr_count_.load(std::memory_order_acquire) != 0) {
    LazyRebuildIfStale(relation);
  }
  auto it = rels_.find(relation);
  if (it == rels_.end()) return EmptyOids();
  auto fit = it->second.fwd.find(src.raw());
  return fit == it->second.fwd.end() ? EmptyOids() : fit->second;
}

const std::vector<sqo::Oid>& ObjectStore::ReverseNeighbors(
    const std::string& relation, sqo::Oid dst) const {
  if (stale_asr_count_.load(std::memory_order_acquire) != 0) {
    LazyRebuildIfStale(relation);
  }
  auto it = rels_.find(relation);
  if (it == rels_.end()) return EmptyOids();
  auto bit = it->second.bwd.find(dst.raw());
  return bit == it->second.bwd.end() ? EmptyOids() : bit->second;
}

const ObjectStore::MethodFn* ObjectStore::Method(
    datalog::RelationId method) const {
  return method < methods_.size() && methods_[method] ? &methods_[method]
                                                       : nullptr;
}

sqo::Result<sqo::Value> ObjectStore::InvokeMethod(
    const std::string& method, sqo::Oid receiver,
    const std::vector<sqo::Value>& args) const {
  const MethodFn* fn = Method(Resolve(sqo::ToLower(method)));
  if (fn == nullptr) {
    return sqo::NotFoundError("method '" + method + "' has no implementation");
  }
  return (*fn)(*this, receiver, args);
}

bool ObjectStore::HasIndex(datalog::RelationId relation, size_t pos) const {
  const IndexSlot* slot = IndexSlotOf(relation, pos);
  return slot != nullptr && slot->declared;
}

bool ObjectStore::HasIndex(const std::string& relation, size_t pos) const {
  return HasIndex(Resolve(relation), pos);
}

const ObjectStore::HashIndex* ObjectStore::BuiltIndex(
    datalog::RelationId relation, size_t pos) const {
  IndexSlot* slot = IndexSlotOf(relation, pos);
  if (slot == nullptr) return nullptr;
  if (!slot->built.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(lazy_mu_);
    if (!slot->built.load(std::memory_order_relaxed)) {
      const std::vector<sqo::Oid>& extent = Extent(relation);
      HashIndex fresh;
      fresh.reserve(extent.size());
      for (sqo::Oid oid : extent) {
        fresh[slots_[oid.raw()].row[pos]].push_back(oid);
      }
      slot->table = std::move(fresh);
      // A slot that was built before only reaches this path after Clear()
      // wiped it: that is a full rebuild, the event the in-place
      // maintenance exists to avoid.
      obs::Count(slot->ever_built ? "index.full_rebuilds" : "index.lazy_builds");
      slot->ever_built = true;
      slot->built.store(true, std::memory_order_release);
    }
  }
  return &slot->table;
}

const std::vector<sqo::Oid>* ObjectStore::IndexLookup(
    datalog::RelationId relation, size_t pos, const sqo::Value& value) const {
  const HashIndex* index = BuiltIndex(relation, pos);
  if (index == nullptr) return nullptr;
  auto it = index->find(value);
  return it == index->end() ? nullptr : &it->second;
}

const std::vector<sqo::Oid>* ObjectStore::IndexLookup(
    const std::string& relation, size_t pos, const sqo::Value& value) const {
  return IndexLookup(Resolve(relation), pos, value);
}

std::vector<ObjectStore::SecondaryIndexDump>
ObjectStore::DumpSecondaryIndexes() const {
  std::lock_guard<std::mutex> lock(lazy_mu_);
  std::vector<SecondaryIndexDump> dumps;
  for (datalog::RelationId relation = 0; relation + 1 < index_base_.size();
       ++relation) {
    for (size_t slot = index_base_[relation]; slot < index_base_[relation + 1];
         ++slot) {
      const IndexSlot& index = indexes_[slot];
      if (index.declared || !index.built.load(std::memory_order_relaxed)) {
        continue;
      }
      SecondaryIndexDump dump;
      dump.relation = schema_->catalog.ById(relation).name;
      dump.pos = slot - index_base_[relation];
      dump.entries.reserve(index.table.size());
      for (const auto& [value, oids] : index.table) {
        dump.entries.emplace_back(value, oids);
      }
      // Bucket order inside the hash table is incidental; sort the dump so
      // the snapshot encoding is stable.
      std::sort(dump.entries.begin(), dump.entries.end(),
                [](const auto& a, const auto& b) {
                  return a.first.Hash() < b.first.Hash();
                });
      dumps.push_back(std::move(dump));
    }
  }
  // Relation-name order, as the snapshot's index section has always used.
  std::stable_sort(dumps.begin(), dumps.end(),
                   [](const SecondaryIndexDump& a, const SecondaryIndexDump& b) {
                     return a.relation < b.relation;
                   });
  return dumps;
}

void ObjectStore::RestoreSecondaryIndex(SecondaryIndexDump dump) {
  IndexSlot* slot = IndexSlotOf(Resolve(dump.relation), dump.pos);
  if (slot == nullptr || slot->declared) return;
  std::lock_guard<std::mutex> lock(lazy_mu_);
  HashIndex index;
  index.reserve(dump.entries.size());
  for (auto& [value, oids] : dump.entries) {
    index[value] = std::move(oids);
  }
  slot->table = std::move(index);
  slot->ever_built = true;
  slot->built.store(true, std::memory_order_release);
  obs::Count("index.restored");
}

std::vector<ObjectStore::AsrState> ObjectStore::AsrStates() const {
  std::vector<AsrState> states;
  states.reserve(asrs_.size());
  for (const auto& [name, state] : asrs_) states.push_back(state);
  return states;
}

void ObjectStore::RestoreAsrState(AsrState state) {
  AsrState& slot = asrs_[state.name];
  if (slot.stale) stale_asr_count_.fetch_sub(1, std::memory_order_release);
  slot = std::move(state);
  if (slot.stale) stale_asr_count_.fetch_add(1, std::memory_order_release);
}

size_t ObjectStore::ExtentSize(const std::string& relation) const {
  return Extent(relation).size();
}

size_t ObjectStore::PairCount(const std::string& relation) const {
  return Pairs(relation).size();
}

double ObjectStore::AvgFanout(const std::string& relation) const {
  auto it = rels_.find(relation);
  if (it == rels_.end() || it->second.fwd.empty()) return 0.0;
  return static_cast<double>(it->second.pairs.size()) /
         static_cast<double>(it->second.fwd.size());
}

double ObjectStore::AvgReverseFanout(const std::string& relation) const {
  auto it = rels_.find(relation);
  if (it == rels_.end() || it->second.bwd.empty()) return 0.0;
  return static_cast<double>(it->second.pairs.size()) /
         static_cast<double>(it->second.bwd.size());
}

void ObjectStore::SetMutationListener(MutationListener listener) {
  listener_ = std::move(listener);
  pending_.clear();
}

void ObjectStore::Record(Mutation m) {
  if (listener_) pending_.push_back(std::move(m));
}

sqo::Status ObjectStore::FlushMutations() {
  if (!listener_ || pending_.empty()) return sqo::Status::Ok();
  std::vector<Mutation> batch;
  batch.swap(pending_);
  return listener_(batch);
}

sqo::Status ObjectStore::ApplyOne(const Mutation& m) {
  switch (m.kind) {
    case Mutation::Kind::kCreate: {
      const RelationSignature* sig = schema_->catalog.Find(m.relation);
      if (sig == nullptr || (sig->kind != RelationKind::kClass &&
                             sig->kind != RelationKind::kStructure)) {
        return sqo::DataCorruptionError("create: unknown relation '" +
                                        m.relation + "'");
      }
      if (m.row.size() != sig->arity()) {
        return sqo::DataCorruptionError(
            "create: row arity " + std::to_string(m.row.size()) +
            " does not match relation '" + m.relation + "'");
      }
      if (!m.oid.valid() || Find(m.oid) != nullptr) {
        return sqo::DataCorruptionError("create: invalid or duplicate OID @" +
                                        std::to_string(m.oid.raw()));
      }
      if (m.oid.raw() >= AllocatedEnd() &&
          m.oid.raw() - AllocatedEnd() >= kMaxOidGap) {
        return sqo::DataCorruptionError(
            "create: OID @" + std::to_string(m.oid.raw()) +
            " lies too far past the allocated range (next OID " +
            std::to_string(AllocatedEnd()) + ")");
      }
      InstallRecord(m.oid, sig->id, m.row);
      next_oid_ = std::max(next_oid_, m.oid.raw() + 1);
      return sqo::Status::Ok();
    }
    case Mutation::Kind::kUpdate: {
      const sqo::Status status = UpdateRowPosition(m.oid, m.pos, m.value);
      if (!status.ok()) {
        return sqo::DataCorruptionError("update: " + status.message());
      }
      return sqo::Status::Ok();
    }
    case Mutation::Kind::kDelete: {
      const sqo::Status status =
          DeleteObjectImpl(m.oid, /*record_mutations=*/false);
      if (!status.ok()) {
        return sqo::DataCorruptionError("delete: " + status.message());
      }
      return sqo::Status::Ok();
    }
    case Mutation::Kind::kInsertPair:
      return InsertPair(m.relation, m.src, m.dst,
                        /*enforce_cardinality=*/false, /*record=*/false);
    case Mutation::Kind::kErasePair:
      ErasePair(m.relation, m.src, m.dst, /*record=*/false);
      return sqo::Status::Ok();
    case Mutation::Kind::kClearRel:
      // Clears pair data only (ASR re-materialization); the attribute
      // indexes cover object rows and are unaffected.
      rels_.erase(m.relation);
      return sqo::Status::Ok();
  }
  return sqo::DataCorruptionError("unknown mutation kind " +
                                  std::to_string(static_cast<int>(m.kind)));
}

sqo::Status ObjectStore::ApplyMutations(const std::vector<Mutation>& batch) {
  for (const Mutation& m : batch) {
    SQO_RETURN_IF_ERROR(ApplyOne(m));
  }
  return sqo::Status::Ok();
}

void ObjectStore::Clear() {
  slots_.clear();
  object_count_ = 0;
  for (std::vector<sqo::Oid>& extent : extents_) extent.clear();
  rels_.clear();
  // Declared index *definitions* survive (they are physical-design
  // choices, like methods); their contents are data and go. The adaptive
  // indexes and ASR registrations are data-derived and go too; a slot's
  // `ever_built` survives, so a post-Clear rebuild is counted as a full
  // rebuild rather than a first build.
  for (IndexSlot& index : indexes_) {
    if (index.declared) {
      index.table.clear();
    } else {
      index.table = HashIndex();
      index.built.store(false, std::memory_order_relaxed);
    }
  }
  asrs_.clear();
  stale_asr_count_.store(0, std::memory_order_release);
  next_oid_ = 1;
  pending_.clear();
}

std::vector<std::string> ObjectStore::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(rels_.size());
  for (const auto& [name, data] : rels_) {
    (void)data;
    names.push_back(name);
  }
  return names;
}

sqo::Status ObjectStore::RestoreNextOid(uint64_t next_oid) {
  if (next_oid > AllocatedEnd() && next_oid - AllocatedEnd() > kMaxOidGap) {
    return sqo::DataCorruptionError(
        "next OID " + std::to_string(next_oid) +
        " lies too far past the allocated range (" +
        std::to_string(AllocatedEnd()) + ")");
  }
  next_oid_ = std::max(next_oid_, next_oid);
  return sqo::Status::Ok();
}

size_t ObjectStore::IndexDistinct(datalog::RelationId relation,
                                  size_t pos) const {
  return HasIndex(relation, pos) ? IndexSlotOf(relation, pos)->table.size() : 0;
}

size_t ObjectStore::IndexDistinct(const std::string& relation, size_t pos) const {
  return IndexDistinct(Resolve(relation), pos);
}

}  // namespace sqo::engine
