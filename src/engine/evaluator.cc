#include "engine/evaluator.h"

#include <array>
#include <chrono>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/context.h"
#include "common/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sqo::engine {

using datalog::Atom;
using datalog::CmpOp;
using datalog::Literal;
using datalog::Query;
using datalog::RelationKind;
using datalog::RelationSignature;
using datalog::Term;

namespace {

using Rows = std::vector<std::vector<sqo::Value>>;

/// Structural hashing/equality of result tuples, addressed by their
/// position in the result vector: DISTINCT dedups the rows the caller
/// receives, on the values themselves rather than on a stringified key
/// (which could collide when a value's text contains a separator byte).
struct RowAtHash {
  const Rows* rows;
  size_t operator()(size_t i) const {
    size_t h = 0xcbf29ce484222325ull;
    for (const sqo::Value& v : (*rows)[i]) h = h * 1099511628211ull + v.Hash();
    return h;
  }
};
struct RowAtEq {
  const Rows* rows;
  bool operator()(size_t i, size_t j) const {
    const std::vector<sqo::Value>& a = (*rows)[i];
    const std::vector<sqo::Value>& b = (*rows)[j];
    if (a.size() != b.size()) return false;
    for (size_t k = 0; k < a.size(); ++k) {
      if (!a[k].Equals(b[k])) return false;
    }
    return true;
  }
};

/// Accumulates inclusive wall time into a profile node; null-safe no-op
/// when profiling is off.
class NodeTimer {
 public:
  explicit NodeTimer(obs::ProfileNode* node) : node_(node) {
    if (node_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~NodeTimer() {
    if (node_ != nullptr) {
      node_->total_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
    }
  }

  NodeTimer(const NodeTimer&) = delete;
  NodeTimer& operator=(const NodeTimer&) = delete;

 private:
  obs::ProfileNode* node_;
  std::chrono::steady_clock::time_point start_;
};

/// True when `node` is profiled and not yet labeled: a plan step keeps the
/// operator label of its first execution. Callers test this before building
/// the label text, so unprofiled runs never format labels.
bool Unlabeled(const obs::ProfileNode* node) {
  return node != nullptr && node->op.empty();
}

void Label(obs::ProfileNode* node, const char* op, std::string relation,
           bool index_used = false) {
  node->op = op;
  node->relation = std::move(relation);
  node->index_used = index_used;
}

/// One argument of a plan step, resolved once per evaluation against the
/// variables bound before that step. Which variables are bound at a plan
/// position is the same for every binding that reaches it, so per-binding
/// work never looks a variable up by name.
struct ArgSlot {
  enum Kind {
    kConst,   // constant term
    kBound,   // variable bound upstream: compare against its slot
    kNew,     // first occurrence of a variable unbound here: binds its slot
    kRepeat,  // later occurrence of such a variable in the same atom:
              // compare against the value the first occurrence bound
  };
  Kind kind = kNew;
  sqo::Value constant;  // kConst
  size_t slot = 0;      // the variable's position in the binding row
  /// kNew only: whether anything reads the slot afterwards (a later step,
  /// a repeat in the same atom, the head). A slot nothing reads is never
  /// written, so a fetch copies only the columns the query uses.
  bool copy = true;
};

bool IsBound(const ArgSlot& a) {
  return a.kind == ArgSlot::kConst || a.kind == ArgSlot::kBound;
}

std::array<sqo::Value, 2> OidPair(sqo::Oid src, sqo::Oid dst) {
  return {sqo::Value::FromOid(src), sqo::Value::FromOid(dst)};
}

/// How a positive class/structure step with an unbound OID reaches its
/// candidates. Settled when the first binding arrives.
enum class Access {
  kUnresolved,
  kIndex,       // explicit index on a bound attribute, probed per binding
  kLazyIndex,   // the store's adaptive index, probed per binding
  kScan,        // extent scan per binding (the plan's first relation access)
  kHashJoin,    // bound attribute, no index: one hash table, probed
  kSharedScan,  // no bound attribute: one scan, replayed per binding
};

/// One plan position, prepared before execution.
struct PlanStep {
  const Literal* lit = nullptr;
  const RelationSignature* sig = nullptr;  // null for comparisons
  /// `sig->id`: every store access of the step indexes by it.
  datalog::RelationId rel = datalog::kNoRelation;
  /// A method step's implementation; null when none is registered.
  const ObjectStore::MethodFn* method = nullptr;
  std::vector<ArgSlot> args;
  /// Follows the plan's first relation access, so more than one binding
  /// may arrive: a class step builds candidates that do not depend on the
  /// binding once (hash join, shared extent scan) instead of scanning.
  bool amortize = false;
  /// A membership guard evaluated by the scan that binds its variable.
  bool consumed = false;
  /// (position, relation) of each guard the step's scan checks.
  std::vector<std::pair<size_t, datalog::RelationId>> guards;
  Access access = Access::kUnresolved;
  size_t attr = 0;  // the attribute an index probe or hash join keys on
  // Built by the first binding of an amortized step: views of store rows,
  // valid while the store is not mutated (the whole evaluation).
  bool built = false;
  uint64_t build_fetched = 0;  // guard-passing members fetched by the build
  std::unordered_map<sqo::Value, std::vector<ObjectStore::RowView>,
                     sqo::ValueHash>
      table;                                         // hash join
  std::vector<ObjectStore::RowView> rows;            // shared extent scan
  std::vector<std::pair<sqo::Oid, sqo::Oid>> pairs;  // shared pair scan
};

/// Depth-first execution of one planned query over a single flat binding
/// row: each variable owns one slot, a step binds by writing its slots and
/// backtracks by letting the next candidate overwrite them, so no binding
/// is ever copied or erased.
class Execution {
 public:
  Execution(const ObjectStore& store, const Query& query,
            const EvalOptions& options, obs::EvalStats& stats,
            obs::QueryProfile* profile, const Plan* plan)
      : store_(store), query_(query), options_(options), stats_(stats),
        profile_(profile), plan_(plan) {}

  sqo::Status Run(const std::vector<size_t>& order, Rows* out) {
    order_ = &order;
    out_ = out;
    dedup_ = Dedup(0, RowAtHash{out}, RowAtEq{out});
    if (profile_ != nullptr) SetUpProfile();
    Prepare();
    return Step(0);
  }

 private:
  size_t SlotOf(const Term& var) {
    for (size_t i = 0; i < vars_.size(); ++i) {
      if (vars_[i] == var.var_symbol()) return i;
    }
    vars_.push_back(var.var_symbol());
    row_.emplace_back();
    bound_.push_back(false);
    return vars_.size() - 1;
  }

  /// Resolves `atom`'s arguments against the variables bound so far.
  std::vector<ArgSlot> Resolve(const Atom& atom) {
    std::vector<ArgSlot> args(atom.arity());
    for (size_t i = 0; i < atom.arity(); ++i) {
      const Term& t = atom.args()[i];
      ArgSlot& a = args[i];
      if (t.is_constant()) {
        a.kind = ArgSlot::kConst;
        a.constant = t.constant();
        continue;
      }
      a.slot = SlotOf(t);
      if (bound_[a.slot]) {
        a.kind = ArgSlot::kBound;
        continue;
      }
      for (size_t j = 0; j < i; ++j) {
        if (args[j].kind == ArgSlot::kNew && args[j].slot == a.slot) {
          a.kind = ArgSlot::kRepeat;
        }
      }
    }
    return args;
  }

  void Prepare() {
    // Selection pushdown: variables equated to constants are bound from the
    // start, so index probes and OID lookups see them; the equality literal
    // itself then passes trivially.
    for (const Literal& lit : query_.body) {
      if (!lit.positive || !lit.atom.is_comparison() ||
          lit.atom.op() != CmpOp::kEq) {
        continue;
      }
      const Term& l = lit.atom.lhs();
      const Term& r = lit.atom.rhs();
      if (l.is_variable() == r.is_variable()) continue;
      const Term& var = l.is_variable() ? l : r;
      const size_t slot = SlotOf(var);
      if (bound_[slot]) continue;
      bound_[slot] = true;
      row_[slot] = (l.is_variable() ? r : l).constant();
    }
    steps_.resize(order_->size());
    bool accessed = false;
    for (size_t k = 0; k < order_->size(); ++k) {
      PlanStep& s = steps_[k];
      s.lit = &query_.body[(*order_)[k]];
      const Atom& atom = s.lit->atom;
      s.args = Resolve(atom);
      s.amortize = accessed;
      if (atom.is_comparison()) continue;
      s.sig = store_.schema().catalog.Find(atom.predicate());
      if (s.sig != nullptr && s.sig->arity() != atom.arity()) s.sig = nullptr;
      if (s.sig != nullptr) {
        s.rel = s.sig->id;
        if (s.sig->kind == RelationKind::kMethod) s.method = store_.Method(s.rel);
      }
      if (!s.lit->positive) continue;  // negation never binds
      if (s.sig != nullptr &&
          (s.sig->kind == RelationKind::kClass ||
           s.sig->kind == RelationKind::kStructure) &&
          s.args[0].kind == ArgSlot::kNew) {
        for (size_t j = k + 1; j < order_->size(); ++j) {
          if (const RelationSignature* guard = MembershipGuard(
                  query_, (*order_)[j], atom.args()[0].var_name(), store_)) {
            s.guards.emplace_back(j, guard->id);
            steps_[j].consumed = true;
          }
        }
      }
      for (const ArgSlot& a : s.args) {
        if (!IsBound(a)) bound_[a.slot] = true;
      }
      accessed = true;
    }
    head_.reserve(query_.head_args.size());
    for (size_t i = 0; i < query_.head_args.size(); ++i) {
      const Term& t = query_.head_args[i];
      ArgSlot a;
      if (t.is_constant()) {
        a.kind = ArgSlot::kConst;
        a.constant = t.constant();
      } else {
        a.slot = SlotOf(t);
        a.kind = bound_[a.slot] ? ArgSlot::kBound : ArgSlot::kNew;
      }
      if (!IsBound(a) && unbound_head_ < 0) unbound_head_ = static_cast<int>(i);
      head_.push_back(std::move(a));
    }
    // A slot is written only when something reads it later. A consumed
    // guard reads nothing: its scan tests the candidate's OID.
    std::vector<bool> read(vars_.size(), false);
    for (const PlanStep& s : steps_) {
      if (s.consumed) continue;
      for (const ArgSlot& a : s.args) {
        if (a.kind == ArgSlot::kBound || a.kind == ArgSlot::kRepeat) {
          read[a.slot] = true;
        }
      }
    }
    for (const ArgSlot& a : head_) {
      if (a.kind == ArgSlot::kBound) read[a.slot] = true;
    }
    for (PlanStep& s : steps_) {
      for (ArgSlot& a : s.args) {
        if (a.kind == ArgSlot::kNew) a.copy = read[a.slot];
      }
    }
  }

  const sqo::Value& ValueOf(const ArgSlot& a) const {
    return a.kind == ArgSlot::kConst ? a.constant : row_[a.slot];
  }

  /// Matches a candidate (a view of a store row or an OID pair) against a
  /// step's arguments in place: constants, bound and repeated variables
  /// compare (one comparison each, stopping at the first mismatch), new
  /// variables that something reads later copy into their slot.
  template <typename Candidate>
  bool Unify(const std::vector<ArgSlot>& args, const Candidate& cand) {
    for (size_t i = 0; i < args.size(); ++i) {
      const ArgSlot& a = args[i];
      if (a.kind == ArgSlot::kNew) {
        if (a.copy) row_[a.slot] = cand[i];
        continue;
      }
      ++stats_.comparisons;
      if (!ValueOf(a).Equals(cand[i])) return false;
    }
    return true;
  }

  /// Binds a candidate an amortized build already unified (and counted).
  template <typename Candidate>
  void Bind(const std::vector<ArgSlot>& args, const Candidate& cand) {
    for (size_t i = 0; i < args.size(); ++i) {
      if (args[i].kind == ArgSlot::kNew && args[i].copy) {
        row_[args[i].slot] = cand[i];
      }
    }
  }

  /// One profile node per plan position (relation pre-filled from the
  /// literal, operator labeled on first execution) plus the final emit
  /// node. The left-deep pipeline links up lazily: a node's parent is the
  /// node that first passed it a binding.
  void SetUpProfile() {
    profile_->nodes.clear();
    node_of_.assign(order_->size(), -1);
    for (size_t k = 0; k < order_->size(); ++k) {
      obs::ProfileNode node;
      node.id = static_cast<int>(profile_->nodes.size());
      node.literal_index = static_cast<int>((*order_)[k]);
      const Literal& lit = query_.body[(*order_)[k]];
      if (lit.atom.is_comparison()) {
        node.relation = lit.atom.ToString();
      } else {
        node.relation =
            (lit.positive ? "" : "¬") + lit.atom.predicate();
      }
      if (plan_ != nullptr && k < plan_->steps.size()) {
        node.detail = plan_->steps[k];
      }
      if (plan_ != nullptr && k < plan_->est_rows.size()) {
        node.est_rows = plan_->est_rows[k];
      }
      node_of_[k] = node.id;
      profile_->nodes.push_back(std::move(node));
    }
    obs::ProfileNode emit;
    emit.id = static_cast<int>(profile_->nodes.size());
    emit.op = "emit";
    emit.relation = options_.distinct ? "distinct" : "all";
    emit_node_ = emit.id;
    profile_->nodes.push_back(std::move(emit));
  }

  obs::ProfileNode* NodeFor(size_t k) {
    if (profile_ == nullptr) return nullptr;
    return &profile_->nodes[node_of_[k]];
  }

  /// Records one binding entering plan position `k` (and wires the node's
  /// parent on first arrival). Returns the node for timing/labeling.
  obs::ProfileNode* EnterNode(size_t k) {
    obs::ProfileNode* node = NodeFor(k);
    if (node != nullptr) {
      if (node->rows_in == 0 && node->parent < 0 && last_caller_ != node->id) {
        node->parent = last_caller_;
      }
      ++node->rows_in;
    }
    return node;
  }

  /// Position `k` passes the current binding downstream: count it as a
  /// row out and continue with the next plan position.
  sqo::Status Advance(size_t k) {
    if (obs::ProfileNode* node = NodeFor(k)) {
      ++node->rows_out;
      last_caller_ = node->id;
    }
    return Step(k + 1);
  }

  sqo::Status Step(size_t k) {
    // Every join step is a budget unit; the charge also polls the deadline
    // on a stride, so a pathological join order cannot run unbounded.
    if (ExecutionContext* governance = CurrentContext()) {
      SQO_RETURN_IF_ERROR(governance->ChargeEvalJoins());
    }
    if (k == steps_.size()) return Emit();
    PlanStep& s = steps_[k];
    if (s.consumed) return Step(k + 1);
    obs::ProfileNode* node = EnterNode(k);
    NodeTimer node_timer(node);
    const Atom& atom = s.lit->atom;
    if (atom.is_comparison()) return Filter(k, s, node);
    if (s.sig == nullptr) {
      return sqo::NotFoundError("unknown relation in query: " + atom.ToString());
    }
    if (!s.lit->positive) {
      if (Unlabeled(node)) Label(node, "anti-join", "¬" + s.sig->name);
      ++stats_.negation_checks;
      SQO_ASSIGN_OR_RETURN(bool exists, Exists(s));
      return exists ? sqo::Status::Ok() : Advance(k);
    }
    switch (s.sig->kind) {
      case RelationKind::kClass:
      case RelationKind::kStructure:
        return ClassStep(k, s, node);
      case RelationKind::kRelationship:
      case RelationKind::kAsr:
        return PairStep(k, s, node);
      case RelationKind::kMethod:
        return MethodStep(k, s, node);
    }
    return sqo::Status::Ok();
  }

  sqo::Status Filter(size_t k, const PlanStep& s, obs::ProfileNode* node) {
    const Atom& atom = s.lit->atom;
    if (Unlabeled(node)) Label(node, "filter", atom.ToString());
    if (!IsBound(s.args[0]) || !IsBound(s.args[1])) {
      return sqo::InvalidArgumentError("comparison over unbound variables: " +
                                       atom.ToString() + " (unsafe query)");
    }
    const sqo::Value& lhs = ValueOf(s.args[0]);
    const sqo::Value& rhs = ValueOf(s.args[1]);
    ++stats_.comparisons;
    bool pass;
    if (atom.op() == CmpOp::kEq || atom.op() == CmpOp::kNe) {
      pass = datalog::EvalCmp(atom.op(), lhs.Equals(rhs) ? 0 : 1);
    } else {
      auto cmp = lhs.Compare(rhs);
      if (!cmp.has_value()) {
        return sqo::InvalidArgumentError("unorderable comparison: " +
                                         atom.ToString());
      }
      pass = datalog::EvalCmp(atom.op(), *cmp);
    }
    return pass ? Advance(k) : sqo::Status::Ok();
  }

  /// Existence check for a negated atom: bound arguments must match,
  /// unbound ones are wildcards, except that a repeated unbound variable
  /// must take the same value at each occurrence. Never binds.
  sqo::Result<bool> Exists(const PlanStep& s) {
    const std::string& name = s.sig->name;
    const std::vector<ArgSlot>& args = s.args;
    switch (s.sig->kind) {
      case RelationKind::kClass:
      case RelationKind::kStructure: {
        if (IsBound(args[0])) {
          const sqo::Value& oid = ValueOf(args[0]);
          if (oid.kind() != sqo::ValueKind::kOid) return false;
          bool constrained = false;
          for (size_t i = 1; i < args.size(); ++i) {
            constrained |= args[i].kind != ArgSlot::kNew;
          }
          if (!constrained) {
            // Pure membership test: no object fetch needed.
            return store_.IsMember(s.rel, oid.AsOid());
          }
          const ObjectStore::RowView row = store_.RowAs(s.rel, oid.AsOid());
          if (row.empty()) return false;
          ++stats_.objects_fetched;
          return Unify(args, row);
        }
        ++stats_.extent_scans;
        for (sqo::Oid candidate : store_.Extent(s.rel)) {
          const ObjectStore::RowView row = store_.RowAs(s.rel, candidate);
          ++stats_.objects_fetched;
          if (Unify(args, row)) return true;
        }
        return false;
      }
      case RelationKind::kRelationship:
      case RelationKind::kAsr: {
        const bool src_bound = IsBound(args[0]);
        const bool dst_bound = IsBound(args[1]);
        if (src_bound && ValueOf(args[0]).kind() != sqo::ValueKind::kOid) {
          return false;
        }
        if (dst_bound && ValueOf(args[1]).kind() != sqo::ValueKind::kOid) {
          return false;
        }
        if (src_bound) {
          const auto& nbrs = store_.Neighbors(name, ValueOf(args[0]).AsOid());
          stats_.relationship_traversals += nbrs.size();
          if (!dst_bound) return !nbrs.empty();
          for (sqo::Oid n : nbrs) {
            if (n == ValueOf(args[1]).AsOid()) return true;
          }
          return false;
        }
        if (dst_bound) {
          const auto& nbrs =
              store_.ReverseNeighbors(name, ValueOf(args[1]).AsOid());
          stats_.relationship_traversals += nbrs.size();
          return !nbrs.empty();
        }
        if (args[1].kind != ArgSlot::kRepeat) {
          return store_.PairCount(name) > 0;
        }
        // not r(Y, Y): only a pair from an object to itself matches.
        const auto& pairs = store_.Pairs(name);
        stats_.relationship_traversals += pairs.size();
        for (const auto& [src, dst] : pairs) {
          if (Unify(args, OidPair(src, dst))) return true;
        }
        return false;
      }
      case RelationKind::kMethod: {
        if (!IsBound(args[0]) ||
            ValueOf(args[0]).kind() != sqo::ValueKind::kOid) {
          return sqo::UnsupportedError(
              "negated method atom requires a bound receiver");
        }
        std::vector<sqo::Value> inputs;
        if (!MethodInputs(s, &inputs)) {
          return sqo::UnsupportedError(
              "negated method atom requires bound arguments");
        }
        ++stats_.method_invocations;
        SQO_ASSIGN_OR_RETURN(sqo::Value result,
                             Invoke(s, ValueOf(args[0]).AsOid(), inputs));
        if (!IsBound(args.back())) return true;  // some result always exists
        ++stats_.comparisons;
        return ValueOf(args.back()).Equals(result);
      }
    }
    return false;
  }

  bool PassesGuards(const PlanStep& s, sqo::Oid oid) {
    for (const auto& [pos, rel] : s.guards) {
      ++stats_.negation_checks;
      obs::ProfileNode* guard_node = NodeFor(pos);
      if (guard_node != nullptr) ++guard_node->rows_in;
      if (store_.IsMember(rel, oid)) return false;
      if (guard_node != nullptr) ++guard_node->rows_out;
    }
    return true;
  }

  /// Joins every candidate OID that passes the step's guards and unifies.
  sqo::Status Probe(size_t k, const PlanStep& s,
                    const std::vector<sqo::Oid>& oids) {
    for (sqo::Oid candidate : oids) {
      if (!PassesGuards(s, candidate)) continue;
      const ObjectStore::RowView row = store_.RowAs(s.rel, candidate);
      ++stats_.objects_fetched;
      if (Unify(s.args, row)) SQO_RETURN_IF_ERROR(Advance(k));
    }
    return sqo::Status::Ok();
  }

  /// Picks a class step's access path on its first binding: an explicit
  /// index on the first bound indexed attribute, else the adaptive index
  /// (when the store serves one), else a hash join on the first bound
  /// attribute, else a scan. Steps at or before the plan's first relation
  /// access see at most one binding, so they scan instead of building.
  void ResolveAccess(PlanStep& s, obs::ProfileNode* node) {
    // Guards report under the scan that consumes them, not in the
    // pipeline chain.
    for (const auto& [pos, rel] : s.guards) {
      if (obs::ProfileNode* guard_node = NodeFor(pos); Unlabeled(guard_node)) {
        guard_node->op = "guard";
        guard_node->parent = node != nullptr ? node->id : -1;
      }
    }
    const RelationSignature& sig = *s.sig;
    auto settle = [&](Access access, size_t attr, const char* op,
                      bool index_used) {
      s.access = access;
      s.attr = attr;
      if (Unlabeled(node)) {
        Label(node, op, sig.name + "." + sig.attributes[attr], index_used);
      }
    };
    for (size_t i = 1; i < s.args.size(); ++i) {
      if (IsBound(s.args[i]) && store_.HasIndex(sig.name, i)) {
        return settle(Access::kIndex, i, "index-probe", true);
      }
    }
    // Adaptive index: an equality-bound attribute with no explicit index
    // probes the store's persistent secondary index (built on first use,
    // delta-maintained on writes) unless the extent is under threshold.
    for (size_t i = 1; options_.auto_index && i < s.args.size(); ++i) {
      if (!IsBound(s.args[i])) continue;
      bool indexed = false;
      store_.LazyIndexLookup(s.rel, i, ValueOf(s.args[i]),
                             options_.auto_index_min_extent, &indexed);
      if (indexed) return settle(Access::kLazyIndex, i, "lazy-index-probe", true);
    }
    for (size_t i = 1; s.amortize && i < s.args.size(); ++i) {
      if (IsBound(s.args[i])) {
        return settle(Access::kHashJoin, i, "hash-join", false);
      }
    }
    bool keyed = false;
    for (size_t i = 1; i < s.args.size(); ++i) keyed |= IsBound(s.args[i]);
    s.access = s.amortize && !keyed ? Access::kSharedScan : Access::kScan;
    if (Unlabeled(node)) Label(node, "extent-scan", sig.name);
  }

  /// Positive class/structure atom. `objects_fetched` stays the logical
  /// per-binding count on every path (an amortized build charges its
  /// fetches to each binding that uses it), so SQO before/after
  /// comparisons do not depend on the access path; `extent_scans` counts
  /// physical scans and so records the amortization.
  sqo::Status ClassStep(size_t k, PlanStep& s, obs::ProfileNode* node) {
    if (IsBound(s.args[0])) {
      if (Unlabeled(node)) Label(node, "oid-lookup", s.sig->name);
      const sqo::Value& oid = ValueOf(s.args[0]);
      if (oid.kind() != sqo::ValueKind::kOid) return sqo::Status::Ok();
      const ObjectStore::RowView row = store_.RowAs(s.rel, oid.AsOid());
      if (row.empty()) return sqo::Status::Ok();
      ++stats_.objects_fetched;
      return Unify(s.args, row) ? Advance(k) : sqo::Status::Ok();
    }
    if (s.access == Access::kUnresolved) ResolveAccess(s, node);
    switch (s.access) {
      case Access::kUnresolved:
        break;
      case Access::kIndex:
      case Access::kLazyIndex: {
        ++stats_.index_probes;
        obs::Count("index.probes");
        const sqo::Value& key = ValueOf(s.args[s.attr]);
        bool indexed = false;
        const std::vector<sqo::Oid>* oids =
            s.access == Access::kIndex
                ? store_.IndexLookup(s.rel, s.attr, key)
                : store_.LazyIndexLookup(s.rel, s.attr, key,
                                         options_.auto_index_min_extent,
                                         &indexed);
        return oids != nullptr ? Probe(k, s, *oids) : sqo::Status::Ok();
      }
      case Access::kScan:
        SQO_FAILPOINT("eval.scan");
        ++stats_.extent_scans;
        return Probe(k, s, store_.Extent(s.rel));
      case Access::kHashJoin: {
        if (!s.built) {
          SQO_FAILPOINT("eval.scan");
          ++stats_.extent_scans;
          for (sqo::Oid candidate : store_.Extent(s.rel)) {
            if (!PassesGuards(s, candidate)) continue;
            const ObjectStore::RowView row = store_.RowAs(s.rel, candidate);
            ++s.build_fetched;
            s.table[row[s.attr]].push_back(row);
          }
          s.built = true;
        }
        stats_.objects_fetched += s.build_fetched;
        auto it = s.table.find(ValueOf(s.args[s.attr]));
        if (it == s.table.end()) return sqo::Status::Ok();
        for (const ObjectStore::RowView& cand : it->second) {
          if (Unify(s.args, cand)) SQO_RETURN_IF_ERROR(Advance(k));
        }
        return sqo::Status::Ok();
      }
      case Access::kSharedScan: {
        if (!s.built) {
          SQO_FAILPOINT("eval.scan");
          ++stats_.extent_scans;
          for (sqo::Oid candidate : store_.Extent(s.rel)) {
            if (!PassesGuards(s, candidate)) continue;
            const ObjectStore::RowView row = store_.RowAs(s.rel, candidate);
            ++s.build_fetched;
            if (Unify(s.args, row)) s.rows.push_back(row);
          }
          s.built = true;
        }
        stats_.objects_fetched += s.build_fetched;
        for (const ObjectStore::RowView& cand : s.rows) {
          Bind(s.args, cand);
          SQO_RETURN_IF_ERROR(Advance(k));
        }
        return sqo::Status::Ok();
      }
    }
    return sqo::Status::Ok();
  }

  /// Relationship/ASR atom. A pair scan (neither end bound) keeps the
  /// pairs that unify when its first binding arrives — a copy of at most
  /// the pair list, cheap enough that even the first relation access
  /// builds it — and charges the whole pair set to every binding, like an
  /// extent scan's fetches.
  sqo::Status PairStep(size_t k, PlanStep& s, obs::ProfileNode* node) {
    const std::string& name = s.sig->name;
    const bool src_bound = IsBound(s.args[0]);
    const bool dst_bound = IsBound(s.args[1]);
    if (src_bound && ValueOf(s.args[0]).kind() != sqo::ValueKind::kOid) {
      return sqo::Status::Ok();
    }
    if (dst_bound && ValueOf(s.args[1]).kind() != sqo::ValueKind::kOid) {
      return sqo::Status::Ok();
    }
    if (src_bound) {
      if (Unlabeled(node)) Label(node, "traverse", name);
      const sqo::Oid src = ValueOf(s.args[0]).AsOid();
      const auto& nbrs = store_.Neighbors(name, src);
      stats_.relationship_traversals += nbrs.size();
      for (sqo::Oid n : nbrs) {
        if (Unify(s.args, OidPair(src, n))) SQO_RETURN_IF_ERROR(Advance(k));
      }
      return sqo::Status::Ok();
    }
    if (dst_bound) {
      if (Unlabeled(node)) Label(node, "reverse-traverse", name);
      const sqo::Oid dst = ValueOf(s.args[1]).AsOid();
      const auto& nbrs = store_.ReverseNeighbors(name, dst);
      stats_.relationship_traversals += nbrs.size();
      for (sqo::Oid n : nbrs) {
        if (Unify(s.args, OidPair(n, dst))) SQO_RETURN_IF_ERROR(Advance(k));
      }
      return sqo::Status::Ok();
    }
    if (Unlabeled(node)) Label(node, "pair-scan", name);
    const auto& pairs = store_.Pairs(name);
    stats_.relationship_traversals += pairs.size();
    if (!s.built) {
      for (const auto& pair : pairs) {
        if (Unify(s.args, OidPair(pair.first, pair.second))) {
          s.pairs.push_back(pair);
        }
      }
      s.built = true;
    }
    for (const auto& [src, dst] : s.pairs) {
      Bind(s.args, OidPair(src, dst));
      SQO_RETURN_IF_ERROR(Advance(k));
    }
    return sqo::Status::Ok();
  }

  /// Collects a method atom's argument values (between receiver and
  /// result); false when one is unbound.
  bool MethodInputs(const PlanStep& s, std::vector<sqo::Value>* inputs) const {
    for (size_t i = 1; i + 1 < s.args.size(); ++i) {
      if (!IsBound(s.args[i])) return false;
      inputs->push_back(ValueOf(s.args[i]));
    }
    return true;
  }

  /// Calls the method the step resolved in Prepare.
  sqo::Result<sqo::Value> Invoke(const PlanStep& s, sqo::Oid receiver,
                                 const std::vector<sqo::Value>& inputs) const {
    if (s.method == nullptr) {
      return sqo::NotFoundError("method '" + s.sig->name +
                                "' has no implementation");
    }
    return (*s.method)(store_, receiver, inputs);
  }

  sqo::Status MethodStep(size_t k, const PlanStep& s, obs::ProfileNode* node) {
    const Atom& atom = s.lit->atom;
    if (Unlabeled(node)) Label(node, "invoke", s.sig->name);
    if (!IsBound(s.args[0])) {
      return sqo::InvalidArgumentError("method atom with unbound receiver: " +
                                       atom.ToString());
    }
    const sqo::Value& receiver = ValueOf(s.args[0]);
    if (receiver.kind() != sqo::ValueKind::kOid) return sqo::Status::Ok();
    std::vector<sqo::Value> inputs;
    if (!MethodInputs(s, &inputs)) {
      return sqo::InvalidArgumentError("method atom with unbound argument: " +
                                       atom.ToString());
    }
    ++stats_.method_invocations;
    SQO_ASSIGN_OR_RETURN(sqo::Value result, Invoke(s, receiver.AsOid(), inputs));
    const ArgSlot& out = s.args.back();
    if (IsBound(out)) {
      ++stats_.comparisons;
      return ValueOf(out).Equals(result) ? Advance(k) : sqo::Status::Ok();
    }
    row_[out.slot] = std::move(result);
    return Advance(k);
  }

  sqo::Status Emit() {
    obs::ProfileNode* emit = nullptr;
    if (profile_ != nullptr && emit_node_ >= 0) {
      emit = &profile_->nodes[emit_node_];
      if (emit->rows_in == 0 && emit->parent < 0) emit->parent = last_caller_;
      ++emit->rows_in;
    }
    NodeTimer emit_timer(emit);
    if (ExecutionContext* governance = CurrentContext()) {
      SQO_RETURN_IF_ERROR(governance->ChargeEvalRows());
    }
    if (unbound_head_ >= 0) {
      return sqo::InvalidArgumentError("projected variable never bound: " +
                                       query_.head_args[unbound_head_].ToString());
    }
    ++stats_.tuples_emitted;
    if (options_.max_tuples != 0 && stats_.tuples_emitted > options_.max_tuples) {
      return sqo::ResourceExhaustedError("result limit exceeded");
    }
    // The tuple is built once, in place; a duplicate is taken back out.
    std::vector<sqo::Value>& tuple = out_->emplace_back();
    tuple.reserve(head_.size());
    for (const ArgSlot& a : head_) tuple.push_back(ValueOf(a));
    if (options_.distinct && !dedup_.insert(out_->size() - 1).second) {
      out_->pop_back();
      return sqo::Status::Ok();
    }
    ++stats_.results;
    if (emit != nullptr) ++emit->rows_out;
    return sqo::Status::Ok();
  }

  const ObjectStore& store_;
  const Query& query_;
  const EvalOptions& options_;
  obs::EvalStats& stats_;
  const std::vector<size_t>* order_ = nullptr;
  Rows* out_ = nullptr;
  /// DISTINCT: positions in `out_` of the rows kept so far.
  using Dedup = std::unordered_set<size_t, RowAtHash, RowAtEq>;
  Dedup dedup_{0, RowAtHash{nullptr}, RowAtEq{nullptr}};

  // The binding row: slot i holds variable vars_[i]; bound_ tracks, during
  // Prepare, which slots are bound at the position being resolved.
  std::vector<Symbol> vars_;
  std::vector<sqo::Value> row_;
  std::vector<bool> bound_;
  std::vector<PlanStep> steps_;
  std::vector<ArgSlot> head_;
  int unbound_head_ = -1;  // first head argument no step binds, if any

  // EXPLAIN ANALYZE state (all inert when profile_ is null).
  obs::QueryProfile* profile_;
  const Plan* plan_;
  std::vector<int> node_of_;  // plan position -> profile node index
  int emit_node_ = -1;
  int last_caller_ = -1;  // node that last passed a binding downstream
};

}  // namespace

sqo::Result<std::vector<std::vector<sqo::Value>>> Evaluator::Evaluate(
    const Query& query, obs::EvalStats* stats, const std::vector<size_t>* order,
    obs::QueryProfile* profile) const {
  obs::Span span("eval.evaluate");
  obs::ScopedTimer timer("eval.evaluate");
  SQO_FAILPOINT("eval.evaluate");
  SQO_RETURN_IF_ERROR(CheckGovernance("eval.evaluate"));
  const auto profile_start = std::chrono::steady_clock::now();
  // Work into a local so only *this* evaluation's counters reach the
  // metrics registry even when the caller accumulates into `stats`.
  obs::EvalStats local;
  Plan plan;
  const Plan* plan_ptr = nullptr;
  std::vector<size_t> plan_order;
  if (order != nullptr) {
    plan_order = *order;
  } else {
    plan = PlanQuery(query, *store_);
    plan_order = plan.order;
    plan_ptr = &plan;
  }
  if (plan_order.size() != query.body.size()) {
    return sqo::InvalidArgumentError("evaluation order size mismatch");
  }
  // Finalizes the profile on every exit path so error returns still carry
  // whatever the execution recorded.
  auto finalize_profile = [&]() {
    if (profile == nullptr) return;
    profile->total_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - profile_start)
                            .count();
    if (plan_ptr != nullptr) {
      profile->planned_cost = plan_ptr->cost;
      profile->planned_rows = plan_ptr->cardinality;
    }
    profile->stats = local;
    profile->FinalizeSelfTimes();
  };
  std::vector<std::vector<sqo::Value>> out;
  {
    obs::Span exec_span("eval.execute");
    Execution exec(*store_, query, options_, local, profile, plan_ptr);
    sqo::Status status = exec.Run(plan_order, &out);
    exec_span.Tag("rows", static_cast<uint64_t>(out.size()));
    if (!status.ok()) {
      if (stats != nullptr) *stats += local;
      finalize_profile();
      return status;
    }
  }
  span.Tag("rows", static_cast<uint64_t>(out.size()));
  if (stats != nullptr) *stats += local;
  finalize_profile();
  // The registry absorbs the per-evaluation counters alongside the
  // optimizer-side metrics.
  local.ExportTo(obs::CurrentMetrics());
  return out;
}

}  // namespace sqo::engine
