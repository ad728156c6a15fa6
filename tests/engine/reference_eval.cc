#include "reference_eval.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <unordered_set>
#include <utility>

namespace sqo::engine {
namespace {

using datalog::Atom;
using datalog::Literal;
using datalog::RelationKind;
using datalog::RelationSignature;
using datalog::Term;
using Row = std::vector<sqo::Value>;

struct RowHash {
  size_t operator()(const Row& row) const {
    size_t h = 0;
    for (const sqo::Value& v : row) h = h * 31 + v.Hash();
    return h;
  }
};

class Reference {
 public:
  Reference(const ObjectStore& store, const datalog::Query& query,
            bool distinct, std::vector<Row>* out)
      : store_(store), query_(query), distinct_(distinct), out_(out),
        done_(query.body.size(), false) {}

  /// Binds the positive relation atoms in textual order, checking every
  /// other literal as soon as it is ready; emits one row per binding.
  sqo::Status Search() {
    for (size_t j = 0; j < query_.body.size(); ++j) {
      if (done_[j] || !IsCheck(query_.body[j]) || !Ready(j)) continue;
      done_[j] = true;
      sqo::Status status = Check(j);
      done_[j] = false;
      return status;
    }
    for (size_t j = 0; j < query_.body.size(); ++j) {
      if (done_[j] || IsCheck(query_.body[j])) continue;
      SQO_ASSIGN_OR_RETURN(const std::vector<Row>* tuples,
                           Tuples(query_.body[j].atom));
      done_[j] = true;
      std::vector<std::string> trail;
      for (const Row& tuple : *tuples) {
        if (Match(query_.body[j].atom, tuple, &trail)) {
          SQO_RETURN_IF_ERROR(Search());
        }
        Undo(&trail);
      }
      done_[j] = false;
      return sqo::Status::Ok();
    }
    for (size_t j = 0; j < query_.body.size(); ++j) {
      if (!done_[j]) {
        return sqo::InvalidArgumentError("literal never ready (unsafe query): " +
                                         query_.body[j].ToString());
      }
    }
    Row row;
    for (const Term& t : query_.head_args) {
      const sqo::Value* v = Lookup(t);
      if (v == nullptr) {
        return sqo::InvalidArgumentError("projected variable never bound: " +
                                         t.ToString());
      }
      row.push_back(*v);
    }
    if (!distinct_ || seen_.insert(row).second) out_->push_back(std::move(row));
    return sqo::Status::Ok();
  }

 private:
  const sqo::Value* Lookup(const Term& t) const {
    if (t.is_constant()) return &t.constant();
    auto it = env_.find(t.var_name());
    return it == env_.end() ? nullptr : &it->second;
  }

  void Bind(const Term& var, const sqo::Value& value,
            std::vector<std::string>* trail) {
    env_.emplace(var.var_name(), value);
    trail->push_back(var.var_name());
  }

  void Undo(std::vector<std::string>* trail) {
    for (const std::string& var : *trail) env_.erase(var);
    trail->clear();
  }

  /// Unifies `atom` with `tuple`, binding unbound variables (recorded in
  /// `trail`); false on the first mismatch.
  bool Match(const Atom& atom, const Row& tuple,
             std::vector<std::string>* trail) {
    for (size_t i = 0; i < atom.arity(); ++i) {
      if (const sqo::Value* v = Lookup(atom.args()[i])) {
        if (!v->Equals(tuple[i])) return false;
      } else {
        Bind(atom.args()[i], tuple[i], trail);
      }
    }
    return true;
  }

  const RelationSignature* Signature(const Atom& atom) const {
    const RelationSignature* sig = store_.schema().catalog.Find(atom.predicate());
    return sig != nullptr && sig->arity() == atom.arity() ? sig : nullptr;
  }

  /// Comparisons, negations and method atoms are checked, not enumerated.
  bool IsCheck(const Literal& lit) const {
    if (lit.atom.is_comparison() || !lit.positive) return true;
    const RelationSignature* sig = Signature(lit.atom);
    return sig != nullptr && sig->kind == RelationKind::kMethod;
  }

  /// Every tuple of a class, structure, relationship or ASR relation.
  sqo::Result<const std::vector<Row>*> Tuples(const Atom& atom) {
    const RelationSignature* sig = Signature(atom);
    if (sig == nullptr || sig->kind == RelationKind::kMethod) {
      return sqo::NotFoundError("unknown relation in query: " + atom.ToString());
    }
    auto [it, fresh] = tuples_.try_emplace(sig->name);
    std::vector<Row>& rows = it->second;
    if (!fresh) return &rows;
    auto pair_row = [](uint64_t src, uint64_t dst) {
      return Row{sqo::Value::FromOid(sqo::Oid(src)),
                 sqo::Value::FromOid(sqo::Oid(dst))};
    };
    if (sig->kind == RelationKind::kClass ||
        sig->kind == RelationKind::kStructure) {
      for (sqo::Oid oid : store_.Extent(sig->name)) {
        const ObjectStore::RowView row = store_.RowAs(sig->name, oid);
        rows.emplace_back(row.begin(), row.end());
      }
    } else if (sig->kind == RelationKind::kRelationship) {
      for (const auto& [src, dst] : store_.Pairs(sig->name)) {
        rows.push_back(pair_row(src.raw(), dst.raw()));
      }
    } else {
      // An ASR: compose the relationships of its path hop by hop.
      for (const ObjectStore::AsrState& asr : store_.AsrStates()) {
        if (asr.name != sig->name) continue;
        std::set<std::pair<uint64_t, uint64_t>> reach;
        for (const auto& [src, dst] : store_.Pairs(asr.path.front())) {
          reach.emplace(src.raw(), dst.raw());
        }
        for (size_t hop = 1; hop < asr.path.size(); ++hop) {
          std::set<std::pair<uint64_t, uint64_t>> next;
          for (const auto& [mid, dst] : store_.Pairs(asr.path[hop])) {
            for (const auto& [src, end] : reach) {
              if (end == mid.raw()) next.emplace(src, dst.raw());
            }
          }
          reach = std::move(next);
        }
        for (const auto& [src, dst] : reach) rows.push_back(pair_row(src, dst));
      }
    }
    return &rows;
  }

  /// True when `var` occurs in the head or in a body literal other than
  /// `j`: a negated literal's other variables are existential wildcards.
  bool SharedOutside(const std::string& var, size_t j) const {
    auto mentions = [&](const std::vector<Term>& terms) {
      return std::any_of(terms.begin(), terms.end(), [&](const Term& t) {
        return t.is_variable() && t.var_name() == var;
      });
    };
    if (mentions(query_.head_args)) return true;
    for (size_t i = 0; i < query_.body.size(); ++i) {
      if (i != j && mentions(query_.body[i].atom.args())) return true;
    }
    return false;
  }

  /// Whether check literal `j` can run: a comparison needs both sides (or
  /// is `X = c`, which binds X), a method its receiver and inputs, a
  /// negation every variable it shares with the rest of the query.
  bool Ready(size_t j) const {
    const Literal& lit = query_.body[j];
    const Atom& atom = lit.atom;
    if (atom.is_comparison()) {
      const bool l = Lookup(atom.lhs()) != nullptr;
      const bool r = Lookup(atom.rhs()) != nullptr;
      return (l && r) || (atom.op() == datalog::CmpOp::kEq &&
                          (atom.lhs().is_constant() || atom.rhs().is_constant()));
    }
    const RelationSignature* sig = Signature(atom);
    const bool method = sig != nullptr && sig->kind == RelationKind::kMethod;
    for (size_t i = 0; i < atom.arity(); ++i) {
      const Term& t = atom.args()[i];
      if (Lookup(t) != nullptr) continue;
      const bool wildcard = !lit.positive && !SharedOutside(t.var_name(), j);
      const bool result = method && i + 1 == atom.arity();
      if (method ? result && (lit.positive || wildcard) : wildcard) continue;
      return false;
    }
    return true;
  }

  sqo::Status CheckComparison(const Atom& atom) {
    const sqo::Value* l = Lookup(atom.lhs());
    const sqo::Value* r = Lookup(atom.rhs());
    if (l == nullptr || r == nullptr) {  // X = c binds X
      std::vector<std::string> trail;
      Bind(l == nullptr ? atom.lhs() : atom.rhs(), l == nullptr ? *r : *l,
           &trail);
      sqo::Status status = Search();
      Undo(&trail);
      return status;
    }
    int cmp = l->Equals(*r) ? 0 : 1;
    if (atom.op() != datalog::CmpOp::kEq && atom.op() != datalog::CmpOp::kNe) {
      std::optional<int> order = l->Compare(*r);
      if (!order.has_value()) {
        return sqo::InvalidArgumentError("unorderable comparison: " +
                                         atom.ToString());
      }
      cmp = *order;
    }
    return datalog::EvalCmp(atom.op(), cmp) ? Search() : sqo::Status::Ok();
  }

  /// Checks literal `j` and, when it holds, continues the search.
  sqo::Status Check(size_t j) {
    const Literal& lit = query_.body[j];
    const Atom& atom = lit.atom;
    if (atom.is_comparison()) return CheckComparison(atom);
    const RelationSignature* sig = Signature(atom);
    std::vector<std::string> trail;
    bool holds = false;
    if (sig != nullptr && sig->kind == RelationKind::kMethod) {
      const sqo::Value* receiver = Lookup(atom.args()[0]);
      if (receiver->kind() == sqo::ValueKind::kOid) {
        std::vector<sqo::Value> inputs;
        for (size_t i = 1; i + 1 < atom.arity(); ++i) {
          inputs.push_back(*Lookup(atom.args()[i]));
        }
        SQO_ASSIGN_OR_RETURN(
            sqo::Value result,
            store_.InvokeMethod(sig->name, receiver->AsOid(), inputs));
        const sqo::Value* expected = Lookup(atom.args().back());
        holds = expected == nullptr || expected->Equals(result);
        if (expected == nullptr && lit.positive) {
          Bind(atom.args().back(), result, &trail);
        }
      }
    } else {
      SQO_ASSIGN_OR_RETURN(const std::vector<Row>* tuples, Tuples(atom));
      for (const Row& tuple : *tuples) {
        holds = Match(atom, tuple, &trail);
        Undo(&trail);
        if (holds) break;
      }
    }
    sqo::Status status = holds == lit.positive ? Search() : sqo::Status::Ok();
    Undo(&trail);
    return status;
  }

  const ObjectStore& store_;
  const datalog::Query& query_;
  const bool distinct_;
  std::vector<Row>* out_;
  std::vector<bool> done_;
  std::map<std::string, sqo::Value> env_;
  std::map<std::string, std::vector<Row>> tuples_;
  std::unordered_set<Row, RowHash> seen_;
};

}  // namespace

sqo::Result<std::vector<std::vector<sqo::Value>>> ReferenceEvaluate(
    const ObjectStore& store, const datalog::Query& query, bool distinct) {
  std::vector<Row> rows;
  SQO_RETURN_IF_ERROR(Reference(store, query, distinct, &rows).Search());
  return rows;
}

std::vector<std::string> SortedBag(
    const std::vector<std::vector<sqo::Value>>& rows) {
  std::vector<std::string> rendered;
  rendered.reserve(rows.size());
  for (const auto& row : rows) {
    std::string s;
    for (const sqo::Value& v : row) s += v.ToString() + "|";
    rendered.push_back(std::move(s));
  }
  std::sort(rendered.begin(), rendered.end());
  return rendered;
}

}  // namespace sqo::engine
