#include "datalog/clause.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "common/strings.h"

namespace sqo::datalog {

namespace {

void CollectLiteralVars(const Literal& lit, std::vector<std::string>* out) {
  lit.atom.CollectVariables(out);
}

Term RenameTerm(const Term& t, std::map<std::string, Term>* renaming,
                FreshVarGen* gen) {
  if (!t.is_variable()) return t;
  auto it = renaming->find(t.var_name());
  if (it == renaming->end()) {
    it = renaming->emplace(t.var_name(), gen->NextVar()).first;
  }
  return it->second;
}

Atom RenameAtom(const Atom& a, std::map<std::string, Term>* renaming,
                FreshVarGen* gen) {
  std::vector<Term> args;
  args.reserve(a.arity());
  for (const Term& t : a.args()) args.push_back(RenameTerm(t, renaming, gen));
  if (a.is_comparison()) {
    return Atom::Comparison(a.op(), std::move(args[0]), std::move(args[1]));
  }
  return Atom::Pred(a.predicate_symbol(), std::move(args));
}

}  // namespace

std::vector<std::string> Clause::Variables() const {
  std::vector<std::string> out;
  if (head.has_value()) CollectLiteralVars(*head, &out);
  for (const Literal& lit : body) CollectLiteralVars(lit, &out);
  return out;
}

std::set<std::string> Clause::VariableSet() const {
  auto vars = Variables();
  return std::set<std::string>(vars.begin(), vars.end());
}

Clause Clause::RenamedApart(FreshVarGen* gen) const {
  std::map<std::string, Term> renaming;
  Clause out;
  out.label = label;
  if (head.has_value()) {
    out.head = Literal(head->positive, RenameAtom(head->atom, &renaming, gen));
  }
  out.body.reserve(body.size());
  for (const Literal& lit : body) {
    out.body.push_back(Literal(lit.positive, RenameAtom(lit.atom, &renaming, gen)));
  }
  return out;
}

Clause Clause::Substituted(const Substitution& subst) const {
  Clause out;
  out.label = label;
  if (head.has_value()) out.head = subst.ApplyToLiteral(*head);
  out.body.reserve(body.size());
  for (const Literal& lit : body) out.body.push_back(subst.ApplyToLiteral(lit));
  return out;
}

std::string Clause::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(body.size());
  for (const Literal& lit : body) parts.push_back(lit.ToString());
  std::string head_str = head.has_value() ? head->ToString() : "false";
  if (body.empty()) return head_str + ".";
  return head_str + " <- " + StrJoin(parts, ", ") + ".";
}

std::vector<std::string> Query::Variables() const {
  std::vector<std::string> out;
  for (const Term& t : head_args) {
    if (t.is_variable() &&
        std::find(out.begin(), out.end(), t.var_name()) == out.end()) {
      out.push_back(t.var_name());
    }
  }
  for (const Literal& lit : body) CollectLiteralVars(lit, &out);
  return out;
}

std::set<std::string> Query::VariableSet() const {
  auto vars = Variables();
  return std::set<std::string>(vars.begin(), vars.end());
}

std::vector<Atom> Query::Comparisons() const {
  std::vector<Atom> out;
  for (const Literal& lit : body) {
    if (lit.positive && lit.atom.is_comparison()) out.push_back(lit.atom);
  }
  return out;
}

Query Query::Substituted(const Substitution& subst) const {
  Query out;
  out.name = name;
  out.head_args.reserve(head_args.size());
  for (const Term& t : head_args) out.head_args.push_back(subst.Apply(t));
  out.body.reserve(body.size());
  for (const Literal& lit : body) out.body.push_back(subst.ApplyToLiteral(lit));
  return out;
}

std::string Query::ToString() const {
  std::vector<std::string> args;
  args.reserve(head_args.size());
  for (const Term& t : head_args) args.push_back(t.ToString());
  std::vector<std::string> lits;
  lits.reserve(body.size());
  for (const Literal& lit : body) lits.push_back(lit.ToString());
  return name + "(" + StrJoin(args, ", ") + ") :- " + StrJoin(lits, ", ") + ".";
}

sqo::Fingerprint128 Query::CanonicalFingerprint() const {
  constexpr uint64_t kFnv = 1099511628211ull;
  constexpr uint64_t kVarShapeTag = 0x5611aa17ull;
  constexpr uint64_t kCmpTag = 0xc011aa50ull;

  // `=` and `!=` are symmetric, so their two operands are taken in sorted
  // order (for the shape and for the rendering alike): `Z = W` and `W = Z`
  // are one canonical literal. The other operators keep their operand
  // order — `X < Y` and `Y < X` differ.
  auto symmetric = [](const Literal& lit) {
    return lit.atom.is_comparison() &&
           (lit.atom.op() == CmpOp::kEq || lit.atom.op() == CmpOp::kNe);
  };
  auto fold_args = [&](const Literal& lit, const auto& render,
                       const auto& append) {
    const std::vector<Term>& args = lit.atom.args();
    if (symmetric(lit)) {
      const uint64_t lhs = render(args[0]);
      const uint64_t rhs = render(args[1]);
      append(std::min(lhs, rhs));
      append(std::max(lhs, rhs));
      return;
    }
    for (const Term& t : args) append(render(t));
  };

  // Pass 1: order body literals by a name-blind shape hash. Literals with
  // equal shapes keep their relative body order (stable sort).
  auto shape_hash = [&](const Literal& lit) {
    uint64_t h = lit.positive ? 0x2b : 0x2d;
    if (lit.atom.is_comparison()) {
      h = h * kFnv + kCmpTag;
      h = h * kFnv + static_cast<uint64_t>(lit.atom.op());
    } else {
      h = h * kFnv + lit.atom.predicate_symbol().hash();
      h = h * kFnv + lit.atom.arity();
    }
    fold_args(
        lit,
        [&](const Term& t) {
          return t.is_variable() ? kVarShapeTag
                                 : sqo::Mix64(t.constant().Hash());
        },
        [&](uint64_t a) { h = h * kFnv + a; });
    return h;
  };
  std::vector<size_t> order(body.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<uint64_t> shapes;
  shapes.reserve(body.size());
  for (const Literal& lit : body) shapes.push_back(shape_hash(lit));
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return shapes[a] < shapes[b]; });

  // Pass 2: canonical numbering by first occurrence over the head, then the
  // ordered predicate literals, then the ordered comparisons; each variable
  // renders as its dense canonical index. Numbering the predicate literals
  // first means the way round a comparison is written does not decide which
  // of its variables is numbered first.
  std::unordered_map<Symbol, uint64_t, SymbolHash> canon;
  auto render_term = [&](const Term& t) -> uint64_t {
    if (!t.is_variable()) return sqo::Mix64(t.constant().Hash()) | 1;
    auto it = canon.find(t.var_symbol());
    if (it == canon.end()) {
      it = canon.emplace(t.var_symbol(), canon.size()).first;
    }
    return it->second << 1;  // even = variable index, odd = constant
  };
  // Per-literal fingerprints are themselves 128-bit so that the final
  // sorted fold never funnels two distinct literals through one 64-bit
  // value (which would defeat the two independent lanes).
  auto render_literal = [&](const Literal& lit) {
    FingerprintBuilder b;
    b.Append(lit.positive ? 0x2b : 0x2d);
    if (lit.atom.is_comparison()) {
      b.Append(kCmpTag + static_cast<uint64_t>(lit.atom.op()));
    } else {
      b.Append(lit.atom.predicate_symbol().hash());
    }
    fold_args(lit, render_term, [&](uint64_t a) { b.Append(a); });
    return b.fingerprint();
  };

  FingerprintBuilder fb;
  fb.Append(head_args.size());
  for (const Term& t : head_args) fb.Append(render_term(t));
  std::vector<sqo::Fingerprint128> rendered;
  rendered.reserve(body.size());
  for (bool comparisons : {false, true}) {
    for (size_t idx : order) {
      if (body[idx].atom.is_comparison() == comparisons) {
        rendered.push_back(render_literal(body[idx]));
      }
    }
  }
  // Sort after numbering so literals whose shapes tie fold in one order.
  std::sort(rendered.begin(), rendered.end());
  for (const sqo::Fingerprint128& f : rendered) {
    fb.Append(f.lo);
    fb.Append(f.hi);
  }
  return fb.fingerprint();
}

size_t Query::Hash() const {
  size_t h = std::hash<std::string>()(name);
  for (const Term& t : head_args) h = h * 1099511628211ull + t.Hash();
  h = h * 1099511628211ull + 0x5eb;  // separator: head args vs body
  for (const Literal& lit : body) h = h * 1099511628211ull + lit.Hash();
  return h;
}

}  // namespace sqo::datalog
