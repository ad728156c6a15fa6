#include "solver/constraint_set.h"

#include <algorithm>

#include "common/strings.h"

namespace sqo::solver {

using datalog::Atom;
using datalog::CmpOp;
using datalog::Literal;
using datalog::Term;

bool ConstraintSet::Add(const Atom& atom) {
  if (!atom.is_comparison()) return false;
  AddConstraint(atom.op(), atom.lhs(), atom.rhs());
  return true;
}

void ConstraintSet::AddComparisons(const std::vector<Literal>& literals) {
  for (const Literal& lit : literals) {
    if (lit.positive && lit.atom.is_comparison()) Add(lit.atom);
  }
}

void ConstraintSet::AddConstraint(CmpOp op, const Term& lhs, const Term& rhs) {
  RawConstraint c{op, NodeId(lhs), NodeId(rhs)};
  constraints_.push_back(c);
}

int ConstraintSet::NodeId(const Term& term) {
  int found = FindNode(term);
  if (found >= 0) return found;
  nodes_.push_back(term);
  return static_cast<int>(nodes_.size()) - 1;
}

int ConstraintSet::FindNode(const Term& term) const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    // Term::operator== uses Value::Equals, so 3 and 3.0 intern together.
    if (nodes_[i] == term) return static_cast<int>(i);
  }
  return -1;
}

ConstraintSet::Closure ConstraintSet::BuildClosure() const {
  const size_t n = nodes_.size();
  Closure cl;
  cl.n = n;
  cl.rel.assign(n * n, Rel::kNone);
  for (size_t i = 0; i < n; ++i) cl.at(i, i) = Rel::kLe;

  auto strengthen = [&](int u, int v, Rel r) {
    if (static_cast<uint8_t>(r) > static_cast<uint8_t>(cl.at(u, v))) {
      cl.at(u, v) = r;
    }
  };

  for (const RawConstraint& c : constraints_) {
    switch (c.op) {
      case CmpOp::kEq:
        strengthen(c.lhs, c.rhs, Rel::kLe);
        strengthen(c.rhs, c.lhs, Rel::kLe);
        break;
      case CmpOp::kNe:
        cl.diseq.emplace_back(c.lhs, c.rhs);
        break;
      case CmpOp::kLt:
        strengthen(c.lhs, c.rhs, Rel::kLt);
        break;
      case CmpOp::kLe:
        strengthen(c.lhs, c.rhs, Rel::kLe);
        break;
      case CmpOp::kGt:
        strengthen(c.rhs, c.lhs, Rel::kLt);
        break;
      case CmpOp::kGe:
        strengthen(c.rhs, c.lhs, Rel::kLe);
        break;
    }
  }

  // Seed the known order among constants: distinct constants are disequal,
  // and comparable ones (numeric/numeric, string/string) are ordered.
  for (size_t i = 0; i < n; ++i) {
    if (!nodes_[i].is_constant()) continue;
    for (size_t j = i + 1; j < n; ++j) {
      if (!nodes_[j].is_constant()) continue;
      cl.diseq.emplace_back(static_cast<int>(i), static_cast<int>(j));
      auto cmp = nodes_[i].constant().Compare(nodes_[j].constant());
      if (cmp.has_value()) {
        // Interning guarantees *cmp != 0.
        if (*cmp < 0) {
          strengthen(static_cast<int>(i), static_cast<int>(j), Rel::kLt);
        } else {
          strengthen(static_cast<int>(j), static_cast<int>(i), Rel::kLt);
        }
      }
    }
  }

  // Floyd–Warshall closure; strictness propagates through either hop.
  for (size_t k = 0; k < n; ++k) {
    for (size_t i = 0; i < n; ++i) {
      if (cl.at(i, k) == Rel::kNone) continue;
      for (size_t j = 0; j < n; ++j) {
        if (cl.at(k, j) == Rel::kNone) continue;
        Rel combined = (cl.at(i, k) == Rel::kLt || cl.at(k, j) == Rel::kLt)
                           ? Rel::kLt
                           : Rel::kLe;
        strengthen(static_cast<int>(i), static_cast<int>(j), combined);
      }
    }
  }

  // Unsat: a strict cycle (u < u) or a disequality forced into equality.
  for (size_t i = 0; i < n; ++i) {
    if (cl.at(i, i) == Rel::kLt) {
      cl.unsat = true;
      return cl;
    }
  }
  for (const auto& [u, v] : cl.diseq) {
    if (cl.ForcedEqual(u, v)) {
      cl.unsat = true;
      return cl;
    }
  }
  return cl;
}

bool ConstraintSet::Satisfiable() const { return !BuildClosure().unsat; }

bool ConstraintSet::Implies(const Atom& atom) const {
  if (!atom.is_comparison()) return false;
  ConstraintSet with_negation = *this;
  with_negation.AddConstraint(datalog::NegateOp(atom.op()), atom.lhs(),
                              atom.rhs());
  return !with_negation.Satisfiable();
}

bool ConstraintSet::ImpliesEqual(const Term& lhs, const Term& rhs) const {
  return Implies(Atom::Comparison(CmpOp::kEq, lhs, rhs));
}

std::vector<Atom> ConstraintSet::Project(
    const std::set<std::string>& keep_vars) const {
  Closure cl = BuildClosure();
  std::vector<Atom> out;
  if (cl.unsat) return out;
  const size_t n = nodes_.size();

  auto kept = [&](size_t u) {
    return nodes_[u].is_constant() ||
           keep_vars.count(nodes_[u].var_name()) > 0;
  };

  // Group kept nodes into forced-equality classes; pick a representative,
  // preferring constants so equalities render as `Var = const`.
  std::vector<int> rep(n, -1);
  std::vector<int> kept_nodes;
  for (size_t u = 0; u < n; ++u) {
    if (kept(u)) kept_nodes.push_back(static_cast<int>(u));
  }
  for (int u : kept_nodes) {
    if (rep[u] != -1) continue;
    int r = u;
    for (int v : kept_nodes) {
      if (cl.ForcedEqual(u, v) && nodes_[v].is_constant()) {
        r = v;
        break;
      }
    }
    for (int v : kept_nodes) {
      if (cl.ForcedEqual(u, v)) rep[v] = r;
    }
  }

  // Equalities: rep = member for every non-representative member, unless
  // both are constants (a ground fact, not a constraint).
  for (int u : kept_nodes) {
    if (rep[u] != u) {
      if (nodes_[u].is_constant() && nodes_[rep[u]].is_constant()) continue;
      out.push_back(Atom::Comparison(CmpOp::kEq, nodes_[u], nodes_[rep[u]]));
    }
  }

  // Order atoms among representatives, transitively reduced.
  std::vector<int> reps;
  for (int u : kept_nodes) {
    if (rep[u] == u) reps.push_back(u);
  }
  for (int u : reps) {
    for (int v : reps) {
      if (u == v) continue;
      Rel r = cl.at(u, v);
      if (r == Rel::kNone || cl.ForcedEqual(u, v)) continue;
      if (nodes_[u].is_constant() && nodes_[v].is_constant()) continue;
      // Emit each unordered pair once: skip the (v, u) direction of a
      // symmetric kLe pair — ForcedEqual already filtered true equality, so
      // symmetric kLe cannot happen here; direction is meaningful.
      bool redundant = false;
      for (int w : reps) {
        if (w == u || w == v) continue;
        if (cl.at(u, w) == Rel::kNone || cl.at(w, v) == Rel::kNone) continue;
        Rel through = (cl.at(u, w) == Rel::kLt || cl.at(w, v) == Rel::kLt)
                          ? Rel::kLt
                          : Rel::kLe;
        if (static_cast<uint8_t>(through) >= static_cast<uint8_t>(r)) {
          redundant = true;
          break;
        }
      }
      if (redundant) continue;
      out.push_back(Atom::Comparison(r == Rel::kLt ? CmpOp::kLt : CmpOp::kLe,
                                     nodes_[u], nodes_[v]));
    }
  }

  // Disequalities asserted among kept nodes, unless already implied by a
  // strict order or holding between two constants.
  std::set<std::pair<int, int>> emitted_ne;
  for (const auto& [a, b] : cl.diseq) {
    if (!kept(a) || !kept(b)) continue;
    int u = rep[a], v = rep[b];
    if (u == v) continue;  // would be unsat; already handled
    if (nodes_[u].is_constant() && nodes_[v].is_constant()) continue;
    if (cl.at(u, v) == Rel::kLt || cl.at(v, u) == Rel::kLt) continue;
    auto key = std::minmax(u, v);
    if (!emitted_ne.insert({key.first, key.second}).second) continue;
    out.push_back(Atom::Comparison(CmpOp::kNe, nodes_[u], nodes_[v]));
  }
  return out;
}

bool ConstraintSet::EqualityView::EdgeForcesDisequalPair(int s, int t,
                                                         bool both) const {
  auto le = [&](int x, int y) { return closure_.at(x, y) != Rel::kNone; };
  auto reach = [&](int x, int y) {
    return le(x, y) || (le(x, s) && le(t, y)) ||
           (both && le(x, t) && le(s, y));
  };
  for (const auto& [p, q] : closure_.diseq) {
    if (reach(p, q) && reach(q, p)) return true;
  }
  return false;
}

ConstraintSet::Rel ConstraintSet::EqualityView::Reach(const Term& x, int xi,
                                                      const Term& y,
                                                      int yi) const {
  if (xi >= 0 && yi >= 0) return closure_.at(xi, yi);
  // A constant the set never interned is strictly ordered against every
  // comparable constant node, by value, and related to nothing else; so a
  // path through it is strict and leaves or enters it through such a node.
  const std::vector<Term>& nodes = set_.nodes_;
  auto less = [](const Term& p, const Term& q) {
    auto cmp = p.constant().Compare(q.constant());
    return cmp.has_value() && *cmp < 0;
  };
  auto from_x = [&](int d) { return xi >= 0 ? closure_.at(xi, d) != Rel::kNone
                                            : less(x, nodes[d]); };
  auto into_y = [&](int d) { return yi >= 0 ? closure_.at(d, yi) != Rel::kNone
                                            : less(nodes[d], y); };
  if (xi < 0 && yi < 0 && less(x, y)) return Rel::kLt;
  for (size_t d1 = 0; d1 < nodes.size(); ++d1) {
    if (!nodes[d1].is_constant() || !from_x(static_cast<int>(d1))) continue;
    for (size_t d2 = 0; d2 < nodes.size(); ++d2) {
      if (nodes[d2].is_constant() && into_y(static_cast<int>(d2)) &&
          closure_.at(d1, d2) != Rel::kNone) {
        return Rel::kLt;
      }
    }
  }
  return Rel::kNone;
}

bool ConstraintSet::EqualityView::Implies(const Atom& comparison) const {
  if (!comparison.is_comparison()) return false;
  return Implies(comparison.op(), comparison.lhs(), comparison.rhs());
}

bool ConstraintSet::EqualityView::Implies(CmpOp op, const Term& a,
                                          const Term& b) const {
  // `a op b` is entailed iff the set plus its negation is unsatisfiable:
  // the negation closes a strict cycle, or (when it adds non-strict edges)
  // forces an asserted-disequal pair equal. Constants the set never
  // interned take part through their order against the constants it did
  // (x ≥ 30 entails x ≥ 21 though 21 has no node).
  if (closure_.unsat) return true;
  if (a == b) return op == CmpOp::kEq || op == CmpOp::kLe || op == CmpOp::kGe;
  const int u = set_.FindNode(a);
  const int v = set_.FindNode(b);
  // A variable the set never saw gets fresh edges to one node only, which
  // close no cycle and force no equality.
  if ((u < 0 && a.is_variable()) || (v < 0 && b.is_variable())) return false;
  const bool known = u >= 0 && v >= 0;
  switch (op) {
    case CmpOp::kEq:
      return known && closure_.ForcedEqual(u, v);
    case CmpOp::kLe:
      return Reach(a, u, b, v) != Rel::kNone;
    case CmpOp::kGe:
      return Reach(b, v, a, u) != Rel::kNone;
    case CmpOp::kLt:
      return Reach(a, u, b, v) == Rel::kLt ||
             (known && EdgeForcesDisequalPair(v, u, /*both=*/false));
    case CmpOp::kGt:
      return Reach(b, v, a, u) == Rel::kLt ||
             (known && EdgeForcesDisequalPair(u, v, /*both=*/false));
    case CmpOp::kNe: {
      if (Reach(a, u, b, v) == Rel::kLt || Reach(b, v, a, u) == Rel::kLt) {
        return true;
      }
      if (known) return EdgeForcesDisequalPair(u, v, /*both=*/true);
      // Equating a constant the set never interned with a term forced equal
      // to some constant node (or with another such constant) equates two
      // distinct constants.
      if (u < 0 && v < 0) return true;
      const int w = u >= 0 ? u : v;
      for (size_t d = 0; d < set_.nodes_.size(); ++d) {
        if (set_.nodes_[d].is_constant() &&
            closure_.ForcedEqual(w, static_cast<int>(d))) {
          return true;
        }
      }
      return false;
    }
  }
  return false;
}

std::string ConstraintSet::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(constraints_.size());
  for (const RawConstraint& c : constraints_) {
    parts.push_back(nodes_[c.lhs].ToString() + " " +
                    std::string(datalog::CmpOpSymbol(c.op)) + " " +
                    nodes_[c.rhs].ToString());
  }
  return "{" + StrJoin(parts, ", ") + "}";
}

}  // namespace sqo::solver
