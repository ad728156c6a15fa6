#include "datalog/substitution.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace sqo::datalog {

void Substitution::Bind(Symbol var, Term term) {
  for (auto& [bound, existing] : bindings_) {
    if (bound == var) {
      existing = std::move(term);
      return;
    }
  }
  bindings_.emplace_back(var, std::move(term));
}

void Substitution::EraseBinding(Symbol var) {
  for (size_t i = 0; i < bindings_.size(); ++i) {
    if (bindings_[i].first == var) {
      bindings_.erase(bindings_.begin() + static_cast<long>(i));
      return;
    }
  }
}

const Term& Substitution::Resolve(const Term& term) const {
  const Term* current = &term;
  // Follow variable chains; bounded by the number of bindings, so cycles
  // (which Bind callers must not create) would terminate via the guard.
  size_t steps = 0;
  while (current->is_variable() && steps <= bindings_.size()) {
    const Term* next = Lookup(current->var_symbol());
    if (next == nullptr) break;
    current = next;
    ++steps;
  }
  return *current;
}

Atom Substitution::ApplyToAtom(const Atom& atom) const {
  std::vector<Term> args;
  args.reserve(atom.arity());
  for (const Term& t : atom.args()) args.push_back(Resolve(t));
  if (atom.is_comparison()) {
    return Atom::Comparison(atom.op(), std::move(args[0]), std::move(args[1]));
  }
  return Atom::Pred(atom.predicate_symbol(), std::move(args));
}

Literal Substitution::ApplyToLiteral(const Literal& literal) const {
  return Literal(literal.positive, ApplyToAtom(literal.atom));
}

std::string Substitution::ToString() const {
  std::vector<std::pair<Symbol, const Term*>> sorted;
  sorted.reserve(bindings_.size());
  for (const auto& [var, term] : bindings_) sorted.emplace_back(var, &term);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string out = "{";
  bool first = true;
  for (const auto& [var, term] : sorted) {
    if (!first) out += ", ";
    first = false;
    out += var.str() + " -> " + term->ToString();
  }
  out += "}";
  return out;
}

}  // namespace sqo::datalog
