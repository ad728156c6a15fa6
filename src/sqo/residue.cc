#include "sqo/residue.h"

#include <map>
#include <set>

#include "common/strings.h"
#include "datalog/unify.h"

namespace sqo::core {

using datalog::Atom;
using datalog::Clause;
using datalog::Literal;
using datalog::RelationSignature;
using datalog::Substitution;
using datalog::Term;

std::string Residue::ToString() const {
  std::vector<std::string> rem;
  rem.reserve(remainder.size());
  for (const Literal& lit : remainder) rem.push_back(lit.ToString());
  std::string head_str = head.has_value() ? head->ToString() : "false";
  return template_atom.ToString() + ": {" + head_str + " <- " +
         StrJoin(rem, ", ") + "}";
}

void Residue::FinalizeForMatching() {
  bindable_symbols.clear();
  for (const std::string& name : variables) {
    bindable_symbols.insert(sqo::Intern(name));
  }
  remainder_predicates.clear();
  remainder_flipped.clear();
  for (const Literal& lit : remainder) {
    if (lit.atom.is_comparison()) {
      Atom flipped = Atom::Comparison(datalog::FlipOp(lit.atom.op()),
                                      lit.atom.rhs(), lit.atom.lhs());
      const bool distinct =
          flipped.op() != lit.atom.op() || flipped.lhs() != lit.atom.lhs();
      remainder_flipped.push_back(
          distinct ? std::optional<Atom>(std::move(flipped)) : std::nullopt);
      continue;
    }
    remainder_flipped.push_back(std::nullopt);
    std::pair<sqo::Symbol, bool> req(lit.atom.predicate_symbol(), lit.positive);
    bool present = false;
    for (const auto& existing : remainder_predicates) {
      if (existing == req) {
        present = true;
        break;
      }
    }
    if (!present) remainder_predicates.push_back(req);
  }
}

namespace {

/// Renames all variables of a residue to a canonical scheme: template
/// positions get "T<i>", other variables "R<n>" in occurrence order. This
/// makes residues deduplicatable and their rendering stable.
Residue Canonicalize(Residue in) {
  std::map<std::string, Term> renaming;
  int r_counter = 0;
  auto canon_term = [&](const Term& t, int template_pos) -> Term {
    if (!t.is_variable()) return t;
    auto it = renaming.find(t.var_name());
    if (it != renaming.end()) return it->second;
    Term named = template_pos >= 0
                     ? Term::Var("T" + std::to_string(template_pos + 1))
                     : Term::Var("R" + std::to_string(++r_counter));
    renaming.emplace(t.var_name(), named);
    return named;
  };
  auto canon_atom = [&](const Atom& a, bool is_template) {
    std::vector<Term> args;
    args.reserve(a.arity());
    for (size_t i = 0; i < a.arity(); ++i) {
      args.push_back(canon_term(a.args()[i], is_template ? static_cast<int>(i) : -1));
    }
    if (a.is_comparison()) {
      return Atom::Comparison(a.op(), std::move(args[0]), std::move(args[1]));
    }
    return Atom::Pred(a.predicate(), std::move(args));
  };

  Residue out;
  out.relation = in.relation;
  out.source = in.source;
  out.template_atom = canon_atom(in.template_atom, /*is_template=*/true);
  for (const Literal& lit : in.remainder) {
    out.remainder.push_back(Literal(lit.positive, canon_atom(lit.atom, false)));
  }
  if (in.head.has_value()) {
    out.head = Literal(in.head->positive, canon_atom(in.head->atom, false));
  }
  return out;
}

}  // namespace

std::vector<Residue> ComputeResidues(const Clause& ic,
                                     const RelationSignature& sig) {
  std::vector<Residue> out;
  std::set<std::string> seen;

  // Rename the IC apart from the template variables.
  datalog::FreshVarGen ic_gen("_C");
  Clause renamed = ic.RenamedApart(&ic_gen);

  // Candidate body literals: positive predicate atoms over `sig`.
  std::vector<size_t> candidates;
  for (size_t i = 0; i < renamed.body.size(); ++i) {
    const Literal& lit = renamed.body[i];
    if (lit.positive && lit.atom.is_predicate() &&
        lit.atom.predicate() == sig.name && lit.atom.arity() == sig.arity()) {
      candidates.push_back(i);
    }
  }
  if (candidates.empty() || candidates.size() > 16) return out;

  // Fresh template p(_T1, ..., _Tk).
  std::vector<Term> template_args;
  template_args.reserve(sig.arity());
  for (size_t i = 0; i < sig.arity(); ++i) {
    template_args.push_back(Term::Var("_T" + std::to_string(i + 1)));
  }
  const Atom template_atom = Atom::Pred(sig.name, template_args);

  // Every non-empty subset of candidates is one leaf of the subsumption
  // tree: the chosen atoms unify (two-way) with the template, the rest form
  // the remainder.
  const size_t n = candidates.size();
  for (size_t mask = 1; mask < (size_t{1} << n); ++mask) {
    Substitution subst;
    bool ok = true;
    std::set<size_t> matched;
    for (size_t b = 0; b < n && ok; ++b) {
      if ((mask & (size_t{1} << b)) == 0) continue;
      matched.insert(candidates[b]);
      ok = datalog::UnifyAtoms(renamed.body[candidates[b]].atom, template_atom,
                               &subst);
    }
    if (!ok) continue;

    Residue residue;
    residue.relation = sig.name;
    residue.source = ic.label;
    residue.template_atom = subst.ApplyToAtom(template_atom);
    for (size_t i = 0; i < renamed.body.size(); ++i) {
      if (matched.count(i) > 0) continue;
      residue.remainder.push_back(subst.ApplyToLiteral(renamed.body[i]));
    }
    if (renamed.head.has_value()) {
      residue.head = subst.ApplyToLiteral(*renamed.head);
    }
    residue = Canonicalize(std::move(residue));
    std::string key = residue.ToString();
    if (seen.insert(key).second) out.push_back(std::move(residue));
  }
  return out;
}

}  // namespace sqo::core
