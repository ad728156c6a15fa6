#include "analysis/analyzer.h"

#include <algorithm>
#include <functional>
#include <set>

#include "common/strings.h"
#include "datalog/unify.h"
#include "odl/schema.h"
#include "solver/constraint_set.h"

namespace sqo::analysis {

using datalog::Atom;
using datalog::Clause;
using datalog::CmpOp;
using datalog::Literal;
using datalog::Matcher;
using datalog::Query;
using datalog::RelationKind;
using datalog::RelationSignature;
using datalog::Substitution;
using datalog::Term;

namespace {

/// Subject string for an IC: its label when present, else its rendering.
std::string IcSubject(const Clause& ic) {
  return ic.label.empty() ? ic.ToString() : ic.label;
}

/// Textual method-fact declarations (`monotone(...)`, `point(...)`) ride
/// along in the user IC stream and are extracted before compilation; the
/// analyzer skips them entirely.
bool IsMethodFact(const Clause& ic) {
  if (!ic.head.has_value() || !ic.body.empty()) return false;
  const Literal& head = *ic.head;
  if (!head.positive || !head.atom.is_predicate()) return false;
  return head.atom.predicate() == "monotone" || head.atom.predicate() == "point";
}

/// Names of variables occurring in positive predicate body literals — the
/// range-restricted (safe) set.
std::set<std::string> PositivelyBoundVars(const std::vector<Literal>& body) {
  std::vector<std::string> vars;
  for (const Literal& lit : body) {
    if (lit.positive && lit.atom.is_predicate()) {
      lit.atom.CollectVariables(&vars);
    }
  }
  return std::set<std::string>(vars.begin(), vars.end());
}

/// Appends a diagnostic (`code`) for every variable of `lit` outside
/// `bound`. Variables local to a negative predicate literal (occurring in
/// no other literal) are existentially quantified under the negation —
/// "no tuple with any values here" — and are exempt; scope reduction and
/// OQL `not in` translation generate exactly that shape. `occurrences`
/// counts, per variable, the literals of the clause/query containing it.
void CheckLiteralSafety(const Literal& lit, const std::set<std::string>& bound,
                        const std::map<std::string, size_t>& occurrences,
                        std::string_view code, const std::string& subject,
                        std::string_view where, AnalysisReport* report) {
  const bool negated_predicate = !lit.positive && lit.atom.is_predicate();
  std::vector<std::string> vars;
  lit.atom.CollectVariables(&vars);
  for (const std::string& v : vars) {
    if (bound.count(v) > 0) continue;
    if (negated_predicate) {
      auto it = occurrences.find(v);
      if (it == occurrences.end() || it->second <= 1) continue;  // local
    }
    report->Add(Severity::kError, code, subject,
                "variable '" + v + "' in " + std::string(where) + " literal " +
                    lit.ToString() +
                    " is not bound by any positive body atom",
                "bind '" + v + "' in a positive predicate atom of the body");
  }
}

/// Per-variable count of the literals (plus the head / projection, counted
/// as one) in which the variable occurs.
std::map<std::string, size_t> VariableOccurrences(
    const std::optional<Literal>& head, const std::vector<Term>& head_args,
    const std::vector<Literal>& body) {
  std::map<std::string, size_t> out;
  auto add_group = [&out](const std::vector<std::string>& vars) {
    for (const std::string& v : vars) ++out[v];
  };
  if (head.has_value()) {
    std::vector<std::string> vars;
    head->atom.CollectVariables(&vars);
    add_group(vars);
  }
  {
    std::vector<std::string> vars;
    for (const Term& t : head_args) {
      if (t.is_variable() &&
          std::find(vars.begin(), vars.end(), t.var_name()) == vars.end()) {
        vars.push_back(t.var_name());
      }
    }
    add_group(vars);
  }
  for (const Literal& lit : body) {
    std::vector<std::string> vars;
    lit.atom.CollectVariables(&vars);
    add_group(vars);
  }
  return out;
}

/// Map from an ODL base type to the constant kind the engine stores.
std::optional<sqo::ValueKind> KindOfBase(odl::BaseType base) {
  switch (base) {
    case odl::BaseType::kLong:
      return sqo::ValueKind::kInt;
    case odl::BaseType::kFloat:
      return sqo::ValueKind::kDouble;
    case odl::BaseType::kString:
      return sqo::ValueKind::kString;
    case odl::BaseType::kBoolean:
      return sqo::ValueKind::kBool;
    case odl::BaseType::kNamed:
      return sqo::ValueKind::kOid;  // struct values are stored by OID
    case odl::BaseType::kVoid:
      return std::nullopt;
  }
  return std::nullopt;
}

/// True when a constant of kind `actual` may legally fill a position of
/// kind `expected` — the numeric kinds are interchangeable (Value::Equals
/// treats 3 and 3.0 as equal), everything else must match exactly.
bool KindCompatible(sqo::ValueKind expected, sqo::ValueKind actual) {
  auto numeric = [](sqo::ValueKind k) {
    return k == sqo::ValueKind::kInt || k == sqo::ValueKind::kDouble;
  };
  if (numeric(expected) && numeric(actual)) return true;
  return expected == actual;
}

/// Pass 2 for one predicate atom: unknown relation, arity, constant types.
void CheckAtomSignature(const translate::TranslatedSchema& schema,
                        const Atom& atom, const std::string& subject,
                        AnalysisReport* report) {
  const RelationSignature* sig = schema.catalog.Find(atom.predicate());
  if (sig == nullptr) {
    report->Add(Severity::kError, kCodeUnknownRelation, subject,
                "atom " + atom.ToString() + " references unknown relation '" +
                    atom.predicate() + "'",
                "check the spelling against the translated schema catalog");
    return;
  }
  if (atom.arity() != sig->arity()) {
    report->Add(Severity::kError, kCodeArityMismatch, subject,
                "atom " + atom.ToString() + " has arity " +
                    std::to_string(atom.arity()) + " but relation '" +
                    sig->name + "' has arity " + std::to_string(sig->arity()),
                "expected " + sig->ToString());
    return;
  }
  for (size_t i = 0; i < atom.arity(); ++i) {
    const Term& arg = atom.args()[i];
    if (!arg.is_constant()) continue;
    std::optional<sqo::ValueKind> expected =
        ExpectedArgumentKind(schema, *sig, i);
    if (!expected.has_value()) continue;
    const sqo::ValueKind actual = arg.constant().kind();
    if (!KindCompatible(*expected, actual)) {
      report->Add(
          Severity::kError, kCodeTypeMismatch, subject,
          "argument " + std::to_string(i) + " ('" + sig->attributes[i] +
              "') of " + atom.ToString() + " is " +
              std::string(sqo::ValueKindName(actual)) + " but relation '" +
              sig->name + "' declares " +
              std::string(sqo::ValueKindName(*expected)),
          "use a " + std::string(sqo::ValueKindName(*expected)) + " constant");
    }
  }
}

/// True when `attr` (already lowercase, as catalog attributes are) carries
/// a `key` hint on the owning class or any of its ancestors — exactly the
/// set Database::CreateKeyIndexes turns into explicit hash indexes.
bool AttributeHasIndexHint(const translate::TranslatedSchema& schema,
                           const RelationSignature& sig,
                           const std::string& attr) {
  const odl::ClassInfo* cur = schema.schema.FindClass(sig.owner);
  while (cur != nullptr) {
    for (const std::string& key : cur->keys) {
      if (sqo::ToLower(key) == attr) return true;
    }
    cur = cur->super.empty() ? nullptr
                             : schema.schema.FindClass(cur->super);
  }
  return false;
}

/// Pass 8 (SQO-A012) for one IC: every class attribute the IC pins by
/// equality — a constant in the atom itself, or a `Var = const` comparison
/// over a variable bound at an attribute position — should carry a key
/// hint, otherwise the equality selections its residues inject into
/// queries have no explicit index behind them.
void CheckEqualityIndexHints(const translate::TranslatedSchema& schema,
                             const Clause& ic, const std::string& subject,
                             AnalysisReport* report) {
  // attribute positions bound to variables: var -> (signature, attribute)
  std::map<std::string, std::pair<const RelationSignature*, std::string>>
      attr_vars;
  std::set<std::pair<std::string, std::string>> flagged;
  auto flag = [&](const RelationSignature& sig, const std::string& attr) {
    if (AttributeHasIndexHint(schema, sig, attr)) return;
    if (!flagged.insert({sig.name, attr}).second) return;
    report->Add(
        Severity::kWarning, kCodeUnindexedEqualityIc, subject,
        "equality constraint over '" + sig.name + "." + attr +
            "' but the attribute has no key/index hint; residues of this "
            "constraint add equality selections that fall back to lazily "
            "built indexes or extent scans",
        "declare `key " + attr + "` on class " + sig.owner +
            " (or rely on auto-indexing for small extents)");
  };
  for (const Literal& lit : ic.body) {
    if (!lit.positive || !lit.atom.is_predicate()) continue;
    const RelationSignature* sig = schema.catalog.Find(lit.atom.predicate());
    if (sig == nullptr || sig->kind != RelationKind::kClass) continue;
    if (lit.atom.arity() != sig->arity()) continue;
    for (size_t i = 1; i < lit.atom.arity(); ++i) {
      const Term& arg = lit.atom.args()[i];
      if (arg.is_constant()) {
        flag(*sig, sig->attributes[i]);
      } else if (arg.is_variable()) {
        attr_vars.emplace(arg.var_name(),
                          std::make_pair(sig, sig->attributes[i]));
      }
    }
  }
  auto check_comparison = [&](const Atom& atom) {
    if (!atom.is_comparison() || atom.op() != CmpOp::kEq) return;
    const Term* var = nullptr;
    if (atom.lhs().is_variable() && atom.rhs().is_constant()) {
      var = &atom.lhs();
    } else if (atom.rhs().is_variable() && atom.lhs().is_constant()) {
      var = &atom.rhs();
    }
    if (var == nullptr) return;
    auto it = attr_vars.find(var->var_name());
    if (it == attr_vars.end()) return;
    flag(*it->second.first, it->second.second);
  };
  for (const Literal& lit : ic.body) {
    if (lit.positive) check_comparison(lit.atom);
  }
  if (ic.head.has_value() && ic.head->positive) {
    check_comparison(ic.head->atom);
  }
}

/// A candidate for the pairwise contradiction pass: a comparison-headed IC
/// whose body is one positive predicate atom plus comparisons, canonicalized
/// so that argument position i of the anchor atom is variable `_C<i>`.
struct ContradictionCandidate {
  std::string relation;
  size_t arity = 0;
  std::string subject;
  bool is_user = false;
  /// Guard: canonicalized body comparisons plus template-constant and
  /// repeated-variable equalities. Over `_C<i>` variables and constants.
  std::vector<Atom> guard;
  /// Canonicalized comparison head.
  Atom head = Atom::Comparison(CmpOp::kEq, Term::Int(0), Term::Int(0));
};

std::optional<ContradictionCandidate> MakeCandidate(const Clause& ic,
                                                    bool is_user) {
  if (!ic.head.has_value()) return std::nullopt;
  if (!ic.head->atom.is_comparison()) return std::nullopt;
  const Atom* anchor = nullptr;
  std::vector<const Literal*> comparisons;
  for (const Literal& lit : ic.body) {
    if (!lit.positive) return std::nullopt;
    if (lit.atom.is_predicate()) {
      if (anchor != nullptr) return std::nullopt;  // single-atom bodies only
      anchor = &lit.atom;
    } else {
      comparisons.push_back(&lit);
    }
  }
  if (anchor == nullptr) return std::nullopt;

  ContradictionCandidate out;
  out.relation = anchor->predicate();
  out.arity = anchor->arity();
  out.subject = IcSubject(ic);
  out.is_user = is_user;

  Substitution canon;
  for (size_t i = 0; i < anchor->arity(); ++i) {
    const Term& arg = anchor->args()[i];
    const Term pos_var = Term::Var("_C" + std::to_string(i));
    if (arg.is_constant()) {
      out.guard.push_back(Atom::Comparison(CmpOp::kEq, pos_var, arg));
    } else if (const Term mapped = canon.Apply(arg); mapped != arg) {
      // Repeated variable: positions i and its first occurrence are equal.
      out.guard.push_back(Atom::Comparison(CmpOp::kEq, pos_var, mapped));
    } else {
      canon.Bind(arg.var_name(), pos_var);
    }
  }
  // Comparison variables not covered by the anchor atom make the IC unsafe
  // (pass 1 reports it); exclude it from this pass.
  auto fully_canonical = [&](const Atom& atom) {
    std::vector<std::string> vars;
    Atom mapped = canon.ApplyToAtom(atom);
    mapped.CollectVariables(&vars);
    for (const std::string& v : vars) {
      if (v.rfind("_C", 0) != 0) return false;
    }
    return true;
  };
  for (const Literal* lit : comparisons) {
    if (!fully_canonical(lit->atom)) return std::nullopt;
    out.guard.push_back(canon.ApplyToAtom(lit->atom));
  }
  if (!fully_canonical(ic.head->atom)) return std::nullopt;
  out.head = canon.ApplyToAtom(ic.head->atom);
  return out;
}

/// θ-subsumption with comparison flipping: every body literal of `source`
/// (under an accumulated one-way substitution) must match some body literal
/// of `target`. Returns every complete substitution via `on_match` until it
/// returns false.
bool MatchBodies(const std::vector<Literal>& source, size_t k, Matcher* matcher,
                 const std::vector<Literal>& target,
                 const std::function<bool()>& on_match) {
  if (k == source.size()) return on_match();
  const Literal& lit = source[k];
  for (const Literal& tl : target) {
    if (tl.positive != lit.positive) continue;
    if (tl.atom.is_predicate() != lit.atom.is_predicate()) continue;
    size_t mark = matcher->Mark();
    if (matcher->MatchLiteral(lit, tl)) {
      if (!MatchBodies(source, k + 1, matcher, target, on_match)) return false;
    }
    matcher->RollbackTo(mark);
    if (lit.atom.is_comparison()) {
      Atom flipped = Atom::Comparison(datalog::FlipOp(lit.atom.op()),
                                      lit.atom.rhs(), lit.atom.lhs());
      if (flipped.op() == lit.atom.op() && flipped.lhs() == lit.atom.lhs()) {
        continue;  // symmetric operator, flip adds nothing
      }
      mark = matcher->Mark();
      if (matcher->MatchAtom(flipped, tl.atom)) {
        if (!MatchBodies(source, k + 1, matcher, target, on_match)) return false;
      }
      matcher->RollbackTo(mark);
    }
  }
  return true;
}

/// True when `source` θ-subsumes `target`: a substitution maps source's
/// body into target's body and source's head onto (or, for comparison
/// heads, into an implicant of) target's head.
bool Subsumes(const Clause& source, const Clause& target) {
  Matcher matcher(source.VariableSet());
  bool found = false;
  MatchBodies(source.body, 0, &matcher, target.body, [&]() {
    if (!source.head.has_value()) {
      // A denial subsumes any clause with a weaker (or no) head.
      found = true;
      return false;
    }
    if (!target.head.has_value()) return true;  // headed can't subsume denial
    const Literal src_head = matcher.subst().ApplyToLiteral(*source.head);
    if (src_head == *target.head) {
      found = true;
      return false;
    }
    if (src_head.atom.is_comparison() && target.head->atom.is_comparison() &&
        src_head.positive && target.head->positive) {
      solver::ConstraintSet cs;
      cs.Add(src_head.atom);
      if (cs.Satisfiable() && cs.Implies(target.head->atom)) {
        found = true;
        return false;
      }
    }
    return true;  // keep searching other substitutions
  });
  return found;
}

}  // namespace

std::optional<sqo::ValueKind> ExpectedArgumentKind(
    const translate::TranslatedSchema& schema, const RelationSignature& sig,
    size_t position) {
  if (position >= sig.arity()) return std::nullopt;
  const std::string& attr = sig.attributes[position];
  switch (sig.kind) {
    case RelationKind::kRelationship:
    case RelationKind::kAsr:
      return sqo::ValueKind::kOid;
    case RelationKind::kClass: {
      if (position == 0) return sqo::ValueKind::kOid;
      const odl::ResolvedAttribute* resolved =
          schema.schema.FindAttribute(sig.owner, attr);
      if (resolved == nullptr) return std::nullopt;
      return KindOfBase(resolved->base);
    }
    case RelationKind::kStructure: {
      if (position == 0) return sqo::ValueKind::kOid;
      const odl::ResolvedAttribute* field =
          schema.schema.FindStructField(sig.owner, attr);
      if (field == nullptr) return std::nullopt;
      return KindOfBase(field->base);
    }
    case RelationKind::kMethod: {
      if (position == 0) return sqo::ValueKind::kOid;
      const odl::ResolvedMethod* method =
          schema.schema.FindMethod(sig.owner, sig.display_name);
      if (method == nullptr) return std::nullopt;
      if (position == sig.arity() - 1) {
        if (!method->return_struct.empty()) return sqo::ValueKind::kOid;
        return KindOfBase(method->return_base);
      }
      const size_t param = position - 1;
      if (param >= method->params.size()) return std::nullopt;
      return KindOfBase(method->params[param].type.base);
    }
  }
  return std::nullopt;
}

AnalysisReport AnalyzeIcs(const translate::TranslatedSchema& schema,
                          const std::vector<Clause>& user_ics,
                          const AnalyzerOptions& options) {
  AnalysisReport report;

  // Passes 1 + 2, per user IC.
  for (const Clause& ic : user_ics) {
    if (IsMethodFact(ic)) continue;
    const std::string subject = IcSubject(ic);

    if (options.check_safety) {
      const std::set<std::string> bound = PositivelyBoundVars(ic.body);
      const std::map<std::string, size_t> occurrences =
          VariableOccurrences(ic.head, {}, ic.body);
      if (ic.head.has_value() &&
          (ic.head->atom.is_comparison() || !ic.head->positive)) {
        // Comparison and negated-predicate heads must be range-restricted;
        // positive predicate heads may quantify existentially (§4.2 fn. 1).
        CheckLiteralSafety(*ic.head, bound, occurrences, kCodeUnsafeVariable,
                           subject, "head", &report);
      }
      for (const Literal& lit : ic.body) {
        if (lit.atom.is_comparison() || !lit.positive) {
          CheckLiteralSafety(lit, bound, occurrences, kCodeUnsafeVariable,
                             subject, "body", &report);
        }
      }
    }

    if (options.check_signatures) {
      if (ic.head.has_value() && ic.head->atom.is_predicate()) {
        CheckAtomSignature(schema, ic.head->atom, subject, &report);
      }
      for (const Literal& lit : ic.body) {
        if (lit.atom.is_predicate()) {
          CheckAtomSignature(schema, lit.atom, subject, &report);
        }
      }
    }

    if (options.check_index_hints) {
      CheckEqualityIndexHints(schema, ic, subject, &report);
    }
  }

  // Pass 3: contradictions among comparison-headed single-atom ICs. Schema
  // constraints participate so a user IC conflicting with generated
  // semantics is caught, but a finding must involve at least one user IC.
  if (options.check_contradictions) {
    std::vector<ContradictionCandidate> candidates;
    for (const Clause& ic : schema.constraints) {
      if (auto c = MakeCandidate(ic, /*is_user=*/false)) {
        candidates.push_back(std::move(*c));
      }
    }
    for (const Clause& ic : user_ics) {
      if (IsMethodFact(ic)) continue;
      if (auto c = MakeCandidate(ic, /*is_user=*/true)) {
        candidates.push_back(std::move(*c));
      }
    }

    // Singletons: a user IC whose own guard is satisfiable but whose head
    // contradicts it forces every matching instance out of existence.
    for (const ContradictionCandidate& c : candidates) {
      if (!c.is_user) continue;
      solver::ConstraintSet guard;
      for (const Atom& a : c.guard) guard.Add(a);
      if (!guard.Satisfiable()) continue;  // dead guard; pass 5 reports it
      solver::ConstraintSet with_head = guard;
      with_head.Add(c.head);
      if (!with_head.Satisfiable()) {
        report.Add(Severity::kError, kCodeContradictoryIcs, c.subject,
                   "head " + c.head.ToString() +
                       " contradicts the constraint's own body over relation '" +
                       c.relation + "'; matching instances are forced empty",
                   "restate the constraint as a denial if emptiness is "
                   "intended");
      }
    }

    // Pairs whose guards can co-fire but whose heads cannot jointly hold.
    size_t pairs = 0;
    for (size_t i = 0; i < candidates.size(); ++i) {
      for (size_t j = i + 1; j < candidates.size(); ++j) {
        const ContradictionCandidate& a = candidates[i];
        const ContradictionCandidate& b = candidates[j];
        if (!a.is_user && !b.is_user) continue;
        if (a.relation != b.relation || a.arity != b.arity) continue;
        if (++pairs > options.max_pairs) break;
        solver::ConstraintSet guards;
        for (const Atom& atom : a.guard) guards.Add(atom);
        for (const Atom& atom : b.guard) guards.Add(atom);
        if (!guards.Satisfiable()) continue;  // never co-fire
        solver::ConstraintSet with_heads = guards;
        with_heads.Add(a.head);
        with_heads.Add(b.head);
        if (with_heads.Satisfiable()) continue;
        // Point the finding at a user IC (prefer the later declaration).
        const ContradictionCandidate& flagged = b.is_user ? b : a;
        const ContradictionCandidate& other = b.is_user ? a : b;
        report.Add(
            Severity::kError, kCodeContradictoryIcs, flagged.subject,
            "head " + flagged.head.ToString() + " cannot hold together with " +
                other.head.ToString() + " [" + other.subject +
                "] although both constraints apply to the same instances of "
                "relation '" +
                a.relation + "'",
            "reconcile the two constraints; as declared, '" + a.relation +
                "' can hold no instance satisfying both bodies");
      }
    }
  }

  // Pass 4: user ICs fully subsumed by another constraint carry no new
  // semantic knowledge; their residues only slow down residue application.
  if (options.check_redundancy) {
    size_t pairs = 0;
    for (size_t j = 0; j < user_ics.size(); ++j) {
      const Clause& target = user_ics[j];
      if (IsMethodFact(target)) continue;
      for (const Clause& source : schema.constraints) {
        if (++pairs > options.max_pairs) break;
        if (Subsumes(source, target)) {
          report.Add(Severity::kWarning, kCodeSubsumedIc, IcSubject(target),
                     "constraint is subsumed by schema-generated constraint [" +
                         IcSubject(source) + "] and adds no semantic knowledge",
                     "remove the redundant declaration");
          break;
        }
      }
      for (size_t i = 0; i < user_ics.size(); ++i) {
        if (i == j || IsMethodFact(user_ics[i])) continue;
        if (++pairs > options.max_pairs) break;
        const Clause& source = user_ics[i];
        if (!Subsumes(source, target)) continue;
        // For mutually subsuming (duplicate) ICs, flag only the later one.
        if (i > j && Subsumes(target, source)) continue;
        report.Add(Severity::kWarning, kCodeSubsumedIc, IcSubject(target),
                   "constraint is subsumed by [" + IcSubject(source) +
                       "] and adds no semantic knowledge",
                   "remove the redundant declaration");
        break;
      }
    }
  }

  return report;
}

AnalysisReport AnalyzeResidues(
    const std::map<std::string, std::vector<core::Residue>>& residues) {
  AnalysisReport report;
  for (const auto& [relation, attached] : residues) {
    for (const core::Residue& residue : attached) {
      solver::ConstraintSet guard;
      for (const Literal& lit : residue.remainder) {
        if (lit.positive && lit.atom.is_comparison()) guard.Add(lit.atom);
      }
      if (guard.size() == 0 || guard.Satisfiable()) continue;
      report.Add(
          Severity::kWarning, kCodeDeadResidue, relation,
          "residue of [" + residue.source + "] on template " +
              residue.template_atom.ToString() +
              " has an unsatisfiable guard and can never fire: " +
              guard.ToString(),
          "the originating constraint is vacuous for this relation; check "
          "its body comparisons");
    }
  }
  return report;
}

AnalysisReport AnalyzeQuery(const translate::TranslatedSchema& schema,
                            const Query& query,
                            const AnalyzerOptions& options) {
  AnalysisReport report;
  const std::string subject = query.name;
  const std::set<std::string> bound = PositivelyBoundVars(query.body);

  // Unbound head / comparison / negated-literal variables (SQO-A008).
  for (const Term& arg : query.head_args) {
    if (arg.is_variable() && bound.count(arg.var_name()) == 0) {
      report.Add(Severity::kError, kCodeUnboundQueryVariable, subject,
                 "projected variable '" + arg.var_name() +
                     "' is not bound by any positive body atom",
                 "bind '" + arg.var_name() + "' in a positive predicate atom");
    }
  }
  const std::map<std::string, size_t> occurrences =
      VariableOccurrences(std::nullopt, query.head_args, query.body);
  for (const Literal& lit : query.body) {
    if (!lit.atom.is_comparison() && lit.positive) continue;
    CheckLiteralSafety(lit, bound, occurrences, kCodeUnboundQueryVariable,
                       subject, "body", &report);
  }

  // Signature checks over the query's predicate atoms (SQO-A002..A004).
  if (options.check_signatures) {
    for (const Literal& lit : query.body) {
      if (lit.atom.is_predicate()) {
        CheckAtomSignature(schema, lit.atom, subject, &report);
      }
    }
  }

  // Per-literal constant folding (SQO-A009 / SQO-A010).
  for (const Literal& lit : query.body) {
    if (!lit.positive || !lit.atom.is_comparison()) continue;
    const Atom& atom = lit.atom;
    if (atom.lhs().is_constant() && atom.rhs().is_constant()) {
      const sqo::Value& l = atom.lhs().constant();
      const sqo::Value& r = atom.rhs().constant();
      bool truth;
      if (atom.op() == CmpOp::kEq || atom.op() == CmpOp::kNe) {
        truth = (atom.op() == CmpOp::kEq) == l.Equals(r);
      } else {
        std::optional<int> cmp = l.Compare(r);
        truth = cmp.has_value() && datalog::EvalCmp(atom.op(), *cmp);
      }
      if (truth) {
        report.Add(Severity::kWarning, kCodeConstantFoldable, subject,
                   "comparison " + atom.ToString() +
                       " is always true and can be removed",
                   "drop the literal");
      } else {
        report.Add(Severity::kWarning, kCodeTriviallyFalse, subject,
                   "comparison " + atom.ToString() +
                       " is always false; the query returns no rows",
                   "remove the contradictory literal or fix its constants");
      }
      continue;
    }
    if (atom.lhs() == atom.rhs()) {
      const bool always_true = atom.op() == CmpOp::kEq ||
                               atom.op() == CmpOp::kLe ||
                               atom.op() == CmpOp::kGe;
      report.Add(Severity::kWarning,
                 always_true ? kCodeConstantFoldable : kCodeTriviallyFalse,
                 subject,
                 "comparison " + atom.ToString() +
                     (always_true ? " is reflexively true and can be removed"
                                  : " is reflexively false; the query returns "
                                    "no rows"),
                 always_true ? "drop the literal"
                             : "remove or correct the literal");
    }
  }

  // Whole-restriction-set satisfiability (SQO-A009): catches conflicts
  // spread across several individually plausible comparisons.
  {
    solver::ConstraintSet cs;
    cs.AddComparisons(query.body);
    if (cs.size() > 0 && !cs.Satisfiable()) {
      report.Add(Severity::kWarning, kCodeTriviallyFalse, subject,
                 "the query's restriction set " + cs.ToString() +
                     " is unsatisfiable; the query is provably empty",
                 "no data can match; re-check the comparison constants");
    }
  }

  return report;
}

AnalysisReport AnalyzeGovernance(bool deadline_set, bool fail_open) {
  AnalysisReport report;
  if (deadline_set && !fail_open) {
    report.Add(Severity::kWarning, kCodeDeadlineFailClosed, "governance",
               "a deadline is configured but fail-open degradation is "
               "disabled; deadline expiry will fail queries outright with "
               "kResourceExhausted instead of degrading to the original "
               "translated query",
               "enable governance.fail_open (or drop the deadline) unless "
               "hard failures are intended");
  }
  return report;
}

AnalysisReport AnalyzeCatalogFreshness(const std::string& disk_schema_hash,
                                       const std::string& live_schema_hash,
                                       size_t disk_residues,
                                       size_t live_residues) {
  AnalysisReport report;
  if (disk_schema_hash == live_schema_hash) return report;
  std::string message =
      "the persisted semantic catalog was compiled from schema " +
      disk_schema_hash + " but the live schema is " + live_schema_hash +
      "; the stored residues are stale and were discarded in favor of a "
      "fresh compilation";
  if (disk_residues != live_residues) {
    message += " (stored " + std::to_string(disk_residues) +
               " residues, live compilation produced " +
               std::to_string(live_residues) + ")";
  }
  report.Add(Severity::kWarning, kCodeStaleCatalog, "catalog",
             std::move(message),
             "checkpoint the database to refresh the on-disk catalog");
  return report;
}

AnalysisReport AnalyzeStorageOptions(bool sync_each_append,
                                     int64_t flush_interval_us,
                                     int64_t deadline_budget_ms,
                                     size_t keep_snapshots) {
  AnalysisReport report;
  if (!sync_each_append) {
    report.Add(Severity::kWarning, kCodeWeakDurability, "storage",
               "sync_each_append is disabled: appends are acknowledged "
               "before their bytes are fsynced, so a crash can lose "
               "operations the caller was told were durable",
               "enable sync_each_append unless the last few operations are "
               "explicitly expendable");
  }
  if (deadline_budget_ms > 0 && flush_interval_us > deadline_budget_ms * 1000) {
    report.Add(
        Severity::kWarning, kCodeWeakDurability, "storage",
        "group_commit_flush_interval (" + std::to_string(flush_interval_us) +
            "us) exceeds the session's remaining deadline budget (" +
            std::to_string(deadline_budget_ms) +
            "ms): every governed append will expire unacknowledged before "
            "its batch flushes",
        "shrink the flush interval below the deadline budget (or rely on "
        "natural batching with interval 0)");
  }
  if (keep_snapshots < 2) {
    report.Add(Severity::kWarning, kCodeWeakDurability, "storage",
               "keep_snapshots < 2: checkpoint pruning drops the only "
               "fallback snapshot, so fail-open recovery from a corrupt "
               "newest snapshot can only degrade to an empty store",
               "keep at least 2 snapshots so recovery has an older one to "
               "fall back to");
  }
  return report;
}

AnalysisReport AnalyzeServerConfig(size_t workers,
                                   size_t hardware_concurrency,
                                   size_t max_queue_depth,
                                   size_t degrade_queue_depth,
                                   uint64_t shed_wait_ms,
                                   uint64_t default_deadline_ms) {
  AnalysisReport report;
  if (max_queue_depth < 1) {
    report.Add(Severity::kWarning, kCodeServerConfig, "server",
               "max_queue_depth is zero: admission control sheds every "
               "request before any degradation path can engage",
               "set a positive queue bound (degradation and shedding only "
               "work with room to queue)");
  }
  if (shed_wait_ms > 0 && default_deadline_ms > 0 &&
      shed_wait_ms < default_deadline_ms) {
    report.Add(Severity::kWarning, kCodeServerConfig, "server",
               "shed_wait_ms (" + std::to_string(shed_wait_ms) +
                   "ms) is below the default deadline budget (" +
                   std::to_string(default_deadline_ms) +
                   "ms): requests that could still meet their deadline are "
                   "shed by the wait estimate",
               "raise shed_wait_ms to at least the deadline budget, so only "
               "requests predicted to miss it are refused");
  }
  if (max_queue_depth >= 1 && degrade_queue_depth >= max_queue_depth) {
    report.Add(Severity::kWarning, kCodeServerConfig, "server",
               "degrade_queue_depth (" + std::to_string(degrade_queue_depth) +
                   ") is at or above max_queue_depth (" +
                   std::to_string(max_queue_depth) +
                   "): requests are refused before fail-open degradation "
                   "ever engages, inverting the overload posture",
               "keep the degrade threshold well below the admission bound "
               "so reads degrade before they are shed");
  }
  if (hardware_concurrency > 0 && workers > hardware_concurrency * 4) {
    report.Add(Severity::kWarning, kCodeServerConfig, "server",
               "workers (" + std::to_string(workers) +
                   ") exceeds 4x hardware concurrency (" +
                   std::to_string(hardware_concurrency) +
                   "): oversubscribed workers add context-switch overhead "
                   "and deepen queues without adding throughput",
               "cap workers near the hardware concurrency");
  }
  return report;
}

AnalysisReport AnalyzeProfile(const translate::TranslatedSchema& schema,
                              const obs::QueryProfile& profile) {
  AnalysisReport report;
  std::set<std::string> flagged;
  for (const obs::ProfileNode& node : profile.nodes) {
    if (node.op != "extent-scan" && node.op != "shared-scan") continue;
    const RelationSignature* sig = schema.catalog.Find(node.relation);
    if (sig == nullptr || sig->kind != RelationKind::kClass) continue;
    // Any key on the class (or inherited from a superclass) means an
    // explicit hash index exists for this relation.
    std::vector<std::string> keys;
    const odl::ClassInfo* cur = schema.schema.FindClass(sig->owner);
    while (cur != nullptr) {
      keys.insert(keys.end(), cur->keys.begin(), cur->keys.end());
      cur = cur->super.empty() ? nullptr : schema.schema.FindClass(cur->super);
    }
    if (keys.empty()) continue;
    if (!flagged.insert(sig->name).second) continue;
    std::string key_list;
    for (const std::string& key : keys) {
      if (!key_list.empty()) key_list += ", ";
      key_list += key;
    }
    report.Add(
        Severity::kWarning, kCodeExtentScanWithIndexHint, sig->name,
        "the executed plan scanned the full extent of '" + sig->name +
            "' (" + std::to_string(node.rows_in) +
            " probe(s)) although the class registers an index hint on key " +
            key_list +
            "; the query binds no key attribute, so the index could not "
            "serve the selection",
        "restrict the query on a key attribute (" + key_list +
            "), or add an integrity constraint whose residue implies such a "
            "restriction so the optimizer can introduce it");
  }
  return report;
}

AnalysisReport AnalyzeAsrStaleness(const obs::QueryProfile& profile,
                                   const std::vector<AsrFreshness>& asrs) {
  AnalysisReport report;
  std::set<std::pair<std::string, std::string>> flagged;  // (relation, asr)
  for (const obs::ProfileNode& node : profile.nodes) {
    if (node.op != "extent-scan" && node.op != "shared-scan" &&
        node.op != "pair-scan") {
      continue;
    }
    for (const AsrFreshness& asr : asrs) {
      if (!asr.stale) continue;
      bool covers = asr.name == node.relation;
      for (const std::string& hop : asr.path) {
        if (hop == node.relation) covers = true;
      }
      if (!covers) continue;
      if (!flagged.insert({node.relation, asr.name}).second) continue;
      std::string path_text;
      for (const std::string& hop : asr.path) {
        if (!path_text.empty()) path_text += " . ";
        path_text += hop;
      }
      report.Add(
          Severity::kWarning, kCodeStaleAsr, node.relation,
          "the executed plan fell back to a full " + node.op + " over '" +
              node.relation + "' (" + std::to_string(node.rows_in) +
              " probe(s)) although the persisted access-support relation '" +
              asr.name + "' (path " + path_text +
              ") covers it; the ASR has gone stale after a deletion, so the "
              "materialized join index cannot serve the traversal",
          "re-materialize '" + asr.name +
              "' (ObjectStore::Materialize) so path queries traverse the "
              "refreshed join index instead of rescanning");
      break;  // one diagnostic per scanned relation is enough
    }
  }
  return report;
}

}  // namespace sqo::analysis
