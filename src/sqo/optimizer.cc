#include "sqo/optimizer.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <numeric>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/context.h"
#include "common/fingerprint.h"
#include "common/interner.h"
#include "common/failpoint.h"
#include "common/strings.h"
#include "datalog/unify.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sqo::core {

using datalog::Atom;
using datalog::CmpOp;
using datalog::Literal;
using datalog::Matcher;
using datalog::Query;
using datalog::RelationKind;
using datalog::RelationSignature;
using datalog::Substitution;
using datalog::Term;

std::string Consequence::ToString() const {
  std::string out = is_denial ? "false" : literal.ToString();
  if (!source.empty()) out += " [" + source + "]";
  return out;
}

namespace {

/// The metrics counter of each transformation family, indexed by StepKind.
constexpr const char* kAppliedCounters[] = {
    "optimizer.applied.restriction",
    "optimizer.applied.merge",
    "optimizer.applied.scope_reduction",
    "optimizer.applied.join_introduction",
    "optimizer.applied.restriction_removal",
    "optimizer.applied.join_elimination",
    "optimizer.applied.asr",
};

/// Returns the solver view of a query: its positive comparison atoms,
/// leaving out `body[skip]` when `skip` is a body index.
solver::ConstraintSet QueryConstraints(const Query& query,
                                       size_t skip = SIZE_MAX) {
  solver::ConstraintSet cs;
  for (size_t j = 0; j < query.body.size(); ++j) {
    const Literal& lit = query.body[j];
    if (j != skip && lit.positive && lit.atom.is_comparison()) cs.Add(lit.atom);
  }
  return cs;
}

/// The consequence of a denial residue: the canonical `false`.
const Literal& FalseLiteral() {
  static const Literal* literal = new Literal(
      Literal::Pos(Atom::Comparison(CmpOp::kNe, Term::Int(0), Term::Int(0))));
  return *literal;
}

bool IsReflexiveTrue(const Atom& atom) {
  return atom.is_comparison() && atom.lhs() == atom.rhs() &&
         (atom.op() == CmpOp::kEq || atom.op() == CmpOp::kLe ||
          atom.op() == CmpOp::kGe);
}

bool HasVar(const Atom& atom, sqo::Symbol var) {
  for (const Term& t : atom.args()) {
    if (t.is_variable() && t.var_symbol() == var) return true;
  }
  return false;
}

/// What one in-progress residue match has used: the body literals it
/// matched and the semantic facts the query's comparisons supplied. Kept in
/// step with the matcher's bindings, so a completed match reads off exactly
/// the support and facts of its own solution.
struct MatchTrail {
  std::vector<size_t> literals;
  std::vector<std::pair<Term, Term>> equalities;
  std::vector<Atom> implied;

  struct Mark {
    size_t literals, equalities, implied;
  };
  Mark Save() const {
    return {literals.size(), equalities.size(), implied.size()};
  }
  void RollbackTo(const Mark& m) {
    literals.resize(m.literals);
    equalities.erase(equalities.begin() + static_cast<long>(m.equalities),
                     equalities.end());
    implied.erase(implied.begin() + static_cast<long>(m.implied),
                  implied.end());
  }
  void Clear() { RollbackTo({0, 0, 0}); }
};

/// Recursive backtracking match of the remainder literals of `residue`,
/// from the k-th on, against the query. Calls `on_match` for every complete
/// solution.
template <typename OnMatch>
void MatchRemainder(const Residue& residue, size_t k, Matcher* matcher,
                    MatchTrail* trail, const Query& query,
                    const solver::ConstraintSet::EqualityView& qcs,
                    OnMatch& on_match) {
  if (k == residue.remainder.size()) {
    on_match();
    return;
  }
  // One attempt of `pattern` against body literal `j`; on success matches
  // the rest of the remainder. Undoes both the bindings and the trail.
  auto attempt = [&](const Atom& pattern, const Atom& target, size_t j) {
    const size_t mark = matcher->Mark();
    const MatchTrail::Mark trail_mark = trail->Save();
    if (matcher->MatchAtom(pattern, target)) {
      trail->literals.push_back(j);
      MatchRemainder(residue, k + 1, matcher, trail, query, qcs, on_match);
    }
    matcher->RollbackTo(mark);
    trail->RollbackTo(trail_mark);
  };
  const Literal& lit = residue.remainder[k];
  if (lit.atom.is_comparison()) {
    // Syntactic candidates: query comparison atoms with the same (or the
    // flipped) operator.
    const std::optional<Atom>& flipped = residue.remainder_flipped[k];
    for (size_t j = 0; j < query.body.size(); ++j) {
      const Literal& ql = query.body[j];
      if (!ql.positive || !ql.atom.is_comparison()) continue;
      attempt(lit.atom, ql.atom, j);
      if (flipped.has_value()) attempt(*flipped, ql.atom, j);
    }
    // Semantic candidate: if the comparison is fully instantiated over
    // query terms, ask the solver whether the query implies it.
    const Term& lhs = matcher->Resolve(lit.atom.lhs());
    const Term& rhs = matcher->Resolve(lit.atom.rhs());
    auto unbound = [matcher](const Term& t) {
      return t.is_variable() && matcher->IsBindable(t.var_symbol());
    };
    if (!unbound(lhs) && !unbound(rhs) &&
        qcs.Implies(lit.atom.op(), lhs, rhs)) {
      trail->implied.push_back(Atom::Comparison(lit.atom.op(), lhs, rhs));
      MatchRemainder(residue, k + 1, matcher, trail, query, qcs, on_match);
      trail->implied.pop_back();
    }
    return;
  }
  // Predicate literal: match against query literals of the same polarity.
  for (size_t j = 0; j < query.body.size(); ++j) {
    const Literal& ql = query.body[j];
    if (ql.positive != lit.positive || !ql.atom.is_predicate()) continue;
    attempt(lit.atom, ql.atom, j);
  }
}

/// The fresh variables `_N1`, `_N2`, ... one search node gives the literals
/// it adds: numbered across the node's candidates, skipping the names its
/// query already uses. Numbers are handed out without interning, so a
/// candidate rejected after numbering costs no table lookup.
class FreshNames {
 public:
  explicit FreshNames(const sqo::SymbolSet& query_vars) {
    for (sqo::Symbol v : query_vars) {
      const std::string& name = v.str();
      if (name.size() < 3 || name.size() > 11 || name[0] != '_' ||
          name[1] != 'N' || name[2] == '0') {
        continue;
      }
      if (std::all_of(name.begin() + 2, name.end(),
                      [](char c) { return c >= '0' && c <= '9'; })) {
        taken_.push_back(std::stoll(name.substr(2)));
      }
    }
    std::sort(taken_.begin(), taken_.end());
  }

  /// Advances the numbering by one without naming anything (the number a
  /// wipe prefix used to take, kept so later names do not move).
  void Skip() { ++counter_; }

  /// The number of the next unused name.
  int64_t Next() {
    do {
      ++counter_;
    } while (std::binary_search(taken_.begin(), taken_.end(), counter_));
    return counter_;
  }

  static Term Var(int64_t n) { return Term::Var("_N" + std::to_string(n)); }

 private:
  std::vector<int64_t> taken_;
  int64_t counter_ = 0;
};

/// Renames the variables of `lit` that are not bound to query terms (i.e.
/// still carry the residue prefix and are absent from `query_vars`) to
/// fresh names unused in the query.
Literal FreshenUnbound(const Literal& lit, const sqo::SymbolSet& query_vars,
                       FreshNames* names) {
  Substitution renaming;
  std::vector<sqo::Symbol> vars;
  lit.atom.CollectVariables(&vars);
  for (sqo::Symbol v : vars) {
    if (query_vars.count(v) == 0) {
      renaming.Bind(v, FreshNames::Var(names->Next()));
    }
  }
  return renaming.ApplyToLiteral(lit);
}

sqo::SymbolSet QueryVariables(const Query& q) {
  sqo::SymbolSet out;
  for (const Term& t : q.head_args) {
    if (t.is_variable()) out.insert(t.var_symbol());
  }
  for (const Literal& lit : q.body) {
    for (const Term& t : lit.atom.args()) {
      if (t.is_variable()) out.insert(t.var_symbol());
    }
  }
  return out;
}

/// Builds the common fields of a step record.
DerivationStep MakeStep(StepKind kind, std::string text, std::string source) {
  DerivationStep step;
  step.kind = kind;
  step.text = std::move(text);
  step.source = std::move(source);
  return step;
}

/// True if a relation of kind `sig` is functional from the arguments of
/// `atom` for which `bound_at` holds — the multiplicity gate shared by join
/// introduction and join elimination.
template <typename BoundAt>
bool FunctionalFromBound(const RelationSignature& sig, const Atom& atom,
                         const BoundAt& bound_at) {
  switch (sig.kind) {
    case RelationKind::kClass:
    case RelationKind::kStructure:
      return bound_at(0);
    case RelationKind::kMethod: {
      for (size_t i = 0; i + 1 < atom.arity(); ++i) {
        if (!bound_at(i)) return false;
      }
      return true;
    }
    case RelationKind::kRelationship:
    case RelationKind::kAsr:
      return (bound_at(0) && sig.functional_src_to_dst) ||
             (bound_at(1) && sig.functional_dst_to_src);
  }
  return false;
}

/// The rewriting `base` followed by `step`, which produced `next`. Counts
/// the transformation family (optimizer.applied.<kind>, the paper's
/// taxonomy). The structured step must describe `next` exactly — the
/// verifier replays it through ApplyDerivationStep and rejects any
/// divergence (SQO-A015).
Rewriting Rewrite(const Rewriting& base, Query next, DerivationStep step,
                  uint64_t* applied) {
  // Identical conjuncts are idempotent; drop exact duplicates.
  std::vector<Literal> dedup;
  dedup.reserve(next.body.size());
  for (Literal& l : next.body) {
    if (std::find(dedup.begin(), dedup.end(), l) == dedup.end()) {
      dedup.push_back(std::move(l));
    }
  }
  next.body = std::move(dedup);
  ++applied[static_cast<size_t>(step.kind)];
  Rewriting r;
  r.query = std::move(next);
  r.derivation.reserve(base.derivation.size() + 1);
  r.derivation = base.derivation;
  r.derivation.push_back(step.text);
  r.steps.reserve(base.steps.size() + 1);
  r.steps = base.steps;
  r.steps.push_back(std::move(step));
  return r;
}

}  // namespace

Optimizer::Stats::~Stats() {
  obs::MetricsRegistry* metrics = obs::CurrentMetrics();
  if (metrics == nullptr) return;
  auto publish = [metrics](const char* name, uint64_t value) {
    if (value > 0) metrics->Add(name, value);
  };
  publish("optimizer.residues_tried", residues_tried);
  publish("optimizer.residue_hits", residue_hits);
  publish("optimizer.applicability_skips", applicability_skips);
  publish("optimizer.closures_derived", closures_derived);
  publish("optimizer.closures_extended", closures_extended);
  publish("optimizer.child_closures", child_closures);
  publish("optimizer.fixpoint_scans", fixpoint_scans);
  publish("optimizer.dedup_hits", dedup_hits);
  for (size_t k = 0; k < std::size(applied); ++k) {
    publish(kAppliedCounters[k], applied[k]);
  }
}

/// Residue application over one query: owns the query's equality view and
/// one matcher, reset per residue, and appends every solution of the
/// residue groups it is asked to run to one derivation set.
class Optimizer::Deriver {
 public:
  Deriver(const CompiledSchema& compiled, const Query& query, Stats* stats,
          DerivationSet* out)
      : compiled_(compiled),
        query_(query),
        stats_(stats),
        out_(out),
        qcs_set_(QueryConstraints(query)),
        qcs_(qcs_set_),
        query_vars_(QueryVariables(query)),
        governance_(CurrentContext()),
        matcher_(Matcher::Borrowing(nullptr)) {
    for (const Literal& lit : query.body) {
      if (lit.atom.is_predicate()) {
        pred_groups_.insert(GroupOf(lit.atom.predicate_symbol(), lit.positive));
      }
    }
    out_->words = std::max<size_t>(1, (query.body.size() + 63) / 64);
    // Match modulo the query's own equality theory, so a key residue can
    // align Name with Name2 when the query asserts Name = Name2 (§5.3).
    // Every equality so supplied is a fact the solution relies on.
    matcher_.set_frozen_equiv([this](const Term& x, const Term& y) {
      if (!qcs_.Equal(x, y)) return false;
      trail_.equalities.emplace_back(x, y);
      return true;
    });
  }

  Deriver(const Deriver&) = delete;
  Deriver& operator=(const Deriver&) = delete;

  /// The residues anchored at body[a], or nullptr when it cannot anchor.
  const std::vector<Residue>* ResiduesAt(size_t a) const {
    const Literal& lit = query_.body[a];
    if (!lit.positive || !lit.atom.is_predicate()) return nullptr;
    return compiled_.ResiduesFor(lit.atom.predicate());
  }

  /// Runs `residue` anchored at body[a], appending its solutions. False
  /// when governance has failed, so deriving stops.
  bool Run(uint32_t a, const Residue& residue);

  /// Appends derivation `d` of `from` unchanged but for its indexing: it is
  /// anchored at body[a] here, and body literal j here is support index
  /// `to_from[j]` there.
  void Keep(const DerivationSet& from, uint32_t d, uint32_t a,
            const std::vector<uint32_t>& to_from) {
    const Derivation& src = from.list[d];
    out_->list.push_back(
        Derivation{src.residue, a, src.literal, src.equalities, src.implied});
    uint64_t* row = NewRow();
    for (size_t j = 0; j < to_from.size(); ++j) {
      if (from.Supports(d, to_from[j])) row[j / 64] |= uint64_t{1} << (j % 64);
    }
  }

 private:
  static uint64_t GroupOf(sqo::Symbol pred, bool positive) {
    return static_cast<uint64_t>(pred.id()) * 2 + (positive ? 1 : 0);
  }

  uint64_t* NewRow() {
    out_->support.resize(out_->support.size() + out_->words, 0);
    return &out_->support[out_->support.size() - out_->words];
  }

  void Append(const Residue& residue, uint32_t a, Literal literal) {
    out_->list.push_back(Derivation{&residue, a, std::move(literal),
                                    trail_.equalities, trail_.implied});
    uint64_t* row = NewRow();
    row[a / 64] |= uint64_t{1} << (a % 64);
    for (size_t j : trail_.literals) row[j / 64] |= uint64_t{1} << (j % 64);
  }

  const CompiledSchema& compiled_;
  const Query& query_;
  Stats* stats_;
  DerivationSet* out_;
  const solver::ConstraintSet qcs_set_;
  const solver::ConstraintSet::EqualityView qcs_;
  const sqo::SymbolSet query_vars_;
  ExecutionContext* const governance_;
  // The (predicate, polarity) pairs of the body's predicate literals, for
  // the applicability gate.
  std::unordered_set<uint64_t> pred_groups_;
  MatchTrail trail_;
  Matcher matcher_;
};

bool Optimizer::Deriver::Run(uint32_t a, const Residue& residue) {
  // Applicability gate: every remainder predicate literal needs at least
  // one query literal with the same predicate and polarity — matching
  // requires exact predicate agreement — so a query lacking one can never
  // fire this residue. Skipped attempts do no matcher work and incur no
  // governance charge (no application is attempted).
  for (const auto& [pred, positive] : residue.remainder_predicates) {
    if (pred_groups_.count(GroupOf(pred, positive)) == 0) {
      ++stats_->applicability_skips;
      return true;
    }
  }
  // Derivation returns a plain closure, so governance violations and
  // injected failures latch into the context; the Optimize boundary turns
  // the latched Status into the caller-visible error.
  if (governance_ != nullptr) {
    governance_->LatchError(failpoint::Check("optimizer.apply_residue"));
    governance_->ChargeResidueApplications();
    if (!governance_->ok()) return false;
  }
  const Literal& anchor = query_.body[a];
  // One span per residue tried, tagged hit/miss — the per-transformation
  // cost accounting the Figure-2 trace reports.
  obs::Span residue_span("residue.apply");
  if (residue_span.active()) {
    residue_span.Tag("relation", anchor.atom.predicate());
    residue_span.Tag("source", residue.source);
  }
  ++stats_->residues_tried;

  // Residues were renamed apart at compile time (reserved "_R" prefix);
  // their variable sets are precomputed and interned, so the matcher
  // borrows the set.
  matcher_.Reset(&residue.bindable_symbols);
  trail_.Clear();
  if (!matcher_.MatchAtom(residue.template_atom, anchor.atom)) {
    residue_span.Tag("result", "miss");
    return true;
  }
  bool hit = false;
  auto on_match = [&]() {
    hit = true;
    if (!residue.head.has_value()) {
      Append(residue, a, FalseLiteral());
      return;
    }
    // Evaluable consequences must be fully instantiated, and reflexive ones
    // (X = X from an FD residue matching one atom twice) carry no
    // information; both are decided before anything is instantiated.
    const Atom& head = residue.head->atom;
    if (head.is_comparison()) {
      const Term& lhs = matcher_.Resolve(head.lhs());
      const Term& rhs = matcher_.Resolve(head.rhs());
      auto unbound = [&](const Term& t) {
        return t.is_variable() && query_vars_.count(t.var_symbol()) == 0;
      };
      if (unbound(lhs) || unbound(rhs) ||
          (lhs == rhs && (head.op() == CmpOp::kEq || head.op() == CmpOp::kLe ||
                          head.op() == CmpOp::kGe))) {
        return;
      }
    }
    Append(residue, a, matcher_.subst().ApplyToLiteral(*residue.head));
  };
  MatchRemainder(residue, 0, &matcher_, &trail_, query_, qcs_, on_match);
  residue_span.Tag("result", hit ? "hit" : "miss");
  if (hit) ++stats_->residue_hits;
  return true;
}

Optimizer::Closure Optimizer::Closure::Whole(
    std::shared_ptr<const DerivationSet> set, size_t body_size) {
  Closure closure;
  closure.live.resize(set->list.size());
  std::iota(closure.live.begin(), closure.live.end(), 0u);
  closure.origin.resize(body_size);
  std::iota(closure.origin.begin(), closure.origin.end(), 0u);
  closure.set = std::move(set);
  return closure;
}

Optimizer::Closure Optimizer::Derive(const Query& query, Stats* stats) const {
  ++stats->closures_derived;
  auto set = std::make_shared<DerivationSet>();
  {
    Deriver deriver(*compiled_, query, stats, set.get());
    // Every exit publishes what was derived so far; a truncated closure
    // only reaches a search whose governance latch has already failed it.
    bool ok = true;
    for (uint32_t a = 0; a < query.body.size() && ok; ++a) {
      const std::vector<Residue>* residues = deriver.ResiduesAt(a);
      if (residues == nullptr) continue;
      for (const Residue& residue : *residues) {
        if (!deriver.Run(a, residue)) {
          ok = false;
          break;
        }
      }
    }
  }
  return Closure::Whole(std::move(set), query.body.size());
}

std::optional<Optimizer::Closure> Optimizer::Extend(
    const Closure& closure, const Query& parent,
    const std::vector<uint32_t>& erased, const Query& child,
    Stats* stats) const {
  // The child must be the parent minus `erased` (predicates only, so the
  // equality theory is the parent's) plus one appended predicate literal.
  if (erased.size() > parent.body.size() ||
      child.body.size() != parent.body.size() - erased.size() + 1 ||
      !child.body.back().atom.is_predicate()) {
    return std::nullopt;
  }
  const size_t kept = child.body.size() - 1;
  std::vector<uint32_t> to_set;  // child body j -> support index in the set
  to_set.reserve(kept);
  std::vector<uint32_t> gone;  // support indexes of the erased literals
  size_t e = 0;
  for (uint32_t j = 0; j < parent.body.size(); ++j) {
    if (e < erased.size() && erased[e] == j) {
      if (!parent.body[j].atom.is_predicate()) return std::nullopt;
      gone.push_back(closure.origin[j]);
      ++e;
      continue;
    }
    if (to_set.size() == kept ||
        !(child.body[to_set.size()] == parent.body[j])) {
      return std::nullopt;
    }
    to_set.push_back(closure.origin[j]);
  }
  if (e != erased.size()) return std::nullopt;
  ++stats->closures_extended;
  const DerivationSet& from = *closure.set;
  // The parent's derivations that survive the erasure, in order: a
  // residue's solutions on the shorter body are exactly those avoiding the
  // erased literals (the removal argument of DESIGN.md §5).
  std::vector<uint32_t> kept_live;
  kept_live.reserve(closure.live.size());
  for (uint32_t d : closure.live) {
    bool avoids = true;
    for (uint32_t g : gone) avoids = avoids && !from.Supports(d, g);
    if (avoids) kept_live.push_back(d);
  }

  const Literal& added = child.body.back();
  auto set = std::make_shared<DerivationSet>();
  {
    Deriver deriver(*compiled_, child, stats, set.get());
    // A residue group (anchor, residue) whose remainder cannot match the
    // new literal has exactly its parent solutions, in the same order; a
    // group that can is run again whole, which interleaves its new
    // solutions where a fresh Derive finds them. Groups appear in the set
    // in (anchor, residue) order, so one cursor walks the parent's.
    size_t cursor = 0;
    bool ok = true;
    for (uint32_t a = 0; a < kept && ok; ++a) {
      const std::vector<Residue>* residues = deriver.ResiduesAt(a);
      if (residues == nullptr) continue;
      for (const Residue& residue : *residues) {
        const bool rerun = residue.RemainderMentions(
            added.atom.predicate_symbol(), added.positive);
        for (; cursor < kept_live.size(); ++cursor) {
          const Derivation& d = from.list[kept_live[cursor]];
          if (d.anchor != to_set[a] || d.residue != &residue) break;
          if (!rerun) deriver.Keep(from, kept_live[cursor], a, to_set);
        }
        if (rerun && !deriver.Run(a, residue)) {
          ok = false;
          break;
        }
      }
    }
    // The new literal anchors last, as it is last in the body.
    const std::vector<Residue>* residues =
        ok ? deriver.ResiduesAt(kept) : nullptr;
    if (residues != nullptr) {
      for (const Residue& residue : *residues) {
        if (!deriver.Run(static_cast<uint32_t>(kept), residue)) break;
      }
    }
  }
  return Closure::Whole(std::move(set), child.body.size());
}

Optimizer::Closure Optimizer::Without(
    const Closure& closure, size_t i,
    const solver::ConstraintSet::EqualityView* rest) {
  Closure out;
  out.set = closure.set;
  out.origin = closure.origin;
  out.origin.erase(out.origin.begin() + static_cast<long>(i));
  const uint32_t gone = closure.origin[i];
  // Residue matching is monotone in the body and in the equality theory:
  // every solution on the shorter query is a solution here, with the same
  // bindings, and a solution here survives exactly when it used neither
  // the removed literal nor a fact only the removed literal supplied. Only
  // a positive comparison feeds the equality/implication view, and only
  // then does the caller pass the view of the rest.
  const DerivationSet& set = *closure.set;
  auto holds = [&](const Derivation& d) {
    if (rest == nullptr) return true;
    for (const auto& [x, y] : d.equalities) {
      if (!rest->Equal(x, y)) return false;
    }
    for (const Atom& c : d.implied) {
      if (!rest->Implies(c)) return false;
    }
    return true;
  };
  out.live.reserve(closure.live.size());
  for (uint32_t index : closure.live) {
    if (!set.Supports(index, gone) && holds(set.list[index])) {
      out.live.push_back(index);
    }
  }
  return out;
}

std::vector<const Optimizer::Derivation*> Optimizer::FirstOccurrences(
    const Closure& closure) {
  std::vector<const Derivation*> out;
  // Dedup by structural literal identity (denials all carry the same
  // canonical `false` literal, so a flag suffices for them).
  struct Hash {
    size_t operator()(const Literal* l) const { return l->Hash(); }
  };
  struct Eq {
    bool operator()(const Literal* a, const Literal* b) const {
      return *a == *b;
    }
  };
  std::unordered_set<const Literal*, Hash, Eq> seen;
  bool denial_seen = false;
  for (uint32_t index : closure.live) {
    const Derivation& d = closure.set->list[index];
    if (d.is_denial()) {
      if (denial_seen) continue;
      denial_seen = true;
    } else if (!seen.insert(&d.literal).second) {
      continue;
    }
    out.push_back(&d);
  }
  return out;
}

std::vector<Consequence> Optimizer::Distinct(const Closure& closure) {
  std::vector<Consequence> out;
  for (const Derivation* d : FirstOccurrences(closure)) {
    out.push_back(Consequence{d->literal, d->residue->source, d->is_denial()});
  }
  return out;
}

std::vector<Consequence> Optimizer::ImpliedConsequences(
    const Query& query) const {
  Stats stats;
  return Distinct(Derive(query, &stats));
}

std::vector<Consequence> Optimizer::ConsequencesWithout(const Query& query,
                                                        size_t i) const {
  Stats stats;
  const Literal& removed = query.body[i];
  if (removed.positive && removed.atom.is_comparison()) {
    const solver::ConstraintSet rest_set = QueryConstraints(query, i);
    const solver::ConstraintSet::EqualityView rest(rest_set);
    return Distinct(Without(Derive(query, &stats), i, &rest));
  }
  return Distinct(Without(Derive(query, &stats), i, nullptr));
}

bool Optimizer::CheckContradiction(const Query& query,
                                   const std::vector<Consequence>& consequences,
                                   std::string* reason, Query* witness) const {
  solver::ConstraintSet cs = QueryConstraints(query);
  *witness = query;
  if (!cs.Satisfiable()) {
    *reason = "the query's own restrictions are unsatisfiable";
    return true;
  }
  for (const Consequence& c : consequences) {
    if (c.is_denial) {
      *reason = "integrity constraint denial applies [" + c.source + "]";
      return true;
    }
    if (!c.literal.positive || !c.literal.atom.is_comparison()) continue;
    cs.Add(c.literal.atom);
    witness->body.push_back(c.literal);
    if (!cs.Satisfiable()) {
      *reason = "restriction " + c.literal.atom.ToString() +
                " implied by [" + c.source +
                "] contradicts the query's restrictions";
      return true;
    }
  }
  return false;
}

std::vector<Optimizer::Candidate> Optimizer::Neighbors(
    const Rewriting& base, const Closure& closure, Stats* stats) const {
  std::vector<Candidate> out;
  // A latched governance violation makes further neighbor generation
  // pointless; an empty frontier lets the search drain fast and the
  // boundary check report the original cause.
  if (ExecutionContext* governance = CurrentContext();
      governance != nullptr && !governance->ok()) {
    return out;
  }
  const Query& q = base.query;
  const datalog::RelationCatalog& catalog = compiled_->schema->catalog;
  // Facts about this node, computed once for all its consequences.
  const sqo::SymbolSet query_vars = QueryVariables(q);
  sqo::SymbolSet head_vars;
  for (const Term& t : q.head_args) {
    if (t.is_variable()) head_vars.insert(t.var_symbol());
  }
  // Variables an implied restriction must mention to interact with the
  // query: those of its comparisons and of its projection.
  sqo::SymbolSet interacting = head_vars;
  // Variables occurring in object (OID) positions: position 0 of
  // class/structure/method atoms, either position of relationship/ASR
  // atoms. Equality reasoning between such variables enables join work to
  // be saved (§5.3); equalities between attribute placeholders do not.
  sqo::SymbolSet object_vars;
  for (const Literal& lit : q.body) {
    if (!lit.positive) continue;
    if (lit.atom.is_comparison()) {
      for (const Term& t : lit.atom.args()) {
        if (t.is_variable()) interacting.insert(t.var_symbol());
      }
      continue;
    }
    const RelationSignature* sig = catalog.Find(lit.atom.predicate());
    if (sig == nullptr) continue;
    const bool both = sig->kind == RelationKind::kRelationship ||
                      sig->kind == RelationKind::kAsr;
    for (size_t i = 0; i < (both ? 2u : 1u) && i < lit.atom.arity(); ++i) {
      if (lit.atom.args()[i].is_variable()) {
        object_vars.insert(lit.atom.args()[i].var_symbol());
      }
    }
  }
  const solver::ConstraintSet qcs_set = QueryConstraints(q);
  const solver::ConstraintSet::EqualityView qcs(qcs_set);
  const std::vector<const Derivation*> consequences = FirstOccurrences(closure);
  FreshNames names(query_vars);

  // Growing rewritings derive their closure when first needed: T1 changes
  // the equality theory and T4 renames variables, so both derive afresh;
  // the others append one predicate literal and extend their parent's.
  auto emit = [&](Query next, DerivationStep step,
                  std::optional<std::vector<uint32_t>> grown_without) {
    out.push_back(
        {Rewrite(base, std::move(next), std::move(step), stats->applied),
         std::nullopt, std::move(grown_without)});
  };
  auto is_object_var = [&](const Term& t) {
    return t.is_variable() && object_vars.count(t.var_symbol()) > 0;
  };

  // T1: restriction addition; T2: scope reduction; T4: merges; T5: join
  // introduction.
  for (const Derivation* c : consequences) {
    if (c->is_denial()) continue;
    const Literal& lit = c->literal;
    const std::string& source = c->residue->source;

    if (lit.positive && lit.atom.is_comparison()) {
      // Heuristic (§4.1 calls for transformation-search heuristics): an
      // implied restriction is only promising if it interacts with the
      // rest of the query — its variable already occurs in a comparison or
      // in the projection. A bound on an otherwise-unused attribute can
      // never prune anything (it is implied) but misleads cost models.
      // Equalities between two object variables always interact: they
      // enable OID-comparison plans and downstream removals (§5.3 Q').
      const bool object_equality = lit.atom.op() == CmpOp::kEq &&
                                   is_object_var(lit.atom.lhs()) &&
                                   is_object_var(lit.atom.rhs());
      bool interacts = object_equality;
      for (const Term& t : lit.atom.args()) {
        interacts = interacts ||
                    (t.is_variable() && interacting.count(t.var_symbol()) > 0);
      }
      if (options_.add_restrictions && interacts && !qcs.Implies(lit.atom)) {
        Query next = q;
        next.body.push_back(lit);
        DerivationStep step = MakeStep(
            StepKind::kAddRestriction,
            "add restriction " + lit.atom.ToString() + " [" + source + "]",
            source);
        step.added.push_back(lit);
        emit(std::move(next), std::move(step), std::nullopt);
      }
      // T4: key-implied variable merging (§5.3), for object variables.
      if (options_.merge_equal_variables && object_equality &&
          lit.atom.lhs() != lit.atom.rhs()) {
        // Replace the variable that does not appear in the head, if
        // possible, so projected attributes keep their names.
        sqo::Symbol keep = lit.atom.lhs().var_symbol();
        sqo::Symbol drop = lit.atom.rhs().var_symbol();
        if (head_vars.count(drop) > 0 && head_vars.count(keep) == 0) {
          std::swap(keep, drop);
        }
        Substitution merge;
        merge.Bind(drop, Term::Var(keep));
        Query next = q.Substituted(merge);
        // Drop duplicates and trivially-true comparisons produced by the
        // merge (Z = W becomes Z = Z).
        std::vector<Literal> dedup;
        for (Literal& l : next.body) {
          if (l.positive && IsReflexiveTrue(l.atom)) continue;
          if (std::find(dedup.begin(), dedup.end(), l) == dedup.end()) {
            dedup.push_back(std::move(l));
          }
        }
        next.body = std::move(dedup);
        DerivationStep step = MakeStep(
            StepKind::kMergeVariables,
            "merge " + drop.str() + " into " + keep.str() + " (implied " +
                lit.atom.ToString() + ") [" + source + "]",
            source);
        step.merge_keep = keep.str();
        step.merge_drop = drop.str();
        emit(std::move(next), std::move(step), std::nullopt);
      }
      continue;
    }

    if (!lit.positive && lit.atom.is_predicate()) {
      if (!options_.scope_reduction) continue;
      // The excluded object must be named by the query.
      if (lit.atom.args().empty() ||
          !(lit.atom.args()[0].is_constant() ||
            (lit.atom.args()[0].is_variable() &&
             query_vars.count(lit.atom.args()[0].var_symbol()) > 0))) {
        continue;
      }
      // Negative consequences: unbound head variables are universally
      // quantified (contrapositive semantics). Beyond that, we keep only
      // the OID argument and freshen every attribute position: under the
      // attribute FDs a class tuple with this OID would have to agree with
      // the already-matched attribute values, so "no tuple with these
      // attributes" strengthens soundly to "no tuple with this OID at all"
      // — exactly the paper's `x not in C` (§5.2).
      names.Skip();
      std::vector<int64_t> numbers;
      for (size_t ai = 1; ai < lit.atom.arity(); ++ai) {
        numbers.push_back(names.Next());
      }
      // Skip if an equivalent negative literal (same predicate, same bound
      // OID argument) is already present.
      bool present = false;
      for (const Literal& ql : q.body) {
        if (!ql.positive && ql.atom.is_predicate() &&
            ql.atom.predicate_symbol() == lit.atom.predicate_symbol() &&
            !ql.atom.args().empty() &&
            ql.atom.args()[0] == lit.atom.args()[0]) {
          present = true;
          break;
        }
      }
      if (present) continue;
      std::vector<Term> args = lit.atom.args();
      for (size_t ai = 1; ai < args.size(); ++ai) {
        args[ai] = FreshNames::Var(numbers[ai - 1]);
      }
      Literal fresh(false,
                    Atom::Pred(lit.atom.predicate_symbol(), std::move(args)));
      if (std::find(q.body.begin(), q.body.end(), fresh) != q.body.end()) {
        continue;
      }
      Query next = q;
      next.body.push_back(fresh);
      DerivationStep step = MakeStep(
          StepKind::kScopeReduction,
          "reduce scope: add " + fresh.ToString() + " [" + source + "]",
          source);
      step.added.push_back(fresh);
      emit(std::move(next), std::move(step), std::vector<uint32_t>{});
      continue;
    }

    if (lit.positive && lit.atom.is_predicate()) {
      if (!options_.join_introduction) continue;
      const RelationSignature* sig = catalog.Find(lit.atom.predicate());
      if (sig == nullptr) continue;
      if (!options_.introduce_class_atoms &&
          sig->kind != RelationKind::kRelationship &&
          sig->kind != RelationKind::kAsr) {
        continue;
      }
      // Skip introducing the inverse of a relationship atom already in the
      // query: the pair carries the same information, and stores maintain
      // both directions of a declared inverse anyway.
      if (sig->kind == RelationKind::kRelationship && lit.atom.arity() == 2) {
        const odl::ResolvedRelationship* decl =
            compiled_->schema->schema.FindRelationship(sig->owner,
                                                       sig->display_name);
        if (decl != nullptr && !decl->inverse.empty()) {
          const sqo::Symbol inv = sqo::Intern(sqo::ToLower(decl->inverse));
          bool inverse_present = false;
          for (const Literal& ql : q.body) {
            if (ql.positive && ql.atom.is_predicate() &&
                ql.atom.predicate_symbol() == inv && ql.atom.arity() == 2 &&
                ql.atom.args()[0] == lit.atom.args()[1] &&
                ql.atom.args()[1] == lit.atom.args()[0]) {
              inverse_present = true;
              break;
            }
          }
          if (inverse_present) continue;
        }
      }
      // Skip if an existing literal subsumes the consequence (match the
      // consequence's unbound variables against it).
      sqo::SymbolSet unbound;
      for (const Term& t : lit.atom.args()) {
        if (t.is_variable() && query_vars.count(t.var_symbol()) == 0) {
          unbound.insert(t.var_symbol());
        }
      }
      bool present = false;
      Matcher m = Matcher::Borrowing(&unbound);
      for (const Literal& ql : q.body) {
        if (ql.positive && ql.atom.is_predicate() &&
            m.MatchAtom(lit.atom, ql.atom)) {
          present = true;
          break;
        }
      }
      if (present) continue;
      // Multiplicity gate: existential variables are safe only if the
      // relation is functional from its bound arguments.
      const bool safe =
          unbound.empty() ||
          FunctionalFromBound(*sig, lit.atom, [&](size_t i) {
            const Term& t = lit.atom.args()[i];
            return t.is_constant() ||
                   (t.is_variable() && unbound.count(t.var_symbol()) == 0);
          });
      if (!safe) continue;
      Literal fresh = FreshenUnbound(lit, query_vars, &names);
      Query next = q;
      next.body.push_back(fresh);
      DerivationStep step = MakeStep(
          StepKind::kIntroduceJoin,
          "introduce join " + fresh.atom.ToString() + " [" + source + "]",
          source);
      step.added.push_back(fresh);
      emit(std::move(next), std::move(step), std::vector<uint32_t>{});
      continue;
    }
  }

  Reductions(base, closure, /*first_only=*/false, &out, stats);

  // T7: ASR folding — replace a matched relationship path by the ASR.
  if (options_.asr_rewriting) {
    for (const AsrDefinition& asr : compiled_->asrs) {
      const size_t k = asr.path.size();
      // Candidate literal indexes per path position.
      std::vector<std::vector<size_t>> cands(k);
      bool any_empty = false;
      for (size_t p = 0; p < k && !any_empty; ++p) {
        for (size_t i = 0; i < q.body.size(); ++i) {
          const Literal& lit = q.body[i];
          if (lit.positive && lit.atom.is_predicate() &&
              lit.atom.predicate() == asr.path[p] && lit.atom.arity() == 2) {
            cands[p].push_back(i);
          }
        }
        any_empty = cands[p].empty();
      }
      if (k == 0 || any_empty) continue;

      // Backtracking over injective assignments with chained variables.
      std::vector<size_t> chosen(k, 0);
      std::function<void(size_t, Matcher*)> search = [&](size_t p,
                                                         Matcher* matcher) {
        if (p == k) {
          // Emit one fold per valid cut: the path prefix r1..rc is removed
          // and replaced by the ASR; the suffix is retained. cut == k is
          // the full fold (§5.4 Q'); cut < k keeps suffix hops that bind
          // head or shared variables, justified when every retained hop is
          // functional from its target (§5.4 Q1' retains the one-to-one
          // has_ta). Prefix interiors must be local to the removed atoms.
          for (size_t cut = k; cut >= 1; --cut) {
            bool suffix_ok = true;
            for (size_t j = cut; j < k && suffix_ok; ++j) {
              const RelationSignature* hop = catalog.Find(asr.path[j]);
              suffix_ok = hop != nullptr && hop->functional_dst_to_src;
            }
            if (!suffix_ok) continue;
            std::vector<uint32_t> removed(
                chosen.begin(), chosen.begin() + static_cast<long>(cut));
            std::sort(removed.begin(), removed.end());
            auto is_removed = [&](size_t j) {
              return std::binary_search(removed.begin(), removed.end(), j);
            };
            bool interiors_local = true;
            for (size_t vi = 1; vi < cut && interiors_local; ++vi) {
              const Term bound =
                  matcher->subst().Apply(Term::Var(asr.path_vars[vi]));
              if (!bound.is_variable()) {
                interiors_local = false;
                break;
              }
              const sqo::Symbol v = bound.var_symbol();
              interiors_local = head_vars.count(v) == 0;
              for (size_t j = 0; j < q.body.size() && interiors_local; ++j) {
                if (!is_removed(j) && HasVar(q.body[j].atom, v)) {
                  interiors_local = false;
                }
              }
            }
            if (!interiors_local) continue;
            Query next;
            next.name = q.name;
            next.head_args = q.head_args;
            for (size_t j = 0; j < q.body.size(); ++j) {
              if (!is_removed(j)) next.body.push_back(q.body[j]);
            }
            Literal asr_lit = Literal::Pos(Atom::Pred(
                asr.name,
                {matcher->subst().Apply(Term::Var(asr.path_vars.front())),
                 matcher->subst().Apply(Term::Var(asr.path_vars.back()))}));
            next.body.push_back(asr_lit);
            DerivationStep step = MakeStep(
                StepKind::kFoldAsr,
                cut == k
                    ? "fold path into access support relation " + asr.name
                    : "fold path prefix (" + std::to_string(cut) +
                          " hops) into access support relation " + asr.name,
                asr.name);
            for (size_t j : removed) step.removed.push_back(q.body[j]);
            step.added.push_back(std::move(asr_lit));
            emit(std::move(next), std::move(step), std::move(removed));
          }
          return;
        }
        for (size_t idx : cands[p]) {
          bool used = false;
          for (size_t pp = 0; pp < p; ++pp) used = used || chosen[pp] == idx;
          if (used) continue;
          size_t mark = matcher->Mark();
          Atom pattern = Atom::Pred(asr.path[p],
                                    {Term::Var(asr.path_vars[p]),
                                     Term::Var(asr.path_vars[p + 1])});
          if (matcher->MatchAtom(pattern, q.body[idx].atom)) {
            chosen[p] = idx;
            search(p + 1, matcher);
          }
          matcher->RollbackTo(mark);
        }
      };
      std::set<std::string> bindable(asr.path_vars.begin(),
                                     asr.path_vars.end());
      Matcher matcher(bindable);
      search(0, &matcher);
    }
  }

  return out;
}

void Optimizer::Reductions(const Rewriting& base, const Closure& closure,
                           bool first_only, std::vector<Candidate>* out,
                           Stats* stats) const {
  const Query& q = base.query;
  const DerivationSet& set = *closure.set;
  // A removal's query is its parent's minus one literal, so it inherits its
  // parent's closure, filtered — unless dropping a duplicate conjunct
  // renumbered the body. The child closure is built only for a removal
  // that applies.
  auto emit = [&](size_t i, DerivationStep step,
                  const solver::ConstraintSet::EqualityView* rest) {
    Query next = q;
    next.body.erase(next.body.begin() + static_cast<long>(i));
    const size_t size = next.body.size();
    ++stats->child_closures;
    Candidate candidate{
        Rewrite(base, std::move(next), std::move(step), stats->applied),
        Without(closure, i, rest), std::nullopt};
    if (candidate.rewriting.query.body.size() != size) {
      candidate.closure.reset();
    }
    out->push_back(std::move(candidate));
  };

  // The live derivations that imply a comparison, and those that imply a
  // predicate literal, in live order: what T3 and T6 read.
  std::vector<uint32_t> implied_comparisons;
  std::vector<uint32_t> implied_predicates;
  for (uint32_t index : closure.live) {
    const Derivation& d = set.list[index];
    if (d.is_denial() || !d.literal.positive) continue;
    (d.literal.atom.is_comparison() ? implied_comparisons : implied_predicates)
        .push_back(index);
  }

  // T3: restriction removal — a comparison implied by the rest of the query.
  if (options_.remove_restrictions) {
    for (size_t i = 0; i < q.body.size(); ++i) {
      const Literal& lit = q.body[i];
      if (!lit.positive || !lit.atom.is_comparison()) continue;
      // One view of the remaining comparisons serves the implication check
      // and the recheck of the facts the surviving derivations used.
      const solver::ConstraintSet rest_set = QueryConstraints(q, i);
      const solver::ConstraintSet::EqualityView rest(rest_set);
      bool implied = rest.Implies(lit.atom);
      std::string via = "remaining restrictions";
      if (!implied) {
        // The comparisons the rest implies: those of the derivations that
        // survive the removal.
        solver::ConstraintSet with_consequences = rest_set;
        const uint32_t gone = closure.origin[i];
        for (uint32_t index : implied_comparisons) {
          if (set.Supports(index, gone)) continue;
          const Derivation& d = set.list[index];
          bool holds = true;
          for (const auto& [x, y] : d.equalities) {
            holds = holds && rest.Equal(x, y);
          }
          for (const Atom& c : d.implied) holds = holds && rest.Implies(c);
          if (holds) with_consequences.Add(d.literal.atom);
        }
        implied = solver::ConstraintSet::EqualityView(with_consequences)
                      .Implies(lit.atom);
        via = "remaining restrictions plus implied consequences";
      }
      if (implied) {
        DerivationStep step = MakeStep(
            StepKind::kRemoveRestriction,
            "remove redundant restriction " + lit.atom.ToString() + " (" + via +
                ")",
            via);
        step.removed.push_back(lit);
        emit(i, std::move(step), &rest);
        if (first_only) return;
      }
    }
  }

  // T6: join elimination — a predicate literal implied by the rest.
  if (options_.join_elimination) {
    // Occurrences of each variable: the number of body literals it occurs
    // in, and whether the head projects it. Counted once per query.
    std::vector<std::pair<sqo::Symbol, uint32_t>> body_count;
    std::vector<sqo::Symbol> vars;
    auto count_of = [&](sqo::Symbol v) -> uint32_t& {
      for (auto& [var, n] : body_count) {
        if (var == v) return n;
      }
      return body_count.emplace_back(v, 0).second;
    };
    for (const Literal& l : q.body) {
      vars.clear();
      l.atom.CollectVariables(&vars);
      for (sqo::Symbol v : vars) ++count_of(v);
    }
    sqo::SymbolSet head_vars;
    for (const Term& t : q.head_args) {
      if (t.is_variable()) head_vars.insert(t.var_symbol());
    }

    sqo::SymbolSet solo;
    Matcher m = Matcher::Borrowing(&solo);
    for (size_t i = 0; i < q.body.size(); ++i) {
      const Literal& lit = q.body[i];
      if (!lit.positive || !lit.atom.is_predicate()) continue;
      const RelationSignature* sig =
          compiled_->schema->catalog.Find(lit.atom.predicate());
      if (sig == nullptr) continue;

      // Solo variables: occur in this literal only (not in the head, not
      // elsewhere in the body).
      solo.clear();
      vars.clear();
      lit.atom.CollectVariables(&vars);
      for (sqo::Symbol v : vars) {
        if (head_vars.count(v) == 0 && count_of(v) == 1) solo.insert(v);
      }

      // Multiplicity gate, mirroring join introduction.
      const bool safe =
          solo.empty() ||
          FunctionalFromBound(*sig, lit.atom, [&](size_t pos) {
            const Term& t = lit.atom.args()[pos];
            return t.is_constant() ||
                   (t.is_variable() && solo.count(t.var_symbol()) == 0);
          });
      if (!safe) continue;

      bool implied = false;
      std::string source;
      // A remaining literal that differs only in this literal's solo
      // variables already implies it (the duplicate-atom case of §5.3
      // after variable merging).
      m.Reset(&solo);
      for (size_t j = 0; j < q.body.size() && !implied; ++j) {
        const Literal& other = q.body[j];
        if (j == i || !other.positive || !other.atom.is_predicate()) continue;
        if (m.MatchAtom(lit.atom, other.atom)) {
          implied = true;
          source = "subsumed by " + other.atom.ToString();
        }
      }
      // The first derivation surviving the removal whose literal implies
      // this one is the first occurrence of that literal, so its source is
      // the one the consequence list of the rest reports. Removing a
      // predicate changes no fact, so survival is the support bit alone.
      const uint32_t gone = closure.origin[i];
      for (size_t k = 0; k < implied_predicates.size() && !implied; ++k) {
        const uint32_t index = implied_predicates[k];
        const Derivation& d = set.list[index];
        if (d.literal.atom.predicate_symbol() != lit.atom.predicate_symbol() ||
            set.Supports(index, gone)) {
          continue;
        }
        m.Reset(&solo);
        if (m.MatchAtom(lit.atom, d.literal.atom)) {
          implied = true;
          source = d.residue->source;
        }
      }
      if (implied) {
        DerivationStep step = MakeStep(
            StepKind::kEliminateJoin,
            "eliminate join " + lit.atom.ToString() + " [" + source + "]",
            source);
        step.removed.push_back(lit);
        emit(i, std::move(step), nullptr);
        if (first_only) return;
      }
    }
  }
}

/// What one Optimize call knows about removals, keyed by the exact query
/// (a renaming-equivalent query has other variable names, and a reordered
/// body can pick another first removal).
struct Optimizer::FixpointMemo {
  struct Suffix {
    std::vector<DerivationStep> steps;
    Query result;
  };
  struct QueryHash {
    size_t operator()(const Query& q) const { return q.Hash(); }
  };
  /// Reduced queries: the removal steps to their fixpoint, and the fixpoint.
  std::unordered_map<Query, Suffix, QueryHash> suffixes;
  /// Expanded queries: the first applicable removal, as the search's full
  /// removal scan found it; nullopt when none applies.
  std::unordered_map<Query, std::optional<Candidate>, QueryHash> first_removals;
};

Rewriting Optimizer::ReduceToFixpoint(Rewriting base, Closure closure,
                                      FixpointMemo* memo, Stats* stats) const {
  std::vector<Query> path;            // the queries reduced here, in order
  std::vector<DerivationStep> taken;  // taken[k] leads on from path[k]
  std::vector<DerivationStep> tail;   // the known suffix the chain ran into
  // Reductions strictly shrink the body, so this terminates.
  for (size_t guard = 0; guard < 64; ++guard) {
    if (auto known = memo->suffixes.find(base.query);
        known != memo->suffixes.end()) {
      tail = known->second.steps;
      for (const DerivationStep& step : tail) {
        ++stats->applied[static_cast<size_t>(step.kind)];
        base.derivation.push_back(step.text);
        base.steps.push_back(step);
      }
      base.query = known->second.result;
      break;
    }
    path.push_back(base.query);
    std::optional<Candidate> next;
    if (auto first = memo->first_removals.find(base.query);
        first != memo->first_removals.end()) {
      if (!first->second.has_value()) break;
      next = std::move(first->second);
      ++stats->applied[static_cast<size_t>(next->rewriting.steps.back().kind)];
    } else {
      ++stats->fixpoint_scans;
      std::vector<Candidate> reduced;
      Reductions(base, closure, /*first_only=*/true, &reduced, stats);
      if (reduced.empty()) break;
      next = std::move(reduced.front());
    }
    // The removal's query and step; its history is this chain's.
    taken.push_back(next->rewriting.steps.back());
    base.derivation.push_back(taken.back().text);
    base.steps.push_back(taken.back());
    base.query = std::move(next->rewriting.query);
    closure = next->closure.has_value() ? std::move(*next->closure)
                                        : Derive(base.query, stats);
  }
  for (size_t k = 0; k < path.size(); ++k) {
    FixpointMemo::Suffix suffix;
    suffix.steps.assign(taken.begin() + static_cast<long>(k), taken.end());
    suffix.steps.insert(suffix.steps.end(), tail.begin(), tail.end());
    suffix.result = base.query;
    memo->first_removals.erase(path[k]);
    memo->suffixes.emplace(std::move(path[k]), std::move(suffix));
  }
  return base;
}

sqo::Result<OptimizationOutcome> Optimizer::Optimize(const Query& query) const {
  obs::Span span("step3.optimize");
  SQO_FAILPOINT("optimizer.optimize");
  SQO_RETURN_IF_ERROR(CheckGovernance("optimizer.optimize"));
  Stats stats;
  OptimizationOutcome outcome;
  uint64_t pruned = 0;  // rewritings rediscovered (dedup) or over the cap

  // closures[i] is the closure of outcome.equivalents[i], made when first
  // needed unless a removal handed it down: extended from its parent's
  // when grown[i] records how the alternative grew from it, else derived.
  struct Growth {
    size_t parent;
    std::vector<uint32_t> erased;
  };
  std::vector<std::optional<Closure>> closures;
  std::vector<std::optional<Growth>> grown;
  auto closure_of = [&](size_t i) -> const Closure& {
    if (!closures[i].has_value() && grown[i].has_value()) {
      const Growth& g = *grown[i];
      if (closures[g.parent].has_value()) {
        closures[i] = Extend(*closures[g.parent],
                             outcome.equivalents[g.parent].query, g.erased,
                             outcome.equivalents[i].query, &stats);
      }
    }
    if (!closures[i].has_value()) {
      closures[i] = Derive(outcome.equivalents[i].query, &stats);
    }
    return *closures[i];
  };
  Rewriting original;
  original.query = query;
  outcome.equivalents.push_back(std::move(original));
  closures.emplace_back();
  grown.emplace_back();

  if (options_.detect_contradictions) {
    obs::Span check_span("optimize.contradiction_check");
    if (CheckContradiction(query, Distinct(closure_of(0)),
                           &outcome.contradiction_reason,
                           &outcome.contradiction_witness)) {
      outcome.contradiction = true;
      check_span.Tag("contradiction", "true");
      obs::Count("optimizer.contradictions");
      return outcome;
    }
  }

  // Bounded breadth-first search over rewritings, deduplicated by hashed
  // canonical fingerprint (128-bit; see DESIGN.md on why a hash suffices).
  {
    obs::Span search_span("optimize.search");
    FixpointMemo memo;
    std::unordered_set<sqo::Fingerprint128, sqo::FingerprintHash> seen;
    std::deque<std::pair<size_t, int>> frontier;  // (alternative, depth)
    seen.insert(query.CanonicalFingerprint());
    frontier.emplace_back(0, 0);

    while (!frontier.empty() &&
           outcome.equivalents.size() < options_.max_alternatives) {
      SQO_RETURN_IF_ERROR(CheckGovernance("optimizer.search"));
      const auto [current, depth] = frontier.front();
      frontier.pop_front();
      if (depth >= options_.max_depth) continue;
      std::vector<Candidate> neighbors =
          Neighbors(outcome.equivalents[current], closure_of(current), &stats);
      if (options_.reduce_to_fixpoint) {
        // The full removal scan's first candidate is the first removal the
        // fixpoint would find for this query.
        std::optional<Candidate> first;
        for (const Candidate& next : neighbors) {
          const StepKind kind = next.rewriting.steps.back().kind;
          if (kind == StepKind::kRemoveRestriction ||
              kind == StepKind::kEliminateJoin) {
            first = next;
            break;
          }
        }
        memo.first_removals.emplace(outcome.equivalents[current].query,
                                    std::move(first));
      }
      for (Candidate& next : neighbors) {
        sqo::Fingerprint128 key = next.rewriting.query.CanonicalFingerprint();
        if (!seen.insert(key).second) {
          ++pruned;
          ++stats.dedup_hits;
          continue;
        }
        if (outcome.equivalents.size() >= options_.max_alternatives) {
          ++pruned;
          break;
        }
        if (ExecutionContext* governance = CurrentContext()) {
          governance->ChargeAlternatives();
          if (!governance->ok()) break;
        }
        outcome.equivalents.push_back(std::move(next.rewriting));
        closures.push_back(std::move(next.closure));
        if (next.grown_without.has_value()) {
          grown.push_back(Growth{current, std::move(*next.grown_without)});
        } else {
          grown.emplace_back();
        }
        frontier.emplace_back(outcome.equivalents.size() - 1, depth + 1);
      }
    }
    SQO_RETURN_IF_ERROR(CheckGovernance("optimizer.search"));

    // Normalize: reduce every alternative to a removal fixpoint, bypassing
    // the depth bound for monotonically shrinking chains (§5.3's
    // merge → drop attribute join → drop duplicate atom).
    if (options_.reduce_to_fixpoint) {
      obs::Span fixpoint_span("optimize.fixpoint");
      const size_t n = outcome.equivalents.size();
      for (size_t i = 0; i < n; ++i) {
        SQO_RETURN_IF_ERROR(CheckGovernance("optimizer.fixpoint"));
        Rewriting reduced = ReduceToFixpoint(outcome.equivalents[i],
                                             closure_of(i), &memo, &stats);
        sqo::Fingerprint128 key = reduced.query.CanonicalFingerprint();
        if (seen.insert(key).second) {
          outcome.equivalents.push_back(std::move(reduced));
        } else {
          ++pruned;
          ++stats.dedup_hits;
        }
      }
    }
  }
  obs::Count("optimizer.alternatives_generated", outcome.equivalents.size());
  obs::Count("optimizer.alternatives_pruned", pruned);
  // The intern table only grows, process-wide: a point-in-time reading.
  obs::Gauge("interner.size", sqo::InternerSize());
  span.Tag("alternatives", static_cast<uint64_t>(outcome.equivalents.size()));
  span.Tag("pruned", pruned);
  return outcome;
}

}  // namespace sqo::core
