#ifndef SQO_SQO_OPTIMIZER_H_
#define SQO_SQO_OPTIMIZER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "datalog/clause.h"
#include "solver/constraint_set.h"
#include "sqo/derivation.h"
#include "sqo/semantic_compiler.h"

namespace sqo::core {

/// Knobs for Step 3. Each transformation family can be toggled; depth
/// bounds the chaining of transformations (e.g. §5.4's join introduction
/// followed by ASR folding needs depth ≥ 2).
struct OptimizerOptions {
  int max_depth = 3;
  size_t max_alternatives = 64;

  bool detect_contradictions = true;  // §5.1
  bool add_restrictions = true;       // restriction introduction
  bool remove_restrictions = true;    // redundant-restriction elimination
  bool scope_reduction = true;        // §5.2: ¬subclass literals
  bool merge_equal_variables = true;  // §5.3: key-implied OID merging
  bool join_introduction = true;      // §5.4: implied predicate addition
  bool join_elimination = true;       // implied predicate removal
  bool asr_rewriting = true;          // §5.4: path folding into ASRs

  /// Also introduce implied class/structure/method atoms (upcasts, struct
  /// lookups). Sound but rarely profitable; off by default to keep the
  /// search space focused on relationship/ASR introductions.
  bool introduce_class_atoms = false;

  /// After the bounded search, reduce every alternative to a fixpoint of
  /// the removal transformations (redundant restrictions, implied joins),
  /// bypassing the depth bound for monotonically shrinking chains.
  bool reduce_to_fixpoint = true;
};

/// One semantically equivalent rewriting of the input query, with a
/// human-readable log of the transformations that produced it and the
/// structured step records the verifier replays (`steps[i].text ==
/// derivation[i]`; both are empty for the unmodified original).
struct Rewriting {
  datalog::Query query;
  std::vector<std::string> derivation;
  std::vector<DerivationStep> steps;
};

/// The result of Step 3. If `contradiction` is set the query is
/// unsatisfiable under the integrity constraints: it need not be evaluated
/// at all, and `contradiction_witness` is the augmented query exhibiting
/// the conflict (the paper's Q' with both V < 1000 and V > 3000).
struct OptimizationOutcome {
  bool contradiction = false;
  std::string contradiction_reason;
  datalog::Query contradiction_witness;

  /// Equivalent queries; index 0 is always the (unmodified) input.
  std::vector<Rewriting> equivalents;
};

/// A consequence implied by the query under the compiled residues: the
/// instantiated residue head. Variables that remained unbound after
/// matching (existentials of the IC head) keep their canonical `_R`-prefix
/// names; transformations rename them apart from the query when adding.
struct Consequence {
  datalog::Literal literal;
  std::string source;      // originating IC label
  bool is_denial = false;  // residue head was `false`

  std::string ToString() const;
};

/// The Step-3 semantic optimizer: applies compiled residues to a query,
/// derives implied consequences, and searches the (bounded) space of
/// equivalent rewritings. Each residue match is done once: a removal reads
/// its result off its parent's derivations, an appended predicate literal
/// re-runs only the residue groups that can match it, and the reduction
/// fixpoint of a query is computed once per Optimize call.
class Optimizer {
 public:
  explicit Optimizer(const CompiledSchema* compiled, OptimizerOptions options = {})
      : compiled_(compiled), options_(options) {}

  /// Runs the full Step-3 search on `query`.
  sqo::Result<OptimizationOutcome> Optimize(const datalog::Query& query) const;

  /// Applies every attached residue to `query` and returns the implied
  /// consequences, each literal once, with the source of its first
  /// derivation. Exposed for tests and diagnostics.
  std::vector<Consequence> ImpliedConsequences(const datalog::Query& query) const;

  /// The search's removal probe: the consequences of `query` without
  /// `query.body[i]` (`i` must index the body), read off the derivations
  /// of `query` itself rather than by applying residues to the shorter
  /// query. Equal, literal for literal and source for source, to
  /// ImpliedConsequences of `query` with `body[i]` erased (DESIGN.md §5
  /// has the argument).
  std::vector<Consequence> ConsequencesWithout(const datalog::Query& query,
                                               size_t i) const;

 private:
  /// Compares extended and filtered closures with fresh ones (tests).
  friend class ClosureProbe;

  /// One solution of one residue application: the consequence it implies
  /// (the instantiated head; the canonical `0 != 0` for a denial), the
  /// anchor it was matched from and the semantic facts it relied on. Its
  /// support — the anchor and every remainder literal matched
  /// syntactically — is a bit row of the set holding it.
  struct Derivation {
    const Residue* residue;  // source label and denial-ness
    uint32_t anchor;         // support index of the anchor literal
    datalog::Literal literal;
    /// Pairs of distinct frozen terms the query's equality theory equated.
    std::vector<std::pair<datalog::Term, datalog::Term>> equalities;
    /// Remainder comparisons the query's comparisons implied.
    std::vector<datalog::Atom> implied;

    bool is_denial() const { return !residue->head.has_value(); }
  };

  /// The derivations of one query, in the order a residue application
  /// finds them: by anchor, then residue, then match. Bit j of a
  /// derivation's support row is body literal j of that query.
  struct DerivationSet {
    std::vector<Derivation> list;
    std::vector<uint64_t> support;  // `words` words per derivation
    size_t words = 1;

    bool Supports(uint32_t d, uint32_t index) const {
      return (support[d * words + index / 64] >> (index % 64)) & 1u;
    }
  };

  /// The derivations of one query. A query reached from another by
  /// removals shares that query's derivations and keeps the ones that
  /// still hold.
  struct Closure {
    std::shared_ptr<const DerivationSet> set;
    std::vector<uint32_t> live;    // indexes of the derivations that hold
    std::vector<uint32_t> origin;  // origin[j]: support index of body[j]

    /// Every derivation of `set`, the closure of the query of `body_size`
    /// literals it was derived for.
    static Closure Whole(std::shared_ptr<const DerivationSet> set,
                         size_t body_size);
  };

  /// A rewriting, with its query's closure when a removal made it known,
  /// or, when the step appended one predicate literal (T2, T5, T7), the
  /// parent body indexes it erased, so the closure can extend the
  /// parent's.
  struct Candidate {
    Rewriting rewriting;
    std::optional<Closure> closure;
    std::optional<std::vector<uint32_t>> grown_without;
  };

  /// Work counters of one Optimize (or consequence) call, published to the
  /// thread's metrics registry once, when the call ends.
  struct Stats {
    uint64_t residues_tried = 0;
    uint64_t residue_hits = 0;
    uint64_t applicability_skips = 0;
    uint64_t closures_derived = 0;   // fresh Derive calls
    uint64_t closures_extended = 0;  // semi-naive extensions of a parent's
    uint64_t child_closures = 0;     // removal children's filtered closures
    uint64_t fixpoint_scans = 0;     // first-only reduction scans
    uint64_t dedup_hits = 0;
    uint64_t applied[7] = {};        // rewritings emitted, by StepKind

    Stats() = default;
    Stats(const Stats&) = delete;
    Stats& operator=(const Stats&) = delete;
    ~Stats();
  };

  class Deriver;
  struct FixpointMemo;

  /// Applies every attached residue to `query` once, recording every
  /// solution.
  Closure Derive(const datalog::Query& query, Stats* stats) const;

  /// The closure of `child`, which is `parent` without the body literals
  /// `erased` and with one predicate literal appended, extended from
  /// `closure` (the closure of `parent`): the residue groups that cannot
  /// match the new literal are kept, the others run again, and the new
  /// literal anchors last — derivation for derivation a fresh Derive.
  /// nullopt when `child`'s body is not of that form.
  std::optional<Closure> Extend(const Closure& closure,
                                const datalog::Query& parent,
                                const std::vector<uint32_t>& erased,
                                const datalog::Query& child,
                                Stats* stats) const;

  /// The closure of a query without its body literal `i`: the derivations
  /// whose support avoids `i` and, when a positive comparison goes, whose
  /// facts still hold under `rest`, the view of the remaining comparisons
  /// (nullptr for any other literal).
  static Closure Without(const Closure& closure, size_t i,
                         const solver::ConstraintSet::EqualityView* rest);

  /// The closure's first live derivation of each distinct consequence.
  static std::vector<const Derivation*> FirstOccurrences(
      const Closure& closure);

  /// The closure's consequences, each literal once, from its first live
  /// derivation.
  static std::vector<Consequence> Distinct(const Closure& closure);

  /// Single-step rewritings of `base` (whose closure is `closure`): the
  /// growing transformations (restriction/join/scope additions, merges,
  /// ASR folds) and the shrinking ones (restriction removal, join
  /// elimination).
  std::vector<Candidate> Neighbors(const Rewriting& base,
                                   const Closure& closure, Stats* stats) const;

  /// Appends the removal rewritings of `base` to `out`, stopping after the
  /// first one when `first_only`.
  void Reductions(const Rewriting& base, const Closure& closure,
                  bool first_only, std::vector<Candidate>* out,
                  Stats* stats) const;

  /// Applies the first applicable reduction until none applies, reusing
  /// from `memo` the removal suffix of any query already reduced and the
  /// first removal of any query the search expanded.
  Rewriting ReduceToFixpoint(Rewriting base, Closure closure,
                             FixpointMemo* memo, Stats* stats) const;

  /// True if the query's own comparisons plus its implied evaluable
  /// consequences are jointly unsatisfiable; fills reason/witness.
  bool CheckContradiction(const datalog::Query& query,
                          const std::vector<Consequence>& consequences,
                          std::string* reason,
                          datalog::Query* witness) const;

  const CompiledSchema* compiled_;
  OptimizerOptions options_;
};

}  // namespace sqo::core

#endif  // SQO_SQO_OPTIMIZER_H_
