#ifndef SQO_ANALYSIS_ANALYZER_H_
#define SQO_ANALYSIS_ANALYZER_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "common/value.h"
#include "datalog/clause.h"
#include "datalog/signature.h"
#include "obs/profile.h"
#include "sqo/residue.h"
#include "translate/schema_translator.h"

namespace sqo::analysis {

/// Stable diagnostic codes, one family per analysis pass. The residue
/// method (paper §2, Chakravarthy–Grant–Minker) is only sound when the ICs
/// handed to the semantic compiler are safe, well-typed and mutually
/// consistent; each code guards one of those preconditions (see DESIGN.md).
///
///   code      pass            severity  finding
///   SQO-A001  safety          error     comparison/negative-literal variable
///                                       not bound in a positive body atom
///   SQO-A002  signature       error     unknown relation
///   SQO-A003  signature       error     atom arity mismatch
///   SQO-A004  signature       error     constant argument type incompatible
///                                       with the attribute's declared type
///   SQO-A005  contradiction   error     IC subset unsatisfiable: some legal
///                                       instance pattern is forced empty
///   SQO-A006  redundancy      warning   IC fully subsumed by another IC
///   SQO-A007  dead residue    warning   residue guard can never hold
///   SQO-A008  query lint      error     unbound head/comparison variable in
///                                       a DATALOG query
///   SQO-A009  query lint      warning   trivially false literal /
///                                       unsatisfiable restriction set
///   SQO-A010  query lint      warning   constant-foldable (always-true)
///                                       comparison literal
///   SQO-A011  governance      warning   deadline configured with fail-open
///                                       degradation disabled (fail-closed)
///   SQO-A012  index lint      warning   attribute-equality IC over an
///                                       attribute with no key/index hint
///   SQO-A013  catalog lint    warning   on-disk semantic catalog compiled
///                                       from a different schema than the
///                                       live one (stale catalog)
///   SQO-A014  profile lint    warning   executed profile shows an extent
///                                       scan over a class that declares a
///                                       key (index hint registered but the
///                                       plan did not use it)
///   SQO-A015  verifier        error     unjustified rewrite: a derivation
///                                       step could not be proven from
///                                       original ∧ ICs, or replaying the
///                                       recorded steps does not reproduce
///                                       the alternative (see verifier.h)
///   SQO-A016  verifier        warning   unproven elimination: a removed
///                                       conjunct could not be re-derived
///                                       from the rewritten query ∧ ICs
///                                       within the bounded chase
///   SQO-A017  verifier        note      catalog dependency report: the IC
///                                       labels an alternative's proof
///                                       depends on (plan-cache
///                                       invalidation key)
///   SQO-A018  storage lint    warning   durability-weakening storage knob:
///                                       acknowledgments without fsync, a
///                                       group-commit accumulation window
///                                       longer than the session's deadline
///                                       budget, or snapshot pruning that
///                                       drops the only fallback snapshot
///   SQO-A019  profile lint    warning   executed profile falls back to a
///                                       full extent/pair scan over a
///                                       relation covered by a persisted
///                                       ASR that has gone stale — the
///                                       materialized join index exists but
///                                       cannot be trusted until
///                                       re-materialized
///   SQO-A020  server lint     warning   serving config that defeats the
///                                       overload posture: a zero admission
///                                       queue bound (every request shed), a
///                                       load-shed wait threshold below the
///                                       default deadline budget (requests
///                                       that could still meet their
///                                       deadline are shed), a degrade
///                                       threshold at/above the queue bound
///                                       (refusal before degradation), or
///                                       workers oversubscribed beyond 4x
///                                       hardware concurrency
inline constexpr std::string_view kCodeUnsafeVariable = "SQO-A001";
inline constexpr std::string_view kCodeUnknownRelation = "SQO-A002";
inline constexpr std::string_view kCodeArityMismatch = "SQO-A003";
inline constexpr std::string_view kCodeTypeMismatch = "SQO-A004";
inline constexpr std::string_view kCodeContradictoryIcs = "SQO-A005";
inline constexpr std::string_view kCodeSubsumedIc = "SQO-A006";
inline constexpr std::string_view kCodeDeadResidue = "SQO-A007";
inline constexpr std::string_view kCodeUnboundQueryVariable = "SQO-A008";
inline constexpr std::string_view kCodeTriviallyFalse = "SQO-A009";
inline constexpr std::string_view kCodeConstantFoldable = "SQO-A010";
inline constexpr std::string_view kCodeDeadlineFailClosed = "SQO-A011";
inline constexpr std::string_view kCodeUnindexedEqualityIc = "SQO-A012";
inline constexpr std::string_view kCodeStaleCatalog = "SQO-A013";
inline constexpr std::string_view kCodeExtentScanWithIndexHint = "SQO-A014";
inline constexpr std::string_view kCodeUnjustifiedRewrite = "SQO-A015";
inline constexpr std::string_view kCodeUnprovenElimination = "SQO-A016";
inline constexpr std::string_view kCodeCatalogDependency = "SQO-A017";
inline constexpr std::string_view kCodeWeakDurability = "SQO-A018";
inline constexpr std::string_view kCodeStaleAsr = "SQO-A019";
inline constexpr std::string_view kCodeServerConfig = "SQO-A020";

struct AnalyzerOptions {
  bool check_safety = true;          // pass 1 (SQO-A001)
  bool check_signatures = true;      // pass 2 (SQO-A002..A004)
  bool check_contradictions = true;  // pass 3 (SQO-A005)
  bool check_redundancy = true;      // pass 4 (SQO-A006)
  bool check_index_hints = true;     // pass 8 (SQO-A012)

  /// Contradiction / redundancy are pairwise (singletons plus pairs); this
  /// caps the number of pairs examined so pathological IC sets stay linear
  /// in practice.
  size_t max_pairs = 65536;
};

/// The expected constant kind of argument `position` of `sig`, resolved
/// through the ODL schema (class/struct attribute types, method parameter
/// and return types; OID positions map to ValueKind::kOid). Returns
/// nullopt when the position's type cannot be resolved — the signature
/// checker treats unresolvable positions as unchecked rather than wrong.
std::optional<sqo::ValueKind> ExpectedArgumentKind(
    const translate::TranslatedSchema& schema,
    const datalog::RelationSignature& sig, size_t position);

/// Passes 1–4, plus the index-hint lint (SQO-A012), over user-declared
/// integrity constraints, validated against the translated schema.
/// SQO-A012 flags an IC that pins a class attribute by equality — a
/// constant in the attribute position or a `Var = const` comparison —
/// when the attribute carries no ODL `key` hint: residues of such an IC
/// enrich queries with equality selections that have no explicit index
/// and fall back to lazily built hash indexes or extent scans. Schema-generated constraints participate as
/// context (a user IC duplicating a generated one is flagged redundant;
/// a user IC contradicting another user IC is an error) but are themselves
/// trusted and never reported as subjects. Textual `monotone`/`point`
/// method-fact declarations are recognized and skipped (they are extracted
/// before residue compilation, not compiled as ICs).
AnalysisReport AnalyzeIcs(const translate::TranslatedSchema& schema,
                          const std::vector<datalog::Clause>& user_ics,
                          const AnalyzerOptions& options = {});

/// Pass 5 over compiled residues: flags residues whose remainder
/// comparisons are unsatisfiable — the residue can never fire for any legal
/// instance, so the semantic knowledge it carries is dead weight at query
/// time (SQO-A007, warning).
AnalysisReport AnalyzeResidues(
    const std::map<std::string, std::vector<core::Residue>>& residues);

/// Pass 6 over a translated DATALOG query: unbound head/comparison
/// variables (SQO-A008), trivially false literals or an unsatisfiable
/// restriction set (SQO-A009), constant-foldable comparisons (SQO-A010),
/// plus the pass-2 signature checks applied to the query's atoms.
AnalysisReport AnalyzeQuery(const translate::TranslatedSchema& schema,
                            const datalog::Query& query,
                            const AnalyzerOptions& options = {});

/// Pass 7 over the pipeline's resource-governance configuration: a deadline
/// combined with disabled fail-open degradation means every deadline expiry
/// fails the query outright with kResourceExhausted instead of falling back
/// to the original translated query (SQO-A011, warning). Takes plain bools
/// so the analysis layer stays independent of the pipeline's option types.
AnalysisReport AnalyzeGovernance(bool deadline_set, bool fail_open);

/// Pass 9 over a recovered persistent catalog: when the on-disk semantic
/// catalog was compiled from a schema whose fingerprint differs from the
/// live schema's, its residues describe constraints of a different world —
/// the engine recompiles from the live schema and the stored copy is stale
/// (SQO-A013, warning). Residue counts sharpen the message when they also
/// diverge. Takes plain hex-string hashes and counts so the analysis layer
/// stays independent of the storage layer's types.
AnalysisReport AnalyzeCatalogFreshness(const std::string& disk_schema_hash,
                                       const std::string& live_schema_hash,
                                       size_t disk_residues,
                                       size_t live_residues);

/// Pass 10 over an executed query profile (EXPLAIN ANALYZE tree): flags
/// extent-scan and shared-scan operators over class relations whose ODL
/// declaration (or a superclass's) registers a key — an index hint exists,
/// so the scan means the query binds no key attribute, or planning missed
/// the probe (SQO-A014, warning). Scans of keyless classes are expected and
/// not flagged; neither are index probes.
AnalysisReport AnalyzeProfile(const translate::TranslatedSchema& schema,
                              const obs::QueryProfile& profile);

/// Pass 11 over the storage layer's durability configuration (SQO-A018,
/// warning). Flags knob combinations that silently weaken the "OK means
/// durable" acknowledgment contract: `sync_each_append` off (acks without
/// fsync), a group-commit accumulation window longer than the session's
/// remaining deadline budget (every governed append would expire before its
/// batch flushes), and `keep_snapshots < 2` (pruning drops the only fallback
/// snapshot fail-open recovery could degrade to). `deadline_budget_ms == 0`
/// means no deadline is configured. Takes plain integers/bools so the
/// analysis layer stays independent of the storage layer's option types.
AnalysisReport AnalyzeStorageOptions(bool sync_each_append,
                                     int64_t flush_interval_us,
                                     int64_t deadline_budget_ms,
                                     size_t keep_snapshots);

/// Freshness of one materialized access-support relation, as plain data so
/// the analysis layer stays independent of the engine (mirror of the
/// store's `AsrState`): the ASR's relation name, the path of relationship
/// hops it materializes, and whether a deletion has marked it stale.
struct AsrFreshness {
  std::string name;
  std::vector<std::string> path;
  bool stale = false;
};

/// Pass 12 over an executed query profile: flags full extent-scan or
/// pair-scan operators over a relation that a *stale* persisted ASR covers
/// (the scanned relation is the ASR itself or one of its path hops) —
/// the materialized join index exists on disk but deletions invalidated
/// it, so the plan pays the scan the ASR was built to avoid until the ASR
/// is re-materialized (SQO-A019, warning). Fresh ASRs and probe/traverse
/// operators are not flagged.
AnalysisReport AnalyzeAsrStaleness(const obs::QueryProfile& profile,
                                   const std::vector<AsrFreshness>& asrs);

/// Pass 13 over a serving layer's configuration (SQO-A020, warning). Flags
/// combinations that defeat the degrade-before-refuse overload posture:
/// `max_queue_depth < 1` (admission control sheds every request), a
/// load-shed wait threshold below the default deadline budget (requests
/// that could still meet their deadline are shed), a degrade threshold
/// at/above the queue bound (requests are refused before degradation ever
/// engages), and a worker count above 4x hardware concurrency (pure
/// context-switch overhead under load). Zero `shed_wait_ms` /
/// `default_deadline_ms` mean the corresponding policy is off. Takes plain
/// integers so the analysis layer stays independent of the server's
/// option types.
AnalysisReport AnalyzeServerConfig(size_t workers,
                                   size_t hardware_concurrency,
                                   size_t max_queue_depth,
                                   size_t degrade_queue_depth,
                                   uint64_t shed_wait_ms,
                                   uint64_t default_deadline_ms);

}  // namespace sqo::analysis

#endif  // SQO_ANALYSIS_ANALYZER_H_
