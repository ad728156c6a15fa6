#include "analysis/analyzer.h"

#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "odl/parser.h"
#include "translate/schema_translator.h"
#include "workload/university.h"

namespace sqo::analysis {
namespace {

using datalog::Atom;
using datalog::Clause;
using datalog::CmpOp;
using datalog::Literal;
using datalog::Term;

translate::TranslatedSchema University() {
  auto ast = odl::ParseOdl(workload::UniversityOdl());
  EXPECT_TRUE(ast.ok());
  auto schema = odl::Schema::Resolve(*ast);
  EXPECT_TRUE(schema.ok());
  auto translated = translate::TranslateSchema(*schema);
  EXPECT_TRUE(translated.ok()) << translated.status().ToString();
  return std::move(translated).value();
}

/// Parses ICs against the schema catalog (named-argument + arity checking),
/// or without it when the test needs an atom the parser would reject.
std::vector<Clause> ParseIcs(const translate::TranslatedSchema& schema,
                             std::string_view text, bool use_catalog = true) {
  auto parsed = datalog::ParseProgram(
      text, use_catalog ? &schema.catalog : nullptr);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed).value();
}

size_t CountCode(const AnalysisReport& report, std::string_view code) {
  size_t n = 0;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code == code) ++n;
  }
  return n;
}

// --- SQO-A001: safety / range restriction -------------------------------

TEST(AnalyzerIcsTest, A001FlagsUnboundComparisonVariable) {
  auto ts = University();
  auto report = AnalyzeIcs(
      ts, ParseIcs(ts, "ic1: <- person(X, N, A, Ad), Z > 10."));
  EXPECT_EQ(CountCode(report, kCodeUnsafeVariable), 1u) << report.ToString();
  EXPECT_TRUE(report.has_errors());
  EXPECT_EQ(report.FirstError()->subject, "ic1");
}

TEST(AnalyzerIcsTest, A001AcceptsBoundVariablesAndLocalNegationVars) {
  auto ts = University();
  // The negated atom's fresh variables are existential under negation
  // ("no such tuple at all") — legal, not a safety violation.
  auto report = AnalyzeIcs(
      ts, ParseIcs(ts,
                   "ic1: A > 0 <- person(X, N, A, Ad).\n"
                   "ic2: <- person(X, N, A, Ad), A > 90, "
                   "not student(X, S1, S2, S3, S4).\n"));
  EXPECT_EQ(CountCode(report, kCodeUnsafeVariable), 0u) << report.ToString();
}

// --- SQO-A002: unknown relation ------------------------------------------

TEST(AnalyzerIcsTest, A002FlagsUnknownRelation) {
  auto ts = University();
  auto report = AnalyzeIcs(ts, ParseIcs(ts, "ic1: <- nosuch(X)."));
  EXPECT_EQ(CountCode(report, kCodeUnknownRelation), 1u) << report.ToString();
  EXPECT_TRUE(report.has_errors());
}

TEST(AnalyzerIcsTest, A002AcceptsCatalogRelations) {
  auto ts = University();
  auto report =
      AnalyzeIcs(ts, ParseIcs(ts, "ic1: <- person(X, N, A, Ad), A < 0."));
  EXPECT_EQ(CountCode(report, kCodeUnknownRelation), 0u) << report.ToString();
}

// --- SQO-A003: arity mismatch --------------------------------------------

TEST(AnalyzerIcsTest, A003FlagsArityMismatch) {
  auto ts = University();
  // Parse without the catalog: the parser itself rejects wrong-arity atoms
  // when a catalog is supplied, so the analyzer is the backstop for
  // programmatically constructed clauses.
  auto report = AnalyzeIcs(
      ts, ParseIcs(ts, "ic1: <- person(X, N).", /*use_catalog=*/false));
  EXPECT_EQ(CountCode(report, kCodeArityMismatch), 1u) << report.ToString();
  EXPECT_TRUE(report.has_errors());
}

TEST(AnalyzerIcsTest, A003AcceptsCorrectArity) {
  auto ts = University();
  auto report = AnalyzeIcs(
      ts, ParseIcs(ts, "ic1: <- person(X, N, A, Ad), A < 0.",
                   /*use_catalog=*/false));
  EXPECT_EQ(CountCode(report, kCodeArityMismatch), 0u) << report.ToString();
}

// --- SQO-A004: constant argument type mismatch ---------------------------

TEST(AnalyzerIcsTest, A004FlagsIntConstantInStringPosition) {
  auto ts = University();
  // person's `name` attribute is a string; 42 can never occur there.
  auto report = AnalyzeIcs(ts, ParseIcs(ts, "ic1: <- person(X, 42, A, Ad)."));
  EXPECT_EQ(CountCode(report, kCodeTypeMismatch), 1u) << report.ToString();
  EXPECT_TRUE(report.has_errors());
}

TEST(AnalyzerIcsTest, A004AcceptsWellTypedConstants) {
  auto ts = University();
  auto report = AnalyzeIcs(
      ts, ParseIcs(ts, "ic1: <- person(X, \"bob\", A, Ad), A < 0."));
  EXPECT_EQ(CountCode(report, kCodeTypeMismatch), 0u) << report.ToString();
}

// --- SQO-A005: contradictory IC set --------------------------------------

TEST(AnalyzerIcsTest, A005FlagsPairwiseContradiction) {
  auto ts = University();
  // Every person is over 30 AND under 20: any person instance is forced
  // to be illegal, so the IC set rules out the class entirely.
  auto report = AnalyzeIcs(
      ts, ParseIcs(ts,
                   "ic1: A > 30 <- person(X, N, A, Ad).\n"
                   "ic2: A < 20 <- person(X, N, A, Ad).\n"));
  EXPECT_EQ(CountCode(report, kCodeContradictoryIcs), 1u) << report.ToString();
  EXPECT_TRUE(report.has_errors());
}

TEST(AnalyzerIcsTest, A005FlagsSelfContradictorySingleton) {
  auto ts = University();
  // Guard A = 25 is satisfiable, head A < 20 conflicts with it: persons
  // aged exactly 25 are forced not to exist — almost certainly a typo.
  auto report = AnalyzeIcs(
      ts, ParseIcs(ts, "ic1: A < 20 <- person(X, N, A, Ad), A = 25."));
  EXPECT_EQ(CountCode(report, kCodeContradictoryIcs), 1u) << report.ToString();
}

TEST(AnalyzerIcsTest, A005AcceptsCompatibleHeads) {
  auto ts = University();
  auto report = AnalyzeIcs(
      ts, ParseIcs(ts,
                   "ic1: A > 20 <- person(X, N, A, Ad).\n"
                   "ic2: A < 120 <- person(X, N, A, Ad).\n"));
  EXPECT_EQ(CountCode(report, kCodeContradictoryIcs), 0u) << report.ToString();
  EXPECT_FALSE(report.has_errors());
}

// --- SQO-A006: redundant / subsumed IC -----------------------------------

TEST(AnalyzerIcsTest, A006FlagsSubsumedIc) {
  auto ts = University();
  // ic1 implies ic2 (A > 10 ⇒ A > 5 under the same body), so ic2 adds no
  // semantic knowledge and only slows compilation down.
  auto report = AnalyzeIcs(
      ts, ParseIcs(ts,
                   "ic1: A > 10 <- person(X, N, A, Ad).\n"
                   "ic2: A > 5 <- person(X, N, A, Ad).\n"));
  EXPECT_EQ(CountCode(report, kCodeSubsumedIc), 1u) << report.ToString();
  EXPECT_FALSE(report.has_errors());  // redundancy is a warning
  bool flagged_ic2 = false;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code == kCodeSubsumedIc && d.subject == "ic2") flagged_ic2 = true;
  }
  EXPECT_TRUE(flagged_ic2) << report.ToString();
}

TEST(AnalyzerIcsTest, A006FlagsExactDuplicateOnce) {
  auto ts = University();
  auto report = AnalyzeIcs(
      ts, ParseIcs(ts,
                   "ic1: A > 10 <- person(X, N, A, Ad).\n"
                   "ic2: A > 10 <- person(X, N, A, Ad).\n"));
  // Mutual subsumption: only the later duplicate is flagged, not both.
  EXPECT_EQ(CountCode(report, kCodeSubsumedIc), 1u) << report.ToString();
}

TEST(AnalyzerIcsTest, A006AcceptsIndependentIcs) {
  auto ts = University();
  auto report = AnalyzeIcs(
      ts, ParseIcs(ts,
                   "ic1: A > 10 <- person(X, N, A, Ad).\n"
                   "ic2: A > 16 <- student(S, N, A, Ad, G).\n"));
  EXPECT_EQ(CountCode(report, kCodeSubsumedIc), 0u) << report.ToString();
}

// --- SQO-A012: equality IC over an attribute with no index hint ----------

TEST(AnalyzerIcsTest, A012FlagsEqualityComparisonOnUnindexedAttribute) {
  auto ts = University();
  // `age` carries no ODL key hint, so residues of this IC inject equality
  // selections with no explicit index behind them.
  auto report =
      AnalyzeIcs(ts, ParseIcs(ts, "ic1: <- person(X, N, A, Ad), A = 25."));
  EXPECT_EQ(CountCode(report, kCodeUnindexedEqualityIc), 1u)
      << report.ToString();
  EXPECT_FALSE(report.has_errors());  // perf lint, not a correctness error
}

TEST(AnalyzerIcsTest, A012FlagsConstantInAttributePosition) {
  auto ts = University();
  auto report = AnalyzeIcs(ts, ParseIcs(ts, "ic1: <- person(X, N, 25, Ad)."));
  EXPECT_EQ(CountCode(report, kCodeUnindexedEqualityIc), 1u)
      << report.ToString();
}

TEST(AnalyzerIcsTest, A012FlagsHeadEquality) {
  auto ts = University();
  auto report =
      AnalyzeIcs(ts, ParseIcs(ts, "ic1: A = 25 <- person(X, N, A, Ad)."));
  EXPECT_EQ(CountCode(report, kCodeUnindexedEqualityIc), 1u)
      << report.ToString();
}

TEST(AnalyzerIcsTest, A012AcceptsEqualityOnKeyedAttribute) {
  auto ts = University();
  // Person declares `key name`: the equality selection has an explicit
  // index, and the inherited key also covers the student subclass.
  auto report = AnalyzeIcs(
      ts, ParseIcs(ts,
                   "ic1: A > 0 <- person(X, \"bob\", A, Ad).\n"
                   "ic2: A > 0 <- student(S, \"bob\", A, Ad, G).\n"));
  EXPECT_EQ(CountCode(report, kCodeUnindexedEqualityIc), 0u)
      << report.ToString();
}

TEST(AnalyzerIcsTest, A012IgnoresInequalities) {
  auto ts = University();
  auto report = AnalyzeIcs(
      ts, ParseIcs(ts, "ic1: A > 30 <- person(X, N, A, Ad), A < 90."));
  EXPECT_EQ(CountCode(report, kCodeUnindexedEqualityIc), 0u)
      << report.ToString();
}

TEST(AnalyzerIcsTest, A012CanBeDisabled) {
  auto ts = University();
  AnalyzerOptions options;
  options.check_index_hints = false;
  auto report = AnalyzeIcs(
      ts, ParseIcs(ts, "ic1: <- person(X, N, A, Ad), A = 25."), options);
  EXPECT_EQ(CountCode(report, kCodeUnindexedEqualityIc), 0u)
      << report.ToString();
}

TEST(AnalyzerIcsTest, MethodFactsAreSkipped) {
  auto ts = University();
  auto report = AnalyzeIcs(
      ts, ParseIcs(ts, "monotone(raise_salary, salary, increasing).",
                   /*use_catalog=*/false));
  EXPECT_TRUE(report.empty()) << report.ToString();
}

TEST(AnalyzerIcsTest, OptionsDisablePassesIndividually) {
  auto ts = University();
  auto ics = ParseIcs(ts,
                      "ic1: A > 30 <- person(X, N, A, Ad).\n"
                      "ic2: A < 20 <- person(X, N, A, Ad).\n");
  AnalyzerOptions options;
  options.check_contradictions = false;
  auto report = AnalyzeIcs(ts, ics, options);
  EXPECT_EQ(CountCode(report, kCodeContradictoryIcs), 0u) << report.ToString();
}

// --- SQO-A007: dead residues ---------------------------------------------

core::Residue MakeResidue(std::vector<Literal> remainder) {
  core::Residue residue;
  residue.relation = "person";
  residue.template_atom = Atom::Pred(
      "person", {Term::Var("_R0"), Term::Var("_R1"), Term::Var("_R2"),
                 Term::Var("_R3")});
  residue.remainder = std::move(remainder);
  residue.head = std::nullopt;
  residue.source = "ic9";
  return residue;
}

TEST(AnalyzerResiduesTest, A007FlagsUnsatisfiableGuard) {
  std::map<std::string, std::vector<core::Residue>> residues;
  residues["person"].push_back(MakeResidue(
      {Literal(true, Atom::Comparison(CmpOp::kLt, Term::Var("A"), Term::Int(5))),
       Literal(true,
               Atom::Comparison(CmpOp::kGt, Term::Var("A"), Term::Int(10)))}));
  auto report = AnalyzeResidues(residues);
  EXPECT_EQ(CountCode(report, kCodeDeadResidue), 1u) << report.ToString();
  EXPECT_FALSE(report.has_errors());  // dead knowledge is sound, just useless
  EXPECT_EQ(report.diagnostics[0].subject, "person");
}

TEST(AnalyzerResiduesTest, A007AcceptsSatisfiableGuard) {
  std::map<std::string, std::vector<core::Residue>> residues;
  residues["person"].push_back(MakeResidue(
      {Literal(true, Atom::Comparison(CmpOp::kGt, Term::Var("A"),
                                      Term::Int(10)))}));
  residues["person"].push_back(MakeResidue({}));  // invariant: no guard
  auto report = AnalyzeResidues(residues);
  EXPECT_EQ(CountCode(report, kCodeDeadResidue), 0u) << report.ToString();
}

// --- SQO-A008..A010: query lints -----------------------------------------

datalog::Query ParseQuery(const translate::TranslatedSchema& schema,
                          std::string_view text) {
  auto parsed = datalog::ParseQueryText(text, &schema.catalog);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed).value();
}

TEST(AnalyzerQueryTest, A008FlagsUnboundProjectedVariable) {
  auto ts = University();
  auto report =
      AnalyzeQuery(ts, ParseQuery(ts, "q(X, Y) :- person(X, N, A, Ad)."));
  EXPECT_EQ(CountCode(report, kCodeUnboundQueryVariable), 1u)
      << report.ToString();
  EXPECT_TRUE(report.has_errors());
}

TEST(AnalyzerQueryTest, A008FlagsUnboundComparisonVariable) {
  auto ts = University();
  auto report =
      AnalyzeQuery(ts, ParseQuery(ts, "q(X) :- person(X, N, A, Ad), Z > 5."));
  EXPECT_EQ(CountCode(report, kCodeUnboundQueryVariable), 1u)
      << report.ToString();
}

TEST(AnalyzerQueryTest, A008AcceptsFullyBoundQuery) {
  auto ts = University();
  auto report = AnalyzeQuery(
      ts, ParseQuery(ts, "q(X, N) :- person(X, N, A, Ad), A > 5."));
  EXPECT_EQ(CountCode(report, kCodeUnboundQueryVariable), 0u)
      << report.ToString();
  EXPECT_TRUE(report.empty());
}

TEST(AnalyzerQueryTest, A009FlagsUnsatisfiableRestrictionSet) {
  auto ts = University();
  auto report = AnalyzeQuery(
      ts, ParseQuery(ts, "q(X) :- person(X, N, A, Ad), A < 5, A > 90."));
  EXPECT_GE(CountCode(report, kCodeTriviallyFalse), 1u) << report.ToString();
  EXPECT_FALSE(report.has_errors());  // the optimizer proves emptiness itself
}

TEST(AnalyzerQueryTest, A009FlagsGroundFalseComparison) {
  auto ts = University();
  auto report = AnalyzeQuery(
      ts, ParseQuery(ts, "q(X) :- person(X, N, A, Ad), 3 > 5."));
  EXPECT_GE(CountCode(report, kCodeTriviallyFalse), 1u) << report.ToString();
}

TEST(AnalyzerQueryTest, A009AcceptsSatisfiableRestrictions) {
  auto ts = University();
  auto report = AnalyzeQuery(
      ts, ParseQuery(ts, "q(X) :- person(X, N, A, Ad), A > 5, A < 90."));
  EXPECT_EQ(CountCode(report, kCodeTriviallyFalse), 0u) << report.ToString();
}

TEST(AnalyzerQueryTest, A010FlagsGroundTrueComparison) {
  auto ts = University();
  auto report = AnalyzeQuery(
      ts, ParseQuery(ts, "q(X) :- person(X, N, A, Ad), 3 < 5."));
  EXPECT_EQ(CountCode(report, kCodeConstantFoldable), 1u) << report.ToString();
  EXPECT_FALSE(report.has_errors());
}

TEST(AnalyzerQueryTest, A010FlagsReflexiveEquality) {
  auto ts = University();
  auto report = AnalyzeQuery(
      ts, ParseQuery(ts, "q(X) :- person(X, N, A, Ad), A = A."));
  EXPECT_EQ(CountCode(report, kCodeConstantFoldable), 1u) << report.ToString();
}

TEST(AnalyzerQueryTest, A010AcceptsMeaningfulComparisons) {
  auto ts = University();
  auto report = AnalyzeQuery(
      ts, ParseQuery(ts, "q(X) :- person(X, N, A, Ad), A >= 21."));
  EXPECT_EQ(CountCode(report, kCodeConstantFoldable), 0u) << report.ToString();
}

TEST(AnalyzerQueryTest, SignatureChecksApplyToQueries) {
  auto ts = University();
  auto parsed = datalog::ParseQueryText("q(X) :- nosuch(X).", nullptr);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto report = AnalyzeQuery(ts, *parsed);
  EXPECT_EQ(CountCode(report, kCodeUnknownRelation), 1u) << report.ToString();
}

// --- AnalyzeGovernance ----------------------------------------------------

TEST(AnalyzerGovernanceTest, A011FlagsDeadlineWithFailClosed) {
  auto report = AnalyzeGovernance(/*deadline_set=*/true, /*fail_open=*/false);
  EXPECT_EQ(CountCode(report, kCodeDeadlineFailClosed), 1u)
      << report.ToString();
  EXPECT_FALSE(report.has_errors());  // a warning, not a hard error
}

TEST(AnalyzerGovernanceTest, A011AcceptsFailOpenOrNoDeadline) {
  EXPECT_EQ(CountCode(AnalyzeGovernance(true, true), kCodeDeadlineFailClosed),
            0u);
  EXPECT_EQ(CountCode(AnalyzeGovernance(false, false), kCodeDeadlineFailClosed),
            0u);
  EXPECT_EQ(CountCode(AnalyzeGovernance(false, true), kCodeDeadlineFailClosed),
            0u);
}

// --- Catalog freshness (SQO-A013) -----------------------------------------

TEST(AnalyzerCatalogTest, A013SilentWhenHashesMatch) {
  auto report = AnalyzeCatalogFreshness("abc123", "abc123", 5, 5);
  EXPECT_TRUE(report.empty()) << report.ToString();
  // Residue-count drift alone does not matter when the schema matches.
  EXPECT_TRUE(AnalyzeCatalogFreshness("abc123", "abc123", 5, 9).empty());
}

TEST(AnalyzerCatalogTest, A013WarnsOnSchemaHashMismatch) {
  auto report = AnalyzeCatalogFreshness("abc123", "def456", 5, 5);
  EXPECT_EQ(CountCode(report, kCodeStaleCatalog), 1u) << report.ToString();
  EXPECT_FALSE(report.has_errors());  // stale catalog is survivable
}

TEST(AnalyzerCatalogTest, A013ReportsResidueCountDrift) {
  auto report = AnalyzeCatalogFreshness("abc123", "def456", 5, 9);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_NE(report.diagnostics[0].message.find("stored 5"),
            std::string::npos)
      << report.ToString();
}

// --- Profile lint (SQO-A014) ----------------------------------------------

obs::QueryProfile ProfileWithNode(std::string op, std::string relation,
                                  uint64_t rows_in) {
  obs::QueryProfile profile;
  obs::ProfileNode node;
  node.op = std::move(op);
  node.relation = std::move(relation);
  node.rows_in = rows_in;
  profile.nodes.push_back(std::move(node));
  return profile;
}

TEST(AnalyzerProfileTest, A014FlagsExtentScanOnKeyedClass) {
  auto ts = University();
  // `name` is a key on Person, so Faculty inherits an index hint.
  auto report =
      AnalyzeProfile(ts, ProfileWithNode("extent-scan", "faculty", 20));
  ASSERT_EQ(CountCode(report, kCodeExtentScanWithIndexHint), 1u)
      << report.ToString();
  EXPECT_FALSE(report.has_errors());  // a lint, not a correctness problem
  const Diagnostic& d = report.diagnostics[0];
  EXPECT_EQ(d.subject, "faculty");
  EXPECT_NE(d.message.find("20 probe(s)"), std::string::npos) << d.message;
  EXPECT_NE(d.message.find("name"), std::string::npos) << d.message;
  // A scan shared by every binding is a full extent scan all the same.
  EXPECT_EQ(CountCode(AnalyzeProfile(
                          ts, ProfileWithNode("shared-scan", "faculty", 20)),
                      kCodeExtentScanWithIndexHint),
            1u);
}

TEST(AnalyzerProfileTest, A014DeduplicatesPerRelation) {
  auto ts = University();
  obs::QueryProfile profile = ProfileWithNode("extent-scan", "faculty", 20);
  profile.nodes.push_back(profile.nodes[0]);  // scanned twice in one plan
  auto report = AnalyzeProfile(ts, profile);
  EXPECT_EQ(CountCode(report, kCodeExtentScanWithIndexHint), 1u)
      << report.ToString();
}

TEST(AnalyzerProfileTest, A014SilentWithoutKeyOrIndex) {
  auto ts = University();
  // Section declares no key anywhere in its superclass chain.
  EXPECT_TRUE(
      AnalyzeProfile(ts, ProfileWithNode("extent-scan", "section", 40))
          .empty());
  // An index probe on a keyed class is exactly what the hint wants.
  EXPECT_TRUE(
      AnalyzeProfile(ts, ProfileWithNode("index-probe", "faculty.name", 1))
          .empty());
  // Relationship scans have no extent index to miss.
  EXPECT_TRUE(
      AnalyzeProfile(ts, ProfileWithNode("pair-scan", "takes", 60)).empty());
  // Unknown relations are ignored, not crashed on.
  EXPECT_TRUE(
      AnalyzeProfile(ts, ProfileWithNode("extent-scan", "nope", 1)).empty());
}

// --- Stale-ASR profile lint (SQO-A019) ------------------------------------

TEST(AnalyzerProfileTest, A019FlagsScanCoveredByStaleAsr) {
  std::vector<AsrFreshness> asrs = {
      {"asr_student_ta",
       {"takes", "is_section_of", "has_sections", "has_ta"},
       /*stale=*/true}};
  // Scanning the ASR relation itself...
  auto report = AnalyzeAsrStaleness(
      ProfileWithNode("extent-scan", "asr_student_ta", 12), asrs);
  ASSERT_EQ(CountCode(report, kCodeStaleAsr), 1u) << report.ToString();
  EXPECT_FALSE(report.has_errors());
  EXPECT_EQ(report.diagnostics[0].subject, "asr_student_ta");
  EXPECT_NE(report.diagnostics[0].message.find("asr_student_ta"),
            std::string::npos);
  // ...or one of its path hops is the scan the ASR was built to avoid.
  auto hop_report =
      AnalyzeAsrStaleness(ProfileWithNode("pair-scan", "takes", 40), asrs);
  EXPECT_EQ(CountCode(hop_report, kCodeStaleAsr), 1u) << hop_report.ToString();
}

TEST(AnalyzerProfileTest, A019DeduplicatesPerRelationAndAsr) {
  std::vector<AsrFreshness> asrs = {
      {"asr_student_ta",
       {"takes", "is_section_of", "has_sections", "has_ta"},
       /*stale=*/true}};
  obs::QueryProfile profile = ProfileWithNode("pair-scan", "takes", 40);
  profile.nodes.push_back(profile.nodes[0]);  // same relation scanned twice
  auto report = AnalyzeAsrStaleness(profile, asrs);
  EXPECT_EQ(CountCode(report, kCodeStaleAsr), 1u) << report.ToString();
}

TEST(AnalyzerProfileTest, A019SilentForFreshAsrsProbesAndOtherRelations) {
  std::vector<AsrFreshness> fresh = {
      {"asr_student_ta",
       {"takes", "is_section_of", "has_sections", "has_ta"},
       /*stale=*/false}};
  // A fresh ASR never fires, whatever the plan scans.
  EXPECT_TRUE(
      AnalyzeAsrStaleness(ProfileWithNode("pair-scan", "takes", 40), fresh)
          .empty());
  std::vector<AsrFreshness> stale = {
      {"asr_student_ta",
       {"takes", "is_section_of", "has_sections", "has_ta"},
       /*stale=*/true}};
  // Probe / traversal operators are what the ASR wants — not flagged.
  EXPECT_TRUE(AnalyzeAsrStaleness(
                  ProfileWithNode("traverse", "takes", 40), stale)
                  .empty());
  EXPECT_TRUE(AnalyzeAsrStaleness(
                  ProfileWithNode("index-probe", "student.age", 40), stale)
                  .empty());
  // Scans over relations outside the ASR's coverage stay silent.
  EXPECT_TRUE(AnalyzeAsrStaleness(
                  ProfileWithNode("extent-scan", "faculty", 20), stale)
                  .empty());
  // No ASRs at all: nothing to analyze.
  EXPECT_TRUE(AnalyzeAsrStaleness(
                  ProfileWithNode("extent-scan", "asr_student_ta", 5), {})
                  .empty());
}

// --- SQO-A020: server config sanity ---------------------------------------

TEST(AnalyzerServerConfigTest, A020SilentForAServingSafeConfig) {
  // The ServerConfig defaults: bounded queue, degradation engages well
  // before the admission bound, no shed/deadline inversion, sane workers.
  EXPECT_TRUE(AnalyzeServerConfig(/*workers=*/4, /*hardware_concurrency=*/4,
                                  /*max_queue_depth=*/128,
                                  /*degrade_queue_depth=*/32,
                                  /*shed_wait_ms=*/0,
                                  /*default_deadline_ms=*/0)
                  .empty());
}

TEST(AnalyzerServerConfigTest, A020FlagsZeroQueueBound) {
  AnalysisReport report = AnalyzeServerConfig(4, 4, /*max_queue_depth=*/0,
                                              /*degrade_queue_depth=*/0, 0, 0);
  ASSERT_EQ(report.diagnostics.size(), 1u) << report.ToString();
  EXPECT_EQ(report.diagnostics[0].code, kCodeServerConfig);
  EXPECT_NE(report.diagnostics[0].message.find("max_queue_depth"),
            std::string::npos);
}

TEST(AnalyzerServerConfigTest, A020FlagsShedTighterThanDeadline) {
  AnalysisReport report =
      AnalyzeServerConfig(4, 4, 128, 32, /*shed_wait_ms=*/10,
                          /*default_deadline_ms=*/100);
  ASSERT_EQ(report.diagnostics.size(), 1u) << report.ToString();
  EXPECT_EQ(report.diagnostics[0].code, kCodeServerConfig);
  EXPECT_NE(report.diagnostics[0].message.find("shed_wait_ms"),
            std::string::npos);
  // Shed at or above the deadline budget is the intended shape.
  EXPECT_TRUE(AnalyzeServerConfig(4, 4, 128, 32, 100, 100).empty());
  EXPECT_TRUE(AnalyzeServerConfig(4, 4, 128, 32, 10, 0).empty());
}

TEST(AnalyzerServerConfigTest, A020FlagsInvertedOverloadPosture) {
  // degrade >= shed bound: requests are refused before degradation ever
  // engages — exactly the posture the serving layer exists to avoid.
  AnalysisReport report =
      AnalyzeServerConfig(4, 4, /*max_queue_depth=*/100,
                          /*degrade_queue_depth=*/200, 0, 0);
  ASSERT_EQ(report.diagnostics.size(), 1u) << report.ToString();
  EXPECT_NE(report.diagnostics[0].message.find("degrade_queue_depth"),
            std::string::npos);
}

TEST(AnalyzerServerConfigTest, A020FlagsGrossWorkerOversubscription) {
  AnalysisReport report = AnalyzeServerConfig(
      /*workers=*/64, /*hardware_concurrency=*/4, 128, 32, 0, 0);
  ASSERT_EQ(report.diagnostics.size(), 1u) << report.ToString();
  EXPECT_NE(report.diagnostics[0].message.find("workers"), std::string::npos);
  // 4x is the tolerated ceiling; unknown hardware concurrency stays silent.
  EXPECT_TRUE(AnalyzeServerConfig(16, 4, 128, 32, 0, 0).empty());
  EXPECT_TRUE(AnalyzeServerConfig(64, 0, 128, 32, 0, 0).empty());
}

TEST(AnalyzerServerConfigTest, A020FindingsRenderLikeEveryOtherLint) {
  AnalysisReport report = AnalyzeServerConfig(64, 4, 0, 0, 10, 100);
  EXPECT_GE(report.diagnostics.size(), 3u);
  const std::string rendered = RenderReport(report);
  EXPECT_NE(rendered.find("SQO-A020"), std::string::npos);
  EXPECT_NE(rendered.find("warning"), std::string::npos);
}

// --- ExpectedArgumentKind -------------------------------------------------

TEST(AnalyzerTest, ExpectedArgumentKindResolvesAttributeTypes) {
  auto ts = University();
  const datalog::RelationSignature* person = ts.catalog.Find("person");
  ASSERT_NE(person, nullptr);
  EXPECT_EQ(ExpectedArgumentKind(ts, *person, 0), sqo::ValueKind::kOid);
  EXPECT_EQ(ExpectedArgumentKind(ts, *person, 1), sqo::ValueKind::kString);
  EXPECT_EQ(ExpectedArgumentKind(ts, *person, 2), sqo::ValueKind::kInt);
  EXPECT_EQ(ExpectedArgumentKind(ts, *person, 99), std::nullopt);
}

}  // namespace
}  // namespace sqo::analysis
