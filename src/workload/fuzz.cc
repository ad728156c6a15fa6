#include "workload/fuzz.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "datalog/parser.h"
#include "engine/database.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "odl/parser.h"
#include "oql/parser.h"
#include "sqo/optimizer.h"
#include "translate/query_translator.h"
#include "workload/university.h"

namespace sqo::workload {

namespace {

constexpr size_t kMaxMismatchDetails = 8;

/// SplitMix64 step — decorrelates per-iteration seeds derived from the
/// master seed without std::seed_seq's allocation.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Rows as a sorted multiset of printed rows — the set-semantics answer
/// comparison every equivalence test in the repo uses.
std::vector<std::string> CanonicalRows(
    const std::vector<std::vector<sqo::Value>>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const auto& row : rows) {
    std::string s;
    for (const sqo::Value& v : row) s += v.ToString() + "|";
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Compact random-OQL generator over the university schema (the grammar of
/// tests/integration/random_query_property_test.cc): a root extent, 0–3
/// type-correct relationship hops, 0–2 attribute restrictions, an optional
/// subclass exclusion, 1–2 projections.
class RandomOql {
 public:
  explicit RandomOql(uint64_t seed) : rng_(seed) {}

  std::string Generate() {
    vars_.clear();
    from_.clear();
    where_.clear();
    static const char* kClasses[] = {"Person",  "Student", "Faculty",
                                     "TA",      "Course",  "Section",
                                     "Employee"};
    AddVar(kClasses[Pick(7)]);
    const size_t hops = Pick(4);
    for (size_t i = 0; i < hops; ++i) {
      const size_t base = Pick(vars_.size());
      auto rel = RandomRelationship(vars_[base].cls);
      if (!rel.has_value()) continue;
      const std::string var = AddVar(rel->second);
      from_.back() = var + " in " + vars_[base].name + "." + rel->first;
    }
    const size_t restrictions = Pick(3);
    for (size_t i = 0; i < restrictions; ++i) {
      where_.push_back(RandomRestriction(vars_[Pick(vars_.size())]));
    }
    if (Pick(4) == 0) {
      for (const Var& v : vars_) {
        if (auto sub = SubclassOf(v.cls)) {
          from_.push_back(v.name + " not in " + *sub);
          break;
        }
      }
    }
    std::vector<std::string> select;
    select.push_back(RandomProjection(vars_[Pick(vars_.size())]));
    if (Pick(2) == 0) {
      select.push_back(RandomProjection(vars_[Pick(vars_.size())]));
    }
    std::string oql = "select " + select[0];
    for (size_t i = 1; i < select.size(); ++i) oql += ", " + select[i];
    oql += " from " + from_[0];
    for (size_t i = 1; i < from_.size(); ++i) oql += ", " + from_[i];
    if (!where_.empty()) {
      oql += " where " + where_[0];
      for (size_t i = 1; i < where_.size(); ++i) oql += " and " + where_[i];
    }
    return oql;
  }

 private:
  struct Var {
    std::string name;
    std::string cls;
  };

  size_t Pick(size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng_);
  }

  std::string AddVar(const std::string& cls) {
    std::string name = "v" + std::to_string(vars_.size());
    vars_.push_back({name, cls});
    from_.push_back(name + " in " + cls);
    return name;
  }

  std::optional<std::pair<std::string, std::string>> RandomRelationship(
      const std::string& cls) {
    static const struct {
      const char* cls;
      const char* rel;
      const char* target;
    } kRels[] = {
        {"Student", "takes", "Section"},
        {"TA", "takes", "Section"},
        {"TA", "assists", "Section"},
        {"Faculty", "teaches", "Section"},
        {"Course", "has_sections", "Section"},
        {"Section", "is_taken_by", "Student"},
        {"Section", "is_taught_by", "Faculty"},
        {"Section", "is_section_of", "Course"},
        {"Section", "has_ta", "TA"},
    };
    std::vector<std::pair<std::string, std::string>> candidates;
    for (const auto& r : kRels) {
      if (cls == r.cls) candidates.emplace_back(r.rel, r.target);
    }
    if (candidates.empty()) return std::nullopt;
    return candidates[Pick(candidates.size())];
  }

  static std::optional<std::string> SubclassOf(const std::string& cls) {
    if (cls == "Person") return "Faculty";
    if (cls == "Student") return "TA";
    if (cls == "Employee") return "Faculty";
    return std::nullopt;
  }

  std::string RandomRestriction(const Var& v) {
    struct AttrInfo {
      const char* cls;
      const char* attr;
      int lo, hi;
    };
    static const AttrInfo kAttrs[] = {
        {"Person", "age", 10, 90},   {"Student", "age", 10, 90},
        {"Faculty", "age", 10, 90},  {"TA", "age", 10, 90},
        {"Employee", "age", 10, 90}, {"Faculty", "salary", 30000, 130000},
        {"Employee", "salary", 30000, 130000},
    };
    std::vector<AttrInfo> candidates;
    for (const auto& a : kAttrs) {
      if (v.cls == a.cls) candidates.push_back(a);
    }
    if (candidates.empty()) {
      if (v.cls == "Course") return v.name + ".cname != \"nope\"";
      if (v.cls == "Section") return v.name + ".number != \"nope\"";
      return v.name + ".name != \"nope\"";
    }
    const AttrInfo a = candidates[Pick(candidates.size())];
    static const char* kOps[] = {"<", "<=", ">", ">=", "!="};
    const int c =
        a.lo + static_cast<int>(Pick(static_cast<size_t>(a.hi - a.lo)));
    return std::string(v.name) + "." + a.attr + " " + kOps[Pick(5)] + " " +
           std::to_string(c);
  }

  std::string RandomProjection(const Var& v) {
    if (Pick(3) == 0) return v.name;
    if (v.cls == "Course") return v.name + ".cname";
    if (v.cls == "Section") return v.name + ".number";
    return v.name + ".name";
  }

  std::mt19937_64 rng_;
  std::vector<Var> vars_;
  std::vector<std::string> from_;
  std::vector<std::string> where_;
};

void RecordMismatch(FuzzReport* report, uint64_t iteration_seed,
                    const std::string& oql, size_t alternative,
                    std::string detail) {
  ++report->mismatches;
  obs::Count("fuzz.mismatches");
  if (report->mismatch_details.size() < kMaxMismatchDetails) {
    report->mismatch_details.push_back(
        FuzzMismatch{iteration_seed, oql, alternative, std::move(detail)});
  }
}

}  // namespace

std::string FuzzReport::Summary() const {
  return std::to_string(iterations) + " iterations, " +
         std::to_string(queries) + " queries, " + std::to_string(alternatives) +
         " alternatives; " + std::to_string(mismatches) + " mismatches, " +
         std::to_string(verifier_rejects) + " verifier rejects (" +
         std::to_string(incompleteness) + " incomplete)";
}

sqo::Result<FuzzReport> RunDifferentialFuzz(const FuzzConfig& config) {
  obs::Span span("fuzz.run");
  FuzzReport report;
  for (size_t iter = 0; iter < config.iterations; ++iter) {
    obs::Span iter_span("fuzz.iteration");
    const uint64_t iter_seed = Mix(config.seed + iter);
    iter_span.Tag("seed", iter_seed);
    std::mt19937_64 rng(iter_seed);
    auto pick = [&rng](int lo, int hi) {
      return std::uniform_int_distribution<int>(lo, hi)(rng);
    };

    // Extra random ICs strictly weaker than the generator's invariants
    // (min faculty age 31, min faculty salary 45000), so every populated
    // store satisfies them — more semantic knowledge, same data.
    std::string ics(UniversityIcs());
    if (pick(0, 1) == 1) {
      ics += "FZA: Age >= " + std::to_string(pick(18, 30)) +
             " <- faculty(oid: X, age: Age).\n";
    }
    if (pick(0, 1) == 1) {
      ics += "FZS: Salary > " + std::to_string(pick(30000, 44000)) +
             " <- faculty(oid: X, salary: Salary).\n";
    }

    SQO_ASSIGN_OR_RETURN(
        core::Pipeline pipeline,
        core::Pipeline::Create(UniversityOdl(), ics, {UniversityAsr()}));

    GeneratorConfig gen;
    gen.seed = iter_seed;
    gen.n_plain_persons = static_cast<size_t>(pick(10, 30));
    gen.n_students = static_cast<size_t>(pick(20, 60));
    gen.n_faculty = static_cast<size_t>(pick(4, 10));
    gen.n_courses = static_cast<size_t>(pick(3, 6));
    engine::Database db(&pipeline.schema());
    SQO_RETURN_IF_ERROR(PopulateUniversity(gen, pipeline, &db));

    RandomOql oql_gen(iter_seed);
    for (size_t qi = 0; qi < config.queries_per_iteration; ++qi) {
      const std::string oql = oql_gen.Generate();
      auto result = pipeline.OptimizeText(oql);
      if (!result.ok()) continue;  // generator/grammar mismatch: skip
      ++report.queries;
      obs::Count("fuzz.queries");

      auto rows_orig = db.Run(result->original_datalog);
      if (!rows_orig.ok()) continue;
      const std::vector<std::string> expected = CanonicalRows(*rows_orig);

      if (result->contradiction) {
        if (!expected.empty()) {
          RecordMismatch(&report, iter_seed, oql, 0,
                         "claimed contradiction but the original query has " +
                             std::to_string(expected.size()) + " answers");
        }
        continue;
      }

      SQO_ASSIGN_OR_RETURN(analysis::VerificationResult verification,
                           pipeline.Verify(*result, config.verifier));
      for (size_t i = 1; i < result->alternatives.size(); ++i) {
        const core::Alternative& alt = result->alternatives[i];
        ++report.alternatives;
        const bool sound = verification.verdicts[i].sound;
        auto rows = db.Run(alt.datalog);
        if (!rows.ok()) {
          if (sound) {
            RecordMismatch(&report, iter_seed, oql, i,
                           "verifier-sound alternative failed to evaluate: " +
                               rows.status().ToString());
          }
          continue;
        }
        const bool agree = CanonicalRows(*rows) == expected;
        if (sound && !agree) {
          RecordMismatch(&report, iter_seed, oql, i,
                         "verifier says sound but answers differ: " +
                             alt.datalog.ToString());
        }
        if (!sound) {
          ++report.verifier_rejects;
          obs::Count("fuzz.verifier_rejects");
          if (agree) ++report.incompleteness;
        }
      }
    }
    ++report.iterations;
  }
  span.Tag("queries", static_cast<uint64_t>(report.queries));
  span.Tag("mismatches", static_cast<uint64_t>(report.mismatches));
  return report;
}

std::string_view ResidueCorruptionName(ResidueCorruption kind) {
  switch (kind) {
    case ResidueCorruption::kMutateGuard:
      return "mutate_guard";
    case ResidueCorruption::kDropRemainderLiteral:
      return "drop_remainder_literal";
  }
  return "unknown";
}

sqo::Result<std::string> CorruptResidue(core::CompiledSchema* compiled,
                                        uint64_t seed,
                                        ResidueCorruption kind) {
  // Deterministic candidate scan in relation order (std::map).
  std::vector<core::Residue*> candidates;
  for (auto& [relation, residues] : compiled->residues) {
    for (core::Residue& r : residues) {
      switch (kind) {
        case ResidueCorruption::kMutateGuard:
          // Strict lower-bound invariants with an empty remainder (IC1-style
          // "Salary > 40K <- faculty") fire on any scan of the relation, and
          // doubling the bound makes the optimizer both introduce the
          // inflated guard and eliminate user guards it does not imply.
          if (r.remainder.empty() && r.head.has_value() &&
              r.head->atom.is_comparison() && r.head->atom.rhs().is_constant() &&
              r.head->atom.rhs().constant().is_numeric() &&
              r.head->atom.op() == datalog::CmpOp::kGt) {
            candidates.push_back(&r);
          }
          break;
        case ResidueCorruption::kDropRemainderLiteral:
          // Scope-reduction contrapositives: negated-class head guarded by
          // a comparison remainder; dropping the guard makes the reduction
          // fire unconditionally.
          if (!r.remainder.empty() && r.head.has_value() &&
              !r.head->positive && r.head->atom.is_predicate()) {
            candidates.push_back(&r);
          }
          break;
      }
    }
  }
  if (candidates.empty()) {
    return sqo::NotFoundError(
        std::string("no residue of the required shape for corruption ") +
        std::string(ResidueCorruptionName(kind)));
  }
  // The detection probe drives fixed queries (a guarded faculty scan and an
  // unrestricted person scan); prefer victims attached to those relations so
  // the corruption is reachable, falling back to the full candidate set for
  // schemas without them.
  const char* preferred =
      kind == ResidueCorruption::kMutateGuard ? "faculty" : "person";
  std::vector<core::Residue*> scoped;
  for (core::Residue* r : candidates) {
    if (r->relation == preferred) scoped.push_back(r);
  }
  if (!scoped.empty()) candidates = std::move(scoped);
  core::Residue& victim = *candidates[seed % candidates.size()];
  const std::string before = victim.ToString();
  switch (kind) {
    case ResidueCorruption::kMutateGuard: {
      const double old_value = victim.head->atom.rhs().constant().AsNumeric();
      victim.head->atom.mutable_args()[1] =
          datalog::Term::Double(old_value * 2.0);
      break;
    }
    case ResidueCorruption::kDropRemainderLiteral: {
      victim.remainder.erase(victim.remainder.begin() +
                             static_cast<long>(seed % victim.remainder.size()));
      victim.FinalizeForMatching();
      break;
    }
  }
  return std::string(ResidueCorruptionName(kind)) + " on " + victim.relation +
         ": " + before + "  ==>  " + victim.ToString();
}

sqo::Result<CorruptionProbe> ProbeCorruptedResidue(uint64_t seed,
                                                   ResidueCorruption kind) {
  obs::Span span("fuzz.corruption_probe");
  span.Tag("kind", ResidueCorruptionName(kind));

  // Clean side: the reference pipeline supplies the verifier catalog and
  // the schema the evaluation store is populated against.
  SQO_ASSIGN_OR_RETURN(core::Pipeline clean, MakeUniversityPipeline());
  engine::Database db(&clean.schema());
  GeneratorConfig gen;
  gen.seed = seed;
  SQO_RETURN_IF_ERROR(PopulateUniversity(gen, clean, &db));
  analysis::VerifierCatalog catalog;
  catalog.schema = &clean.schema();
  catalog.ics = &clean.compiled().all_ics;
  catalog.asrs = &clean.compiled().asrs;

  // Corrupted side: an independently compiled semantic catalog (Pipeline
  // keeps its own private) with one residue mutated, driven directly
  // through the Step-3 optimizer.
  SQO_ASSIGN_OR_RETURN(odl::SchemaAst ast, odl::ParseOdl(UniversityOdl()));
  SQO_ASSIGN_OR_RETURN(odl::Schema odl_schema, odl::Schema::Resolve(ast));
  SQO_ASSIGN_OR_RETURN(translate::TranslatedSchema translated,
                       translate::TranslateSchema(odl_schema));
  auto schema = std::make_unique<translate::TranslatedSchema>(
      std::move(translated));
  std::vector<core::AsrDefinition> registry;
  SQO_RETURN_IF_ERROR(
      core::RegisterAsr(UniversityAsr(), schema.get(), &registry));
  SQO_ASSIGN_OR_RETURN(
      std::vector<datalog::Clause> user_ics,
      datalog::ParseProgram(UniversityIcs(), &schema->catalog));
  for (const core::AsrDefinition& def : registry) {
    user_ics.push_back(def.view);
  }
  SQO_ASSIGN_OR_RETURN(core::CompiledSchema compiled,
                       core::CompileSemantics(schema.get(), std::move(user_ics),
                                              std::move(registry)));

  CorruptionProbe probe;
  SQO_ASSIGN_OR_RETURN(probe.description,
                       CorruptResidue(&compiled, seed, kind));

  core::Optimizer optimizer(&compiled);
  // One query per corruption family: a salary restriction the mutated
  // guard over-strengthens, and an unrestricted Person scan the dropped
  // guard wrongly scope-reduces. Both run under either corruption; the
  // untargeted one simply stays clean.
  static const char* kProbeQueries[] = {
      "select f.name from f in Faculty where f.salary > 30000",
      "select p.name from p in Person",
  };
  for (const char* oql_text : kProbeQueries) {
    SQO_ASSIGN_OR_RETURN(oql::SelectQuery parsed, oql::ParseOql(oql_text));
    SQO_ASSIGN_OR_RETURN(translate::TranslatedQuery tq,
                         translate::TranslateQuery(*schema, parsed));
    SQO_ASSIGN_OR_RETURN(core::OptimizationOutcome outcome,
                         optimizer.Optimize(tq.query));
    SQO_ASSIGN_OR_RETURN(auto rows_orig, db.Run(tq.query));
    const std::vector<std::string> expected = CanonicalRows(rows_orig);
    if (outcome.contradiction) {
      // Neither corruption can prove these queries empty; a claimed
      // contradiction with answers is itself an answer divergence.
      if (!expected.empty()) probe.answers_differ = true;
      continue;
    }
    for (size_t i = 1; i < outcome.equivalents.size(); ++i) {
      const core::Rewriting& rw = outcome.equivalents[i];
      ++probe.alternatives;
      analysis::RewriteCandidate candidate;
      candidate.query = &rw.query;
      candidate.steps = &rw.steps;
      const analysis::AlternativeVerdict verdict =
          analysis::VerifyRewriting(catalog, tq.query, candidate, i);
      if (!verdict.sound) probe.verifier_flagged = true;
      auto rows = db.Run(rw.query);
      if (!rows.ok() || CanonicalRows(*rows) != expected) {
        probe.answers_differ = true;
      }
    }
  }
  span.Tag("verifier_flagged", probe.verifier_flagged ? "true" : "false");
  span.Tag("answers_differ", probe.answers_differ ? "true" : "false");
  return probe;
}

}  // namespace sqo::workload
