#include "sqo/semantic_compiler.h"

#include <set>

#include "common/context.h"
#include "common/failpoint.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sqo::core {

using datalog::Atom;
using datalog::Clause;
using datalog::Literal;
using datalog::Term;

size_t CompiledSchema::total_residues() const {
  size_t n = 0;
  for (const auto& [rel, rs] : residues) n += rs.size();
  return n;
}

std::string CompiledSchema::ToString() const {
  std::string out;
  for (const auto& [rel, rs] : residues) {
    out += rel + ":\n";
    for (const Residue& r : rs) {
      out += "  " + r.ToString();
      if (!r.source.empty()) out += "   [" + r.source + "]";
      out += "\n";
    }
  }
  return out;
}

namespace {

/// True for residue heads that can never constrain a query: reflexive
/// comparisons such as `T = T` or `R1 <= R1`.
bool TriviallyTrueHead(const Residue& residue) {
  if (!residue.head.has_value()) return false;
  const Atom& atom = residue.head->atom;
  if (!atom.is_comparison()) return false;
  if (atom.lhs() != atom.rhs()) return false;
  switch (atom.op()) {
    case datalog::CmpOp::kEq:
    case datalog::CmpOp::kLe:
    case datalog::CmpOp::kGe:
      return true;
    default:
      return false;
  }
}

}  // namespace

sqo::Result<CompiledSchema> CompileSemantics(
    const translate::TranslatedSchema* schema, std::vector<Clause> user_ics,
    std::vector<AsrDefinition> asrs, const CompilerOptions& options) {
  obs::Span span("semantic.compile");
  SQO_FAILPOINT("compile.semantics");
  SQO_RETURN_IF_ERROR(CheckGovernance("compile.semantics"));
  CompiledSchema out;
  out.schema = schema;
  out.asrs = std::move(asrs);

  InferenceInput inference_input;
  SQO_RETURN_IF_ERROR(ExtractMethodFacts(&user_ics, &inference_input));

  out.all_ics = schema->constraints;
  for (Clause& ic : user_ics) out.all_ics.push_back(std::move(ic));

  if (options.run_inference) {
    obs::Span infer_span("semantic.infer");
    inference_input.ics = out.all_ics;
    std::vector<Clause> derived =
        InferConstraints(inference_input, *schema, options.inference);
    infer_span.Tag("derived_ics", static_cast<uint64_t>(derived.size()));
    obs::Count("compile.derived_ics", derived.size());
    for (Clause& ic : derived) out.all_ics.push_back(std::move(ic));
  }

  // Partial subsumption of every IC against every relation in its body.
  obs::Span residue_span("semantic.residues");
  int residue_counter = 0;
  for (const Clause& ic : out.all_ics) {
    std::set<std::string> body_relations;
    for (const Literal& lit : ic.body) {
      if (lit.positive && lit.atom.is_predicate()) {
        body_relations.insert(lit.atom.predicate());
      }
    }
    for (const std::string& rel : body_relations) {
      const datalog::RelationSignature* sig = schema->catalog.Find(rel);
      if (sig == nullptr) {
        return sqo::SemanticError("integrity constraint '" +
                                  (ic.label.empty() ? ic.ToString() : ic.label) +
                                  "' mentions unknown relation '" + rel + "'");
      }
      for (Residue& residue : ComputeResidues(ic, *sig)) {
        if (options.drop_trivial && TriviallyTrueHead(residue)) continue;
        // Rename apart once, with a per-residue "_R<n>_" prefix no query
        // variable can collide with (the translator never generates that
        // prefix), so the optimizer can skip per-application renaming.
        datalog::FreshVarGen gen("_R" + std::to_string(++residue_counter) + "_");
        Clause as_clause;
        as_clause.head = residue.head;
        as_clause.body.push_back(Literal::Pos(residue.template_atom));
        for (const Literal& lit : residue.remainder) {
          as_clause.body.push_back(lit);
        }
        Clause renamed = as_clause.RenamedApart(&gen);
        residue.head = renamed.head;
        residue.template_atom = renamed.body.front().atom;
        residue.remainder.assign(renamed.body.begin() + 1, renamed.body.end());
        residue.variables = renamed.VariableSet();
        // Precompute the application-time acceleration data (interned
        // bindable set, remainder predicate requirements) once, here,
        // instead of per application in the optimizer's hot loop.
        residue.FinalizeForMatching();
        out.residues[rel].push_back(std::move(residue));
      }
    }
  }
  residue_span.Tag("ics", static_cast<uint64_t>(out.all_ics.size()));
  residue_span.Tag("residues", static_cast<uint64_t>(out.total_residues()));
  obs::Count("compile.ics", out.all_ics.size());
  return out;
}

}  // namespace sqo::core
