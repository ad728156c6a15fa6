// Golden oracle for Step-3 outcomes: every query of a fixed set (the
// paper's shapes, the evaluator's differential corpus, the equivalence
// corpus and the random property sweep's queries) is optimized and its
// outcome rendered in full — contradiction, reason and witness; each
// alternative's query, derivation lines and structured steps — and the
// rendering's digest must equal the pinned one in step3_golden.txt.
//
// A change that alters alternatives on purpose re-pins the affected lines
// (each mismatch prints the new `GOLDEN <id> <digest>` line and the full
// rendering) and names them in CHANGES.md.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "datalog/parser.h"
#include "engine/eval_corpus.h"
#include "integration/equivalence_corpus.h"
#include "integration/query_gen.h"
#include "sqo/optimizer.h"
#include "workload/university.h"

namespace sqo {
namespace {

core::Pipeline* UniversityPipeline() {
  static core::Pipeline* pipeline = [] {
    auto p = workload::MakeUniversityPipeline();
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return new core::Pipeline(std::move(p).value());
  }();
  return pipeline;
}

std::string Render(const core::OptimizationOutcome& outcome) {
  std::string out = "contradiction " +
                    std::to_string(outcome.contradiction ? 1 : 0) + "\n";
  if (outcome.contradiction) {
    out += "reason " + outcome.contradiction_reason + "\n";
    out += "witness " + outcome.contradiction_witness.ToString() + "\n";
  }
  for (size_t i = 0; i < outcome.equivalents.size(); ++i) {
    const core::Rewriting& r = outcome.equivalents[i];
    out += "alt " + std::to_string(i) + " " + r.query.ToString() + "\n";
    for (const std::string& line : r.derivation) {
      out += "  derivation " + line + "\n";
    }
    for (const core::DerivationStep& step : r.steps) {
      out += "  step " + std::string(core::StepKindName(step.kind));
      for (const datalog::Literal& l : step.added) out += " +" + l.ToString();
      for (const datalog::Literal& l : step.removed) out += " -" + l.ToString();
      if (!step.merge_drop.empty()) {
        out += " merge " + step.merge_drop + "->" + step.merge_keep;
      }
      out += " source [" + step.source + "] text " + step.text + "\n";
    }
  }
  return out;
}

std::string Digest(const std::string& text) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

const std::map<std::string, std::string>& Golden() {
  static const auto* golden = [] {
    auto* out = new std::map<std::string, std::string>();
    std::ifstream in(SQO_STEP3_GOLDEN_FILE);
    EXPECT_TRUE(in.good()) << "cannot read " << SQO_STEP3_GOLDEN_FILE;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string id, digest;
      fields >> id >> digest;
      (*out)[id] = digest;
    }
    return out;
  }();
  return *golden;
}

/// Optimizes `query` and compares the digest of its rendered outcome with
/// the pinned one.
void ExpectGolden(const std::string& id, const datalog::Query& query) {
  core::Pipeline* pipeline = UniversityPipeline();
  const core::Optimizer optimizer(&pipeline->compiled(),
                                  pipeline->options().optimizer);
  auto outcome = optimizer.Optimize(query);
  ASSERT_TRUE(outcome.ok()) << id << ": " << outcome.status().ToString();
  const std::string rendering = Render(*outcome);
  const std::string digest = Digest(rendering);
  auto it = Golden().find(id);
  const std::string pinned = it == Golden().end() ? "<none>" : it->second;
  EXPECT_EQ(digest, pinned) << "GOLDEN " << id << " " << digest
                            << "\nquery: " << query.ToString() << "\n"
                            << rendering;
}

void ExpectGoldenOql(const std::string& id, const std::string& oql) {
  auto result = UniversityPipeline()->OptimizeText(oql);
  ASSERT_TRUE(result.ok()) << id << ": " << result.status().ToString();
  ExpectGolden(id, result->original_datalog);
}

TEST(Step3Golden, PaperShapes) {
  const std::string ex2_prefix =
      "select z.name, w.city\n"
      "from x in Student, y in x.takes, z in y.is_taught_by, w in z.address\n"
      "where x.name = ";
  const std::string keyed = workload::QueryJoinElimination() + " and s.name = ";
  const std::vector<std::pair<std::string, std::string>> shapes = {
      {"paper/ex2", workload::QueryExample2()},
      {"paper/ex2_james_2500",
       ex2_prefix + "\"james\" and z.taxes_withheld(10%) < 2500"},
      {"paper/ex2_johnson_4000",
       ex2_prefix + "\"johnson\" and z.taxes_withheld(10%) < 4000"},
      {"paper/scope", workload::QueryScopeReduction()},
      {"paper/scope_22", "select x.name from x in Person where x.age < 22"},
      {"paper/scope_38", "select x.name from x in Person where x.age < 38"},
      {"paper/join", workload::QueryJoinElimination()},
      {"paper/join_james", keyed + "\"james\""},
      {"paper/join_john", keyed + "\"john\""},
      {"paper/asr_direct", workload::QueryAsrDirect()},
      {"paper/asr_indirect", workload::QueryAsrIndirect()},
      {"paper/lookup",
       "select x.age from x in Person where x.name = \"john\""},
  };
  for (const auto& [id, oql] : shapes) ExpectGoldenOql(id, oql);
}

TEST(Step3Golden, EvalCorpus) {
  size_t i = 0;
  for (const char* text : engine::kEvalCorpus) {
    auto query = datalog::ParseQueryText(
        text, &UniversityPipeline()->schema().catalog);
    ASSERT_TRUE(query.ok()) << text << ": " << query.status().ToString();
    ExpectGolden("corpus/" + std::to_string(i++), *query);
  }
}

TEST(Step3Golden, EquivalenceCorpus) {
  for (const EquivalenceCase& c : kEquivalenceCorpus) {
    ExpectGoldenOql(std::string("equiv/") + c.label, c.oql);
  }
}

TEST(Step3Golden, RandomSweep) {
  for (int seed = 1; seed <= 12; ++seed) {
    QueryGen gen(QueryGenSeed(seed));
    for (int i = 0; i < 8; ++i) {
      ExpectGoldenOql(
          "random/" + std::to_string(seed) + "/" + std::to_string(i),
          gen.Generate());
    }
  }
}

}  // namespace
}  // namespace sqo
