// Randomized equivalence fuzzing: generate syntactically valid OQL queries
// from a small grammar over the university schema, optimize each, and
// check that every produced rewriting returns exactly the original answer
// set, and that the original's answers equal the naive reference
// evaluator's. Complements the curated corpus in
// equivalence_property_test.cc with breadth: random join chains,
// restrictions, negations and projections. The same queries, and the
// paper's shapes, also check that the optimizer's removal probe equals a
// fresh consequence computation.

#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "engine/database.h"
#include "query_gen.h"
#include "reference_eval.h"
#include "workload/university.h"

namespace sqo {
namespace core {

/// Walks the search space the way Optimize does and holds every closure it
/// does not derive afresh — the semi-naive extension of a T2, T5 or T7
/// child, the filtered closure of a removal child — to a fresh Derive of
/// the same query: derivation for derivation, in order, with supports and
/// facts.
class ClosureProbe {
 public:
  struct Result {
    size_t extended = 0;
    size_t filtered = 0;
    std::vector<std::string> mismatches;
  };

  static Result Check(const Optimizer& optimizer, const datalog::Query& query,
                      int max_depth) {
    Result result;
    Optimizer::Stats stats;
    struct Node {
      Rewriting rewriting;
      Optimizer::Closure closure;
      int depth;
    };
    std::deque<Node> frontier;
    std::unordered_set<Fingerprint128, FingerprintHash> seen;
    seen.insert(query.CanonicalFingerprint());
    Rewriting original;
    original.query = query;
    frontier.push_back({original, optimizer.Derive(query, &stats), 0});
    while (!frontier.empty()) {
      Node node = std::move(frontier.front());
      frontier.pop_front();
      if (node.depth >= max_depth) continue;
      for (Optimizer::Candidate& next :
           optimizer.Neighbors(node.rewriting, node.closure, &stats)) {
        if (!seen.insert(next.rewriting.query.CanonicalFingerprint()).second) {
          continue;
        }
        const datalog::Query& child = next.rewriting.query;
        const Optimizer::Closure fresh = optimizer.Derive(child, &stats);
        std::optional<Optimizer::Closure> closure = std::move(next.closure);
        const char* how = "filtered";
        if (closure.has_value()) {
          ++result.filtered;
        } else if (next.grown_without.has_value()) {
          closure = optimizer.Extend(node.closure, node.rewriting.query,
                                     *next.grown_without, child, &stats);
          how = "extended";
          if (closure.has_value()) ++result.extended;
        }
        if (closure.has_value() && Render(*closure) != Render(fresh)) {
          result.mismatches.push_back(
              std::string(how) + " closure of " + child.ToString() + " via " +
              next.rewriting.derivation.back() + "\n" + Render(*closure) +
              "fresh:\n" + Render(fresh));
        }
        frontier.push_back({std::move(next.rewriting),
                            closure.has_value() ? std::move(*closure) : fresh,
                            node.depth + 1});
      }
    }
    return result;
  }

 private:
  /// Every live derivation in order: residue source, anchor and support
  /// as body indexes of the closure's query, literal and facts.
  static std::string Render(const Optimizer::Closure& closure) {
    const Optimizer::DerivationSet& set = *closure.set;
    auto body_index = [&](uint32_t support_index) {
      for (size_t j = 0; j < closure.origin.size(); ++j) {
        if (closure.origin[j] == support_index) return std::to_string(j);
      }
      return std::string("?");
    };
    std::string out;
    for (uint32_t d : closure.live) {
      const Optimizer::Derivation& der = set.list[d];
      out += "  [" + der.residue->source + "] @" + body_index(der.anchor) +
             " " + der.literal.ToString() + " support";
      for (size_t j = 0; j < closure.origin.size(); ++j) {
        if (set.Supports(d, closure.origin[j])) out += " " + std::to_string(j);
      }
      for (const auto& [x, y] : der.equalities) {
        out += " eq " + x.ToString() + "=" + y.ToString();
      }
      for (const datalog::Atom& c : der.implied) {
        out += " implied " + c.ToString();
      }
      out += "\n";
    }
    return out;
  }
};

}  // namespace core

namespace {

core::Pipeline* UniversityPipeline() {
  static core::Pipeline* pipeline = [] {
    auto p = workload::MakeUniversityPipeline();
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return new core::Pipeline(std::move(p).value());
  }();
  return pipeline;
}

/// The search's removal probe reads the consequences of `q` without
/// `body[i]` off the derivations of `q` itself. It must agree, literal for
/// literal and source for source, with applying the residues to the
/// shorter query.
void ExpectRemovalProbeExact(const core::Optimizer& optimizer,
                             const datalog::Query& q) {
  using Entry = std::tuple<datalog::Literal, std::string, bool>;
  auto entries = [](const std::vector<core::Consequence>& consequences) {
    std::vector<Entry> out;
    for (const core::Consequence& c : consequences) {
      out.emplace_back(c.literal, c.source, c.is_denial);
    }
    return out;
  };
  auto render = [](const std::vector<core::Consequence>& consequences) {
    std::string out;
    for (const core::Consequence& c : consequences) {
      out += "  " + c.ToString() + "\n";
    }
    return out;
  };
  for (size_t i = 0; i < q.body.size(); ++i) {
    datalog::Query rest = q;
    rest.body.erase(rest.body.begin() + static_cast<long>(i));
    const std::vector<core::Consequence> probe =
        optimizer.ConsequencesWithout(q, i);
    const std::vector<core::Consequence> fresh =
        optimizer.ImpliedConsequences(rest);
    EXPECT_TRUE(entries(probe) == entries(fresh))
        << "without " << q.body[i].ToString() << " in " << q.ToString()
        << "\nprobe:\n" << render(probe) << "fresh:\n" << render(fresh);
  }
}

/// Checks the removal probe on the Step-2 query of `oql` and on every
/// alternative the search reached from it.
void ExpectRemovalProbeExactOnAlternatives(const std::string& oql) {
  core::Pipeline* pipeline = UniversityPipeline();
  auto result = pipeline->OptimizeText(oql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const core::Optimizer optimizer(&pipeline->compiled());
  ExpectRemovalProbeExact(optimizer, result->original_datalog);
  for (const core::Alternative& alt : result->alternatives) {
    ExpectRemovalProbeExact(optimizer, alt.datalog);
  }
}

class RandomQuerySweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomQuerySweep, RewritingsPreserveAnswers) {
  core::Pipeline* pipeline = UniversityPipeline();
  static engine::Database* db = [pipeline] {
    auto* d = new engine::Database(&pipeline->schema());
    workload::GeneratorConfig config;
    config.n_plain_persons = 20;
    config.n_students = 40;
    config.n_faculty = 6;
    config.n_courses = 4;
    EXPECT_TRUE(workload::PopulateUniversity(config, *pipeline, d).ok());
    return d;
  }();

  QueryGen gen(QueryGenSeed(GetParam()));
  for (int i = 0; i < 8; ++i) {
    const std::string oql = gen.Generate();
    SCOPED_TRACE(oql);
    auto result = pipeline->OptimizeText(oql);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    auto rows_orig = db->Run(result->original_datalog);
    ASSERT_TRUE(rows_orig.ok()) << rows_orig.status().ToString();
    auto expected = engine::SortedBag(*rows_orig);
    auto reference =
        engine::ReferenceEvaluate(db->store(), result->original_datalog);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_EQ(expected, engine::SortedBag(*reference))
        << "the evaluator disagrees with the reference evaluator\n"
        << result->original_datalog.ToString();

    if (result->contradiction) {
      EXPECT_TRUE(expected.empty()) << "claimed contradiction has answers";
      continue;
    }
    for (const core::Alternative& alt : result->alternatives) {
      auto rows = db->Run(alt.datalog);
      ASSERT_TRUE(rows.ok())
          << rows.status().ToString() << "\n" << alt.datalog.ToString();
      EXPECT_EQ(engine::SortedBag(*rows), expected) << alt.datalog.ToString();
    }
  }
}

TEST_P(RandomQuerySweep, RemovalProbeMatchesFreshConsequences) {
  QueryGen gen(QueryGenSeed(GetParam()));
  for (int i = 0; i < 8; ++i) {
    const std::string oql = gen.Generate();
    SCOPED_TRACE(oql);
    ExpectRemovalProbeExactOnAlternatives(oql);
  }
}

/// Checks every closure the search extends or filters from the Step-2
/// query of `oql`; returns the number of extended closures.
size_t ExpectClosuresMatchFreshDerive(const std::string& oql) {
  core::Pipeline* pipeline = UniversityPipeline();
  auto result = pipeline->OptimizeText(oql);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return 0;
  const core::Optimizer optimizer(&pipeline->compiled());
  const core::ClosureProbe::Result probe =
      core::ClosureProbe::Check(optimizer, result->original_datalog,
                                pipeline->options().optimizer.max_depth);
  for (const std::string& mismatch : probe.mismatches) {
    ADD_FAILURE() << mismatch;
  }
  return probe.extended;
}

TEST_P(RandomQuerySweep, ExtendedClosuresMatchFreshDerive) {
  QueryGen gen(QueryGenSeed(GetParam()));
  for (int i = 0; i < 8; ++i) {
    const std::string oql = gen.Generate();
    SCOPED_TRACE(oql);
    ExpectClosuresMatchFreshDerive(oql);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQuerySweep, ::testing::Range(1, 13));

TEST(ExtendedClosure, MatchesFreshDeriveOnPaperShapes) {
  size_t extended = 0;
  for (const std::string& oql :
       {workload::QueryExample2(), workload::QueryScopeReduction(),
        workload::QueryJoinElimination(),
        workload::QueryJoinElimination() + " and s.name = \"james\"",
        workload::QueryAsrDirect(), workload::QueryAsrIndirect()}) {
    SCOPED_TRACE(oql);
    extended += ExpectClosuresMatchFreshDerive(oql);
  }
  // The shapes exercise the extension itself (T2 on §5.2, T5 and T7 on
  // §5.3 and §5.4), not only the fallback to a fresh Derive.
  EXPECT_GT(extended, 10u);
}

TEST(RemovalProbe, MatchesFreshConsequencesOnPaperShapes) {
  for (const std::string& oql :
       {workload::QueryExample2(), workload::QueryScopeReduction(),
        workload::QueryJoinElimination(),
        workload::QueryJoinElimination() + " and s.name = \"james\"",
        workload::QueryAsrDirect(), workload::QueryAsrIndirect()}) {
    SCOPED_TRACE(oql);
    ExpectRemovalProbeExactOnAlternatives(oql);
  }
}

}  // namespace
}  // namespace sqo
