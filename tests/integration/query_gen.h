#ifndef SQO_TESTS_INTEGRATION_QUERY_GEN_H_
#define SQO_TESTS_INTEGRATION_QUERY_GEN_H_

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace sqo {

/// Deterministic random OQL generator over the Figure-1 schema. Each range
/// variable tracks its class so relationship steps stay type-correct.
class QueryGen {
 public:
  explicit QueryGen(uint64_t seed) : rng_(seed) {}

  std::string Generate() {
    vars_.clear();
    from_.clear();
    where_.clear();

    // Root range over a random extent.
    static const char* kClasses[] = {"Person",  "Student", "Faculty",
                                     "TA",      "Course",  "Section",
                                     "Employee"};
    std::string root_class = kClasses[Pick(7)];
    AddVar(root_class);

    // 0–3 relationship hops from random existing variables.
    const int hops = Pick(4);
    for (int i = 0; i < hops; ++i) {
      const size_t base = Pick(vars_.size());
      auto rel = RandomRelationship(vars_[base].cls);
      if (!rel.has_value()) continue;
      std::string var = AddVar(rel->second);
      from_.back() = var + " in " + vars_[base].name + "." + rel->first;
    }

    // 0–2 attribute restrictions.
    const int restrictions = Pick(3);
    for (int i = 0; i < restrictions; ++i) {
      const size_t v = Pick(vars_.size());
      where_.push_back(RandomRestriction(vars_[v]));
    }

    // Occasionally exclude a subclass (valid `not in`).
    if (Pick(4) == 0) {
      for (const Var& v : vars_) {
        auto sub = SubclassOf(v.cls);
        if (sub.has_value()) {
          from_.push_back(v.name + " not in " + *sub);
          break;
        }
      }
    }

    // Project 1–2 expressions.
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

  size_t Pick(size_t n) { return std::uniform_int_distribution<size_t>(0, n - 1)(rng_); }

  std::string AddVar(const std::string& cls) {
    std::string name = "v" + std::to_string(vars_.size());
    vars_.push_back({name, cls});
    from_.push_back(name + " in " + cls);
    return name;
  }

  /// A relationship visible on `cls` (declared or inherited), with target.
  std::optional<std::pair<std::string, std::string>> RandomRelationship(
      const std::string& cls) {
    // (class, relationship, target) triples of the university schema.
    static const struct {
      const char* cls;
      const char* rel;
      const char* target;
    } kRels[] = {
        {"Student", "takes", "Section"},      {"TA", "takes", "Section"},
        {"TA", "assists", "Section"},         {"Faculty", "teaches", "Section"},
        {"Course", "has_sections", "Section"}, {"Section", "is_taken_by", "Student"},
        {"Section", "is_taught_by", "Faculty"}, {"Section", "is_section_of", "Course"},
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
    // Numeric attributes with plausible constant ranges.
    static const AttrInfo kAttrs[] = {
        {"Person", "age", 10, 90},    {"Student", "age", 10, 90},
        {"Faculty", "age", 10, 90},   {"TA", "age", 10, 90},
        {"Employee", "age", 10, 90},  {"Faculty", "salary", 30000, 130000},
        {"Employee", "salary", 30000, 130000},
    };
    std::vector<AttrInfo> candidates;
    for (const auto& a : kAttrs) {
      if (v.cls == a.cls) candidates.push_back(a);
    }
    if (candidates.empty()) {
      // Fall back to a name disequality, valid on every class but Course /
      // Section (which have other string attributes).
      if (v.cls == "Course") return v.name + ".cname != \"nope\"";
      if (v.cls == "Section") return v.name + ".number != \"nope\"";
      return v.name + ".name != \"nope\"";
    }
    const AttrInfo a = candidates[Pick(candidates.size())];
    static const char* kOps[] = {"<", "<=", ">", ">=", "!="};
    const char* op = kOps[Pick(5)];
    const int c = a.lo + static_cast<int>(Pick(static_cast<size_t>(a.hi - a.lo)));
    return std::string(v.name) + "." + a.attr + " " + op + " " +
           std::to_string(c);
  }

  std::string RandomProjection(const Var& v) {
    if (Pick(3) == 0) return v.name;  // project the object itself
    if (v.cls == "Course") return v.name + ".cname";
    if (v.cls == "Section") return v.name + ".number";
    return v.name + ".name";
  }

  std::mt19937_64 rng_;
  std::vector<Var> vars_;
  std::vector<std::string> from_;
  std::vector<std::string> where_;
};

/// The generator seed of sweep parameter `param` (the random property
/// suites and the Step-3 golden test share it).
inline uint64_t QueryGenSeed(int param) {
  return static_cast<uint64_t>(param) * 0x9e3779b9u + 1;
}

}  // namespace sqo

#endif  // SQO_TESTS_INTEGRATION_QUERY_GEN_H_
