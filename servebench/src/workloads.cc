#include <algorithm>

#include "bench.h"
#include "workload/university.h"

namespace servebench {

std::optional<WorkloadSpec> FindWorkload(const std::string& name, bool tiny,
                                        bool trace) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "paper_small") {
    // Default generator: 670 objects (310 persons, each with an address;
    // 10 courses, 40 sections). The traced run attaches storage, so that
    // the write-path layers are measured on this workload too (see
    // README.md for why the untraced run does not).
    spec.storage = trace;
    spec.loop = Loop::kClosed;
    spec.sessions = 4;
    spec.setups = tiny ? 1 : 101;
    spec.write_probes = tiny ? 400 : 1000;
  } else if (name == "scan_large") {
    // ~61k objects (30.6k persons, each with an address); reads scan the
    // Student extent (10.4k objects), so one read touches ~10^4 objects.
    spec.data.n_plain_persons = tiny ? 400 : 20'000;
    spec.data.n_students = tiny ? 1'000 : 10'000;
    spec.data.n_faculty = tiny ? 20 : 200;
    spec.data.n_courses = tiny ? 10 : 100;
    // Two sessions on two workers: in sizing on a 4-vCPU VM, four busy
    // threads split read latency into a fast and a slow mode whose weights
    // changed from run to run (see README.md).
    spec.loop = Loop::kClosed;
    spec.sessions = 2;
    spec.workers = 2;
    spec.setups = tiny ? 1 : 7;
    spec.write_probes = tiny ? 400 : 1000;
  } else if (name == "read_write_wal") {
    spec.storage = true;
    spec.loop = Loop::kOpen;
    // Rates well below saturation: at twice these, stalls of the shared
    // machine pushed the admission queue past the degrade threshold.
    spec.writer_sessions = 2;
    spec.reader_sessions = 2;
    spec.writes_per_s = 50;
    spec.reads_per_s = 125;
    spec.setups = tiny ? 1 : 41;
  } else {
    return std::nullopt;
  }
  return spec;
}

namespace {

/// `count` constants spread evenly over [lo, hi], shifted by a seeded
/// offset: the seed moves every constant while the pool's range and
/// spacing — and so the work it implies — stay the same.
std::vector<int> StratifiedInts(int lo, int hi, size_t count,
                                std::mt19937_64& rng) {
  const double offset = std::uniform_real_distribution<double>(0, 1)(rng);
  const double width = static_cast<double>(hi - lo + 1) / static_cast<double>(count);
  std::vector<int> out;
  for (size_t k = 0; k < count; ++k) {
    out.push_back(lo + static_cast<int>((static_cast<double>(k) + offset) * width));
  }
  return out;
}

std::string Quoted(const std::string& s) { return "\"" + s + "\""; }

/// Names the university generator gives its objects (see
/// PopulateUniversity): plain persons are person_1..person_N, students
/// after the three paper names continue the same counter.
std::string PlainPersonName(const sqo::workload::GeneratorConfig& data,
                            size_t i) {
  return "person_" + std::to_string(1 + i % data.n_plain_persons);
}
std::string StudentName(const sqo::workload::GeneratorConfig& data, size_t i) {
  static const char* kPaper[] = {"john", "james", "johnson"};
  i %= data.n_students;
  if (i < 3) return kPaper[i];
  return "student_" + std::to_string(data.n_plain_persons + 1 + i);
}

}  // namespace

ReadMix::ReadMix(const WorkloadSpec& spec, uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  const sqo::workload::GeneratorConfig& data = spec.data;
  auto add_shape = [&](const std::vector<std::string>& texts, bool skewed) {
    Shape shape;
    for (size_t k = 0; k < texts.size(); ++k) {
      auto it = std::find(distinct_.begin(), distinct_.end(), texts[k]);
      shape.texts.push_back(static_cast<size_t>(it - distinct_.begin()));
      if (it == distinct_.end()) distinct_.push_back(texts[k]);
      // Zipf(1) over ranks for skewed pools, uniform otherwise.
      shape.weights.push_back(skewed ? 1.0 / static_cast<double>(k + 1) : 1.0);
    }
    shapes_.push_back(std::move(shape));
  };
  auto pick_students = [&](size_t count) {
    std::vector<std::string> names = {"john", "james", "johnson"};
    std::uniform_int_distribution<size_t> any(3, data.n_students - 1);
    while (names.size() < count) names.push_back(StudentName(data, any(rng)));
    std::shuffle(names.begin(), names.end(), rng);
    names.resize(count);
    return names;
  };
  auto pick_persons = [&](size_t count) {
    std::vector<std::string> names;
    std::uniform_int_distribution<size_t> any(0, data.n_plain_persons - 1);
    for (size_t k = 0; k < count; ++k) names.push_back(PlainPersonName(data, any(rng)));
    return names;
  };
  auto scope = [](const std::string& cls, const std::string& op, int c) {
    return "select x.name from x in " + cls + " where x.age " + op + " " +
           std::to_string(c);
  };
  auto point = [](const std::string& name) {
    return "select x.age from x in Person where x.name = " + Quoted(name);
  };

  if (spec.name == "paper_small") {
    // The paper's query shapes (§4.3, §5.2-5.4) plus a key lookup, with
    // constants from small Zipf-skewed pools: texts repeat often.
    std::vector<std::string> ex2;
    std::vector<std::string> students = pick_students(4);
    std::vector<int> limits = StratifiedInts(1000, 3000, 4, rng);
    for (size_t k = 0; k < 4; ++k) {
      ex2.push_back(
          "select z.name, w.city\n"
          "from x in Student, y in x.takes, z in y.is_taught_by, w in z.address\n"
          "where x.name = " + Quoted(students[k]) +
          " and z.taxes_withheld(10%) < " + std::to_string(limits[k]));
    }
    add_shape(ex2, true);
    std::vector<std::string> ages;
    for (int c : StratifiedInts(22, 38, 4, rng)) ages.push_back(scope("Person", "<", c));
    std::shuffle(ages.begin(), ages.end(), rng);
    add_shape(ages, true);
    // §5.3 with the student fixed by a key constant: the unselective
    // original joins every student with every TA (25 ms of evaluation),
    // which would make this workload evaluator-bound.
    std::vector<std::string> joins;
    for (const std::string& s : pick_students(4)) {
      joins.push_back(sqo::workload::QueryJoinElimination() +
                      " and s.name = " + Quoted(s));
    }
    add_shape(joins, true);
    for (const char* var : {"direct", "indirect"}) {
      std::vector<std::string> asr;
      for (const std::string& s : pick_students(4)) {
        asr.push_back(std::string(var) == "direct"
                          ? "select w\n"
                            "from x in Student, y in x.takes, z in y.is_section_of,\n"
                            "     v in z.has_sections, w in v.has_ta\n"
                            "where x.name = " + Quoted(s)
                          : "select v\n"
                            "from x in Student, y in x.takes, z in y.is_section_of,\n"
                            "     v in z.has_sections\n"
                            "where x.name = " + Quoted(s));
      }
      add_shape(asr, true);
    }
    std::vector<std::string> points;
    for (const std::string& p : pick_persons(4)) points.push_back(point(p));
    add_shape(points, true);
  } else if (spec.name == "scan_large") {
    // Extent scans only: a two-sided age range over Student (the §5.2
    // selection shape), 26 uniform constants (little sharing). Every read
    // scans the same extent and keeps ~7% of it, so the work per read is
    // nearly constant: one-sided ranges (results of 10-80% of the extent)
    // or scans of a differently sized extent (Person, Employee) spread
    // latency into a wide or multi-modal distribution.
    std::vector<std::string> texts;
    for (int a = 17; a <= 42; ++a) {
      texts.push_back("select x.name from x in Student where x.age > " +
                      std::to_string(a) + " and x.age < " + std::to_string(a + 3));
    }
    std::shuffle(texts.begin(), texts.end(), rng);
    add_shape(texts, false);
  } else {
    // Reader sessions of read_write_wal: key lookups on plain persons and
    // §5.2 scans below age 40. Writers only touch persons they create
    // (ages 60+) and `takes`, so these answers never change.
    std::vector<std::string> points, ages;
    for (const std::string& p : pick_persons(8)) points.push_back(point(p));
    for (int c : StratifiedInts(22, 38, 8, rng)) ages.push_back(scope("Person", "<", c));
    // Two lookups per scan, so the median read is a lookup and the tail a
    // scan, rather than the median sitting on the boundary between them.
    add_shape(points, false);
    add_shape(points, false);
    add_shape(ages, false);
  }
}

const std::string& ReadMix::Next(std::mt19937_64& rng, uint64_t* cursor) const {
  const Shape& shape = shapes_[(*cursor)++ % shapes_.size()];
  std::discrete_distribution<size_t> pick(shape.weights.begin(),
                                          shape.weights.end());
  return distinct_[shape.texts[pick(rng)]];
}

}  // namespace servebench
