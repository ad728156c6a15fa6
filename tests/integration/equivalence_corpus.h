#ifndef SQO_TESTS_INTEGRATION_EQUIVALENCE_CORPUS_H_
#define SQO_TESTS_INTEGRATION_EQUIVALENCE_CORPUS_H_

namespace sqo {

/// One labeled OQL query of the equivalence corpus.
struct EquivalenceCase {
  const char* label;
  const char* oql;
};

inline constexpr EquivalenceCase kEquivalenceCorpus[] = {
    {"scope", "select x.name from x in Person where x.age < 30"},
    {"scope_high", "select x.name from x in Person where x.age >= 40"},
    {"faculty_salary", "select x.name from x in Faculty where x.salary > 50K"},
    {"implied_restriction",
     "select x.name from x in Faculty where x.salary > 20K"},
    {"join2", "select y.number from x in Student, y in x.takes "
              "where x.name = \"john\""},
    {"join3",
     "select z.name from x in Student, y in x.takes, z in y.is_taught_by"},
    {"key_join",
     "select list(s.student_id, t.employee_id) from s in Student, "
     "y in s.takes, z in y.is_taught_by, t in TA, v in t.takes, "
     "w in v.is_taught_by where z.name = w.name"},
    {"asr_path",
     "select w from x in Student, y in x.takes, z in y.is_section_of, "
     "v in z.has_sections, w in v.has_ta where x.name = \"james\""},
    {"asr_prefix",
     "select v from x in Student, y in x.takes, z in y.is_section_of, "
     "v in z.has_sections where x.name = \"johnson\""},
    {"struct_path",
     "select w.city from x in Person, w in x.address"},
    {"not_in",
     "select x.name from x in Person, x not in Student where x.age < 50"},
    {"method",
     "select x.name from x in Faculty where x.taxes_withheld(10%) > 5000"},
    {"ta_double_role",
     "select t.employee_id from t in TA, y in t.takes"},
    {"exists_simple",
     "select x.name from x in Student "
     "where exists y in x.takes : y.number != \"zz\""},
    {"exists_faculty",
     "select x.name from x in Person "
     "where x.age < 30 and exists s in Student : s.name = x.name"},
};

}  // namespace sqo

#endif  // SQO_TESTS_INTEGRATION_EQUIVALENCE_CORPUS_H_
