#ifndef SQO_TESTS_ENGINE_EVAL_CORPUS_H_
#define SQO_TESTS_ENGINE_EVAL_CORPUS_H_

namespace sqo::engine {

/// The differential corpus over the university schema: every operator the
/// evaluator implements, each on the access paths it can take.
inline constexpr const char* kEvalCorpus[] = {
    // Extent scans and projection.
    "q(X) :- student(oid: X).",
    "q(N, A) :- person(oid: X, name: N, age: A).",
    // Comparisons (index-free filter, bound-vs-bound, constant fold).
    "q(N, A) :- person(oid: X, name: N, age: A), A >= 31.",
    "q(X) :- person(oid: X, age: A), A < 25, A > 17.",
    // Key-index probe.
    "q(X) :- student(oid: X, name: N), N = \"john\".",
    // Adaptive-index probes: a constant selection on an unkeyed attribute,
    // one on an extent of under 16 members, and attribute equi-joins via
    // a shared variable (a small extent's too).
    "q(N) :- student(oid: X, name: N, age: A), A = 21.",
    "q(C) :- course(oid: C, cname: N), N = \"course_3\".",
    "q(X, Y) :- student(oid: X, age: A), ta(oid: Y, age: A).",
    "q(X, Y) :- person(oid: X, age: A), faculty(oid: Y, age: A).",
    "q(S, C) :- section(oid: S, number: N), course(oid: C, cname: N).",
    // Relationship traversal, forward and reverse, and pair scans.
    "q(N, Num) :- student(oid: X, name: N), takes(X, Y), "
    "section(oid: Y, number: Num), N = \"john\".",
    "q(S) :- section(oid: Y, number: \"0.0\"), is_taken_by(Y, S).",
    "q(X, Y) :- takes(X, Y).",
    // Multi-hop path join (§5.4) and its ASR fold.
    "q(X, W) :- student(oid: X), takes(X, Y), is_section_of(Y, Z), "
    "has_sections(Z, V), has_ta(V, W).",
    "q(X, W) :- student(oid: X), asr_student_ta(X, W).",
    // Negation (anti-join), with and without extra free variables.
    "q(X) :- student(oid: X), not takes(X, Y).",
    "q(X) :- person(oid: X), not faculty(oid: X).",
    "q(X) :- student(oid: X, age: A), not ta(oid: Y, age: A).",
    // A repeated private variable constrains a negated atom (age =
    // salary): the first takes the guard path's fallback, the second the
    // anti-join path. No faculty member is excluded.
    "q(X) :- faculty(oid: X), not faculty(oid: X, age: A, salary: A).",
    "q(X, N) :- faculty(oid: X, name: N), "
    "not faculty(oid: X, name: N, age: A, salary: A).",
    // Method atoms (bound and compared results).
    "q(V) :- faculty(oid: X), taxes_withheld(X, 10%, V).",
    "q(V) :- faculty(oid: X), taxes_withheld(X, 10%, V), V < 1000.",
    // Mixed: join + negation + comparison.
    "q(N) :- student(oid: X, name: N, age: A), A > 18, not takes(X, Y).",
    // A guard-shaped negation over a variable a traversal binds: no scan
    // checks it, so it runs as an anti-join.
    "q(Z) :- student(oid: X, name: N), N = \"john\", takes(X, Y), "
    "is_taught_by(Y, Z), not ta(oid: Z).",
};

}  // namespace sqo::engine

#endif  // SQO_TESTS_ENGINE_EVAL_CORPUS_H_
