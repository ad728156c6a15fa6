#ifndef SQO_OBS_EVAL_STATS_H_
#define SQO_OBS_EVAL_STATS_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace sqo::obs {

class MetricsRegistry;

/// Instrumentation counters for one query evaluation. These are the
/// quantities the paper's optimizations improve — object fetches, join
/// work, method invocations — and the numbers EXPERIMENTS.md reports.
///
/// Lives in obs (not engine) so the optimizer pipeline can carry per-
/// alternative evaluation counters without depending on the engine.
struct EvalStats {
  uint64_t objects_fetched = 0;          // class/struct rows materialized
  uint64_t extent_scans = 0;             // full extent enumerations started
  uint64_t index_probes = 0;             // hash-index lookups
  uint64_t relationship_traversals = 0;  // relationship/ASR edges visited
  uint64_t method_invocations = 0;       // registered method calls
  uint64_t comparisons = 0;              // value comparisons performed
  uint64_t negation_checks = 0;          // anti-join existence probes
  uint64_t tuples_emitted = 0;           // result tuples before dedup
  uint64_t results = 0;                  // distinct result tuples

  void Reset() { *this = EvalStats(); }

  EvalStats& operator+=(const EvalStats& other);

  /// Single-line summary for logs and bench output.
  std::string ToString() const;

  /// Merges every counter into `registry` under `<prefix><field>` (e.g.
  /// `eval.objects_fetched`) — how a MetricsRegistry absorbs evaluator
  /// work alongside the optimizer-side counters.
  void ExportTo(MetricsRegistry* registry, std::string_view prefix = "eval.") const;
};

}  // namespace sqo::obs

#endif  // SQO_OBS_EVAL_STATS_H_
