#ifndef SQO_TESTS_ENGINE_REFERENCE_EVAL_H_
#define SQO_TESTS_ENGINE_REFERENCE_EVAL_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "datalog/clause.h"
#include "engine/object_store.h"

namespace sqo::engine {

/// Naive reference evaluator, the oracle the differential tests hold the
/// executor to. It shares no planner, index or ASR code with the engine:
/// nested loops over the positive relation atoms in textual order, with
/// every comparison, negation and method atom checked as soon as its terms
/// are bound (`X = c` binds X). It reads the store only through `Extent`,
/// `RowAs`, `Pairs` and `InvokeMethod`; an ASR atom is expanded over its
/// relationship path (from `ObjectStore::AsrStates`) rather than read from
/// its materialization.
///
/// With `distinct` off the result is the bag of one row per satisfying
/// binding of the positive atoms (negated atoms' private variables are
/// existential). Errors mirror the evaluator's kinds: NotFound for an
/// unknown relation, InvalidArgument for an unsafe or unorderable
/// comparison or an unbound method input.
sqo::Result<std::vector<std::vector<sqo::Value>>> ReferenceEvaluate(
    const ObjectStore& store, const datalog::Query& query,
    bool distinct = true);

/// Rows rendered one string each and sorted: equal results compare equal
/// as bags, whatever order they were produced in.
std::vector<std::string> SortedBag(
    const std::vector<std::vector<sqo::Value>>& rows);

}  // namespace sqo::engine

#endif  // SQO_TESTS_ENGINE_REFERENCE_EVAL_H_
