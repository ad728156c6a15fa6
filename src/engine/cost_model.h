#ifndef SQO_ENGINE_COST_MODEL_H_
#define SQO_ENGINE_COST_MODEL_H_

#include "engine/object_store.h"
#include "engine/planner.h"
#include "sqo/pipeline.h"

namespace sqo::engine {

/// The "cost-based physical optimizer" the paper defers to: ranks the
/// semantically equivalent queries produced by Step 3 using the store's
/// statistics, via the same greedy planner (and so the same prices) the
/// evaluator runs.
class EngineCostModel : public core::CostModel {
 public:
  /// `store` must outlive the model.
  explicit EngineCostModel(const ObjectStore* store) : store_(store) {}

  double EstimateCost(const datalog::Query& query) const override {
    return PlanQuery(query, *store_).cost;
  }

 private:
  const ObjectStore* store_;
};

}  // namespace sqo::engine

#endif  // SQO_ENGINE_COST_MODEL_H_
