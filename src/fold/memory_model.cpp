#include "fold/memory_model.hpp"

namespace sf {

double inference_memory_gb(int length, int ensembles, const MemoryModelParams& params) {
  const double l2 = static_cast<double>(length) * static_cast<double>(length);
  return params.base_gb +
         l2 * (params.quad_gb + params.ensemble_quad_gb * static_cast<double>(ensembles));
}

// The fit predicates the memory-bound suites pick and assert their
// fixtures with.
bool fits_standard_node(int length, int ensembles,  // sfcheck:allow(U1): test_memory_model, test_engine, test_complex, test_campaign_regression, test_pipeline_ablation pick fixtures with it
                        const MemoryModelParams& params) {
  return inference_memory_gb(length, ensembles, params) <= kStandardNodeTaskBudgetGb;
}

bool fits_highmem_node(int length, int ensembles,  // sfcheck:allow(U1): test_memory_model checks the high-memory reroute bound
                       const MemoryModelParams& params) {
  return inference_memory_gb(length, ensembles, params) <= kHighMemNodeTaskBudgetGb;
}

}  // namespace sf
