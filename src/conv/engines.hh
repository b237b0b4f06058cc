/**
 * @file
 * Convenience umbrella header and engine registry.
 */

#ifndef SPG_CONV_ENGINES_HH
#define SPG_CONV_ENGINES_HH

#include <memory>
#include <vector>

#include "conv/engine.hh"
#include "conv/engine_direct.hh"
#include "conv/engine_gemm.hh"
#include "conv/engine_sparse.hh"
#include "conv/engine_sparse_direct.hh"
#include "conv/engine_winograd.hh"

namespace spg {

/**
 * @return one instance of every paper-set production engine (excludes
 * the reference oracle and extensions): parallel-gemm,
 * gemm-in-parallel, direct, sparse-cached.
 */
std::vector<std::unique_ptr<ConvEngine>> makeAllEngines();

/**
 * @return the paper-set engines plus extensions (the weight-sparsity
 * FP engine sparse-weights-direct and Winograd) — the candidate set
 * for tuning pruned models.
 */
std::vector<std::unique_ptr<ConvEngine>> makeExtendedEngines();

/**
 * @return the engine with the given name(), or nullptr when unknown.
 * Recognized names: "reference", "parallel-gemm", "gemm-in-parallel",
 * "direct", "sparse-cached", "sparse-weights-direct", "winograd".
 */
std::unique_ptr<ConvEngine> makeEngine(const std::string &name);

} // namespace spg

#endif // SPG_CONV_ENGINES_HH
