#include "conv/engines.hh"

namespace spg {

std::vector<std::unique_ptr<ConvEngine>>
makeAllEngines()
{
    std::vector<std::unique_ptr<ConvEngine>> engines;
    engines.push_back(std::make_unique<UnfoldGemmEngine>());
    engines.push_back(std::make_unique<GemmInParallelEngine>());
    engines.push_back(std::make_unique<StencilEngine>());
    engines.push_back(std::make_unique<DirectEngine>());
    engines.push_back(std::make_unique<SparseBpEngine>());
    return engines;
}

std::vector<std::unique_ptr<ConvEngine>>
makeExtendedEngines()
{
    auto engines = makeAllEngines();
    engines.push_back(std::make_unique<SparseDirectFpEngine>());
    engines.push_back(std::make_unique<WinogradEngine>());
    return engines;
}

std::unique_ptr<ConvEngine>
makeEngine(const std::string &name)
{
    if (name == "reference")
        return std::make_unique<ReferenceEngine>();
    if (name == "parallel-gemm")
        return std::make_unique<UnfoldGemmEngine>();
    if (name == "gemm-in-parallel")
        return std::make_unique<GemmInParallelEngine>();
    if (name == "stencil")
        return std::make_unique<StencilEngine>();
    if (name == "direct")
        return std::make_unique<DirectEngine>();
    if (name == "sparse-cached")
        return std::make_unique<SparseBpEngine>();
    if (name == "sparse-weights-direct")
        return std::make_unique<SparseDirectFpEngine>();
    if (name == "winograd")
        return std::make_unique<WinogradEngine>();
    return nullptr;
}

} // namespace spg
