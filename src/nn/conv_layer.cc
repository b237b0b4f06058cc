#include "nn/conv_layer.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "conv/packed_weights.hh"
#include "nn/pruning.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/timer.hh"

#include "util/logging.hh"

namespace spg {

namespace {

/** Counter snapshot of the phase-measuring thread plus the pool's
 *  worker totals — together they cover every byte a phase moves. */
obs::PerfSample
phasePerfSnapshot(ThreadPool &pool)
{
    obs::PerfSample s = obs::perfReadThread();
    s.accumulate(pool.perfTotals());
    return s;
}

/** Elements per chunk of the post-mask live count. Fixed, so the
 *  split depends on the tensor alone; the partial counts are integers,
 *  so their sum is exact in any order. */
constexpr std::int64_t kLiveCountChunk = std::int64_t{1} << 15;

/** Number of i < n with mask[i] set and eo[i] non-zero, counted in
 *  fixed chunks on the pool with a branchless, vectorizable body. */
std::int64_t
liveCount(const float *eo, const std::uint8_t *mask, std::int64_t n,
          ThreadPool &pool)
{
    const std::int64_t chunks = (n + kLiveCountChunk - 1) / kLiveCountChunk;
    std::vector<std::int64_t> partial(static_cast<std::size_t>(chunks));
    pool.parallelForDynamic(chunks, [&](std::int64_t c, int) {
        const std::int64_t begin = c * kLiveCountChunk;
        const std::int64_t end = std::min(n, begin + kLiveCountChunk);
        std::int32_t live = 0;  // a chunk's count fits 32 bits
        for (std::int64_t i = begin; i < end; ++i)
            live += (mask[i] != 0) & (eo[i] != 0.0f);
        partial[static_cast<std::size_t>(c)] = live;
    });
    return std::accumulate(partial.begin(), partial.end(), std::int64_t{0});
}

} // namespace

ConvLayer::ConvLayer(std::string label, const ConvSpec &spec, Rng &rng)
    : label(std::move(label)),
      spec_(spec),
      weights_(Shape{spec.nf, spec.nc, spec.fy, spec.fx}),
      dweights(Shape{spec.nf, spec.nc, spec.fy, spec.fx})
{
    spec_.validate();
    // He initialization: stddev sqrt(2 / fan_in).
    float stddev = std::sqrt(
        2.0f / static_cast<float>(spec.nc * spec.fy * spec.fx));
    weights_.fillGaussian(rng, stddev);
    // Extended set: the tuner may deploy an extension engine (e.g.
    // sparse-weights-direct for a pruned layer), so the deploy-side
    // cache must know every tunable engine, not just the paper set.
    for (auto &engine : makeExtendedEngines())
        engine_cache[engine->name()] = std::move(engine);
    refreshSpanNames();
    eo_sparsity_gauge =
        &obs::Metrics::global().gauge("conv." + this->label +
                                      ".eo_sparsity");
    // A prior layer may have packed weights at this freshly-reused
    // address; make sure no stale panels can alias the new tensor.
    PackedWeightCache::global().invalidate(weights_.data());
}

ConvLayer::~ConvLayer()
{
    PackedWeightCache::global().invalidate(weights_.data());
}

std::string
ConvLayer::name() const
{
    return label + " conv(" + spec_.str() + ")" +
           (fused_relu ? "+relu" : "");
}

const ConvEngine &
ConvLayer::engineByName(const std::string &name) const
{
    auto it = engine_cache.find(name);
    if (it == engine_cache.end())
        fatal("conv layer '%s': unknown engine '%s'", label.c_str(),
              name.c_str());
    return *it->second;
}

void
ConvLayer::setEngines(const EngineAssignment &requested)
{
    EngineAssignment engines = requested;
    // A layer that runs no BP-data is tuned without it; an empty
    // bp_data keeps the current, never-run assignment.
    if (engines.bp_data.empty() && !input_gradient)
        engines.bp_data = assignment.bp_data;
    // Validate phase support eagerly so a bad plan fails loudly.
    if (!engineByName(engines.fp).supports(Phase::Forward))
        fatal("engine '%s' cannot run FP", engines.fp.c_str());
    if (!engineByName(engines.bp_data).supports(Phase::BackwardData))
        fatal("engine '%s' cannot run BP-data", engines.bp_data.c_str());
    if (!engineByName(engines.bp_weights)
             .supports(Phase::BackwardWeights)) {
        fatal("engine '%s' cannot run BP-weights",
              engines.bp_weights.c_str());
    }
    assignment = engines;
    refreshSpanNames();
}

void
ConvLayer::refreshSpanNames()
{
    span_fp = obs::internName(label + " FP [" + assignment.fp + "]");
    span_bp_data =
        obs::internName(label + " BP-data [" + assignment.bp_data + "]");
    span_bp_weights = obs::internName(label + " BP-weights [" +
                                      assignment.bp_weights + "]");
}

void
ConvLayer::forward(const Tensor &in, Tensor &out, ThreadPool &pool)
{
    std::int64_t batch = in.shape()[0];
    SPG_TRACE_SCOPE_N("layer", span_fp, "batch", batch);
    static obs::Counter &flops =
        obs::Metrics::global().counter("conv.fp_flops");
    flops.add(spec_.flops() * batch);
    Stopwatch watch;
    Epilogue epilogue;
    if (fused_relu) {
        if (inference_only) {
            // No BP pass will read the activity mask: clamp in the
            // epilogue while the tile is hot and store nothing.
            epilogue = Epilogue{Epilogue::Kind::Relu};
        } else {
            relu_mask.resize(static_cast<std::size_t>(batch) *
                             spec_.outputElems());
            epilogue =
                Epilogue{Epilogue::Kind::ReluMask, relu_mask.data()};
        }
        static obs::Counter &fused_passes =
            obs::Metrics::global().counter("nn.fused_relu_passes");
        fused_passes.add();
    }
    const bool perf_on = obs::perfEnabled();
    obs::PerfSample perf0;
    if (perf_on)
        perf0 = phasePerfSnapshot(pool);
    engineByName(assignment.fp)
        .forward(spec_, in, weights_, out, pool, epilogue);
    profile_.fp_seconds += watch.seconds();
    if (perf_on)
        profile_.fp_perf.accumulate(
            phasePerfSnapshot(pool).delta(perf0));
    ++profile_.calls;
}

void
ConvLayer::backward(const Tensor &in, const Tensor &, const Tensor &eo,
                    Tensor &ei, ThreadPool &pool)
{
    SPG_ASSERT(!inference_only);
    std::int64_t batch = eo.shape()[0];
    const std::int64_t n = eo.size();
    std::int64_t live = 0;
    BpMask mask;
    if (fused_relu) {
        SPG_ASSERT(relu_mask.size() == static_cast<std::size_t>(n));
        mask.mask = relu_mask.data();
        // The sparsity the BP engines see is POST-mask: an element is
        // live only where the fused ReLU kept it and eo is non-zero.
        live = liveCount(eo.data(), relu_mask.data(), n, pool);
        last_eo_sparsity =
            1.0 - static_cast<double>(live) / static_cast<double>(n);
    } else {
        const std::int64_t zeros = eo.zeroCount();
        live = n - zeros;
        last_eo_sparsity =
            static_cast<double>(zeros) / static_cast<double>(n);
    }
    eo_sparsity_gauge->set(last_eo_sparsity);
    static obs::Counter &nnz =
        obs::Metrics::global().counter("conv.eo_nnz");
    nnz.add(live);
    static obs::Counter &bp_flops =
        obs::Metrics::global().counter("conv.bp_flops");
    bp_flops.add((input_gradient ? 2 : 1) * spec_.flops() * batch);
    const bool perf_on = obs::perfEnabled();
    obs::PerfSample perf0;
    Stopwatch watch;
    if (input_gradient) {
        {
            SPG_TRACE_SCOPE_N("layer", span_bp_data, "batch", batch);
            if (perf_on)
                perf0 = phasePerfSnapshot(pool);
            engineByName(assignment.bp_data)
                .backwardData(spec_, eo, weights_, ei, pool, mask);
        }
        profile_.bp_data_seconds += watch.seconds();
        if (perf_on)
            profile_.bp_data_perf.accumulate(
                phasePerfSnapshot(pool).delta(perf0));
    }
    watch.reset();
    {
        SPG_TRACE_SCOPE_N("layer", span_bp_weights, "batch", batch);
        if (perf_on)
            perf0 = phasePerfSnapshot(pool);
        engineByName(assignment.bp_weights)
            .backwardWeights(spec_, eo, in, dweights, pool, mask);
    }
    profile_.bp_weights_seconds += watch.seconds();
    if (perf_on)
        profile_.bp_weights_perf.accumulate(
            phasePerfSnapshot(pool).delta(perf0));
}

void
ConvLayer::update(float learning_rate)
{
    SPG_ASSERT(!inference_only);
    float *w = weights_.data();
    const float *dw = dweights.data();
    for (std::int64_t i = 0; i < weights_.size(); ++i)
        w[i] -= learning_rate * dw[i];
    // Re-prune: the SGD step revives masked weights; zeroing them
    // again here keeps the layer at its scheduled sparsity between
    // prune steps.
    applyPruneMask(weights_, prune_mask);
    PackedWeightCache::global().invalidate(weights_.data());
}

void
ConvLayer::paramsUpdated()
{
    PackedWeightCache::global().invalidate(weights_.data());
}

void
ConvLayer::setInferenceOnly()
{
    inference_only = true;
    dweights = Tensor();
    relu_mask.clear();
    relu_mask.shrink_to_fit();
}

void
ConvLayer::pruneToSparsity(double sparsity)
{
    magnitudePrune(weights_, sparsity, prune_mask);
    obs::Metrics::global()
        .gauge("conv." + label + ".weight_sparsity")
        .set(weightSparsity());
    paramsUpdated();
}

double
ConvLayer::weightSparsity() const
{
    return weights_.sparsity();
}

} // namespace spg
