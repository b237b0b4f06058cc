#include "conv/engine_gemm.hh"

#include <cstring>

#include "blas/gemm.hh"
#include "conv/packed_weights.hh"
#include "conv/scratch.hh"
#include "conv/unfold.hh"
#include "obs/trace.hh"

namespace spg {

namespace {

/**
 * Per-image FP: unfold straight into B panels, then the fully-packed
 * O = Wpack * U'pack with zero in-loop packing. The PackedMmFn decides
 * whether the MM itself is threaded (Parallel-GEMM) or single-threaded
 * (GEMM-in-Parallel). The epilogue runs right after the MM, while the
 * output image is hot.
 */
template <typename PackedMmFn>
void
forwardImage(const ConvSpec &spec, const float *in,
             const PackedMatrix &wpack, float *out,
             std::int64_t out_offset, PackedMmFn &&mm,
             const Epilogue &epilogue)
{
    std::int64_t n = spec.gemmN(), k = spec.gemmK();
    float *panels = ScratchArena::forThread().get(
        kSlotPanelsB, PackedMatrix::panelElemsB(k, n));
    unfoldImageToPanels(spec, in, panels);
    mm(wpack, PackedMatrix::viewB(k, n, panels), out);
    epilogue.apply(out, out_offset, spec.outputElems());
}

/** Per-image BP-data: U'grad = W^T * EO against the packed W^T, then
 *  fold into EI. */
template <typename PackedMmFn>
void
backwardDataImage(const ConvSpec &spec, const float *eo,
                  const PackedMatrix &wtpack, float *ei, PackedMmFn &&mm)
{
    float *ugrad = ScratchArena::forThread().get(
        kSlotUnfoldGrad,
        static_cast<std::size_t>(spec.gemmK()) * spec.gemmN());
    mm(wtpack, eo, ugrad);
    std::memset(ei, 0, sizeof(float) * spec.inputElems());
    foldImageAccumulate(spec, ugrad, ei);
}

/** W (FP's A operand), packed once per weight version. */
std::shared_ptr<const PackedMatrix>
packedWeights(const ConvSpec &spec, const Tensor &weights)
{
    return PackedWeightCache::global().getA(weights.data(), Trans::No,
                                            spec.gemmM(), spec.gemmK());
}

/** W^T (BP-data's A operand), packed once per weight version. */
std::shared_ptr<const PackedMatrix>
packedWeightsT(const ConvSpec &spec, const Tensor &weights)
{
    return PackedWeightCache::global().getA(weights.data(), Trans::Yes,
                                            spec.gemmK(), spec.gemmM());
}

/** Per-image BP-weights: dW += EO * U'^T (dW pre-zeroed by caller). */
template <typename GemmFn>
void
backwardWeightsImage(const ConvSpec &spec, const float *eo,
                     const float *in, float *dweights, GemmFn &&mm)
{
    std::int64_t m = spec.gemmM(), n = spec.gemmK(), k = spec.gemmN();
    float *u = ScratchArena::forThread().get(
        kSlotUnfold, static_cast<std::size_t>(n) * k);
    unfoldImage(spec, in, u);
    mm(Trans::No, Trans::Yes, m, n, k, eo, u, 1.0f, dweights);
}

} // namespace

// ---------------------------------------------------------------------
// UnfoldGemmEngine: sequential over images, Parallel-GEMM per image.
// ---------------------------------------------------------------------

void
UnfoldGemmEngine::forward(const ConvSpec &spec, const Tensor &in,
                          const Tensor &weights, Tensor &out,
                          ThreadPool &pool, const Epilogue &epilogue) const
{
    SPG_TRACE_SCOPE("kernel", "parallel-gemm FP");
    checkForwardShapes(spec, in, weights, out);
    std::int64_t batch = in.shape()[0];
    std::int64_t n = spec.gemmN();
    auto wpack = packedWeights(spec, weights);
    auto mm = [&pool, n](const PackedMatrix &a, const PackedMatrix &b,
                         float *c) {
        parallelGemmPackedAB(pool, a, b, 0.0f, c, n);
    };
    for (std::int64_t b = 0; b < batch; ++b) {
        forwardImage(spec, in.data() + b * spec.inputElems(), *wpack,
                     out.data() + b * spec.outputElems(),
                     b * spec.outputElems(), mm, epilogue);
    }
}

void
UnfoldGemmEngine::backwardData(const ConvSpec &spec, const Tensor &eo,
                               const Tensor &weights, Tensor &ei,
                               ThreadPool &pool, const BpMask &mask) const
{
    SPG_TRACE_SCOPE("kernel", "parallel-gemm BP-data");
    checkBackwardShapes(spec, eo, weights, ei);
    std::int64_t batch = eo.shape()[0];
    std::int64_t n = spec.gemmN();
    auto wtpack = packedWeightsT(spec, weights);
    auto mm = [&pool, n](const PackedMatrix &a, const float *b,
                         float *c) {
        parallelGemmPackedA(pool, a, Trans::No, n, b, n, 0.0f, c, n);
    };
    for (std::int64_t b = 0; b < batch; ++b) {
        std::int64_t off = b * spec.outputElems();
        const float *eo_b =
            stagedMaskedEo(spec, eo.data() + off, off, mask);
        backwardDataImage(spec, eo_b, *wtpack,
                          ei.data() + b * spec.inputElems(), mm);
    }
}

void
UnfoldGemmEngine::backwardWeights(const ConvSpec &spec, const Tensor &eo,
                                  const Tensor &in, Tensor &dweights,
                                  ThreadPool &pool, const BpMask &mask)
    const
{
    SPG_TRACE_SCOPE("kernel", "parallel-gemm BP-weights");
    std::int64_t batch = eo.shape()[0];
    dweights.zero();
    auto mm = [&pool](Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                      std::int64_t k, const float *a, const float *b,
                      float beta, float *c) {
        parallelGemm(pool, ta, tb, m, n, k, a, b, beta, c);
    };
    for (std::int64_t b = 0; b < batch; ++b) {
        std::int64_t off = b * spec.outputElems();
        const float *eo_b =
            stagedMaskedEo(spec, eo.data() + off, off, mask);
        backwardWeightsImage(spec, eo_b,
                             in.data() + b * spec.inputElems(),
                             dweights.data(), mm);
    }
}

// ---------------------------------------------------------------------
// GemmInParallelEngine: images across cores, sequential GEMM per image.
// ---------------------------------------------------------------------

namespace {

/** The single-threaded MM each worker runs on its own image. */
void
seqMm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
      const float *a, const float *b, float beta, float *c)
{
    sgemm(ta, tb, m, n, k, a, b, beta, c);
}

} // namespace

void
GemmInParallelEngine::forward(const ConvSpec &spec, const Tensor &in,
                              const Tensor &weights, Tensor &out,
                              ThreadPool &pool,
                              const Epilogue &epilogue) const
{
    SPG_TRACE_SCOPE("kernel", "gemm-in-parallel FP");
    checkForwardShapes(spec, in, weights, out);
    std::int64_t batch = in.shape()[0];
    std::int64_t n = spec.gemmN();
    auto wpack = packedWeights(spec, weights);
    auto mm = [n](const PackedMatrix &a, const PackedMatrix &b,
                  float *c) { sgemmPackedAB(a, b, 0.0f, c, n); };
    pool.parallelForDynamic(batch, [&](std::int64_t b, int) {
        forwardImage(spec, in.data() + b * spec.inputElems(), *wpack,
                     out.data() + b * spec.outputElems(),
                     b * spec.outputElems(), mm, epilogue);
    }, /*grain=*/1);
}

void
GemmInParallelEngine::backwardData(const ConvSpec &spec, const Tensor &eo,
                                   const Tensor &weights, Tensor &ei,
                                   ThreadPool &pool,
                                   const BpMask &mask) const
{
    SPG_TRACE_SCOPE("kernel", "gemm-in-parallel BP-data");
    checkBackwardShapes(spec, eo, weights, ei);
    std::int64_t batch = eo.shape()[0];
    std::int64_t n = spec.gemmN();
    auto wtpack = packedWeightsT(spec, weights);
    auto mm = [n](const PackedMatrix &a, const float *b, float *c) {
        sgemmPackedA(a, Trans::No, n, b, n, 0.0f, c, n);
    };
    pool.parallelForDynamic(batch, [&](std::int64_t b, int) {
        std::int64_t off = b * spec.outputElems();
        const float *eo_b =
            stagedMaskedEo(spec, eo.data() + off, off, mask);
        backwardDataImage(spec, eo_b, *wtpack,
                          ei.data() + b * spec.inputElems(), mm);
    }, /*grain=*/1);
}

void
GemmInParallelEngine::backwardWeights(const ConvSpec &spec,
                                      const Tensor &eo, const Tensor &in,
                                      Tensor &dweights, ThreadPool &pool,
                                      const BpMask &mask) const
{
    SPG_TRACE_SCOPE("kernel", "gemm-in-parallel BP-weights");
    std::int64_t batch = eo.shape()[0];
    std::int64_t w_count = spec.weightElems();

    // Each batch chunk accumulates into a private gradient slab; the
    // slabs are summed into dweights afterwards in chunk order, so the
    // result does not depend on which worker ran which chunk. The slabs
    // live in reusable per-engine scratch, so steady-state minibatches
    // do not allocate.
    BatchChunks chunks(batch, pool.threads(), w_count);
    std::size_t total =
        static_cast<std::size_t>(chunks.count) * w_count;
    if (partialDw_.size() < total)
        partialDw_ = AlignedBuffer<float>(kUninit, total);
    pool.parallelForDynamic(chunks.count, [&](std::int64_t c, int) {
        float *dw = partialDw_.data() + c * w_count;
        std::memset(dw, 0, sizeof(float) * w_count);
        for (std::int64_t b = chunks.begin(c); b < chunks.end(c, batch);
             ++b) {
            std::int64_t off = b * spec.outputElems();
            const float *eo_b =
                stagedMaskedEo(spec, eo.data() + off, off, mask);
            backwardWeightsImage(spec, eo_b,
                                 in.data() + b * spec.inputElems(), dw,
                                 seqMm);
        }
    }, /*grain=*/1);

    dweights.zero();
    for (std::int64_t c = 0; c < chunks.count; ++c) {
        const float *src = partialDw_.data() + c * w_count;
        float *dst = dweights.data();
        for (std::int64_t i = 0; i < w_count; ++i)
            dst[i] += src[i];
    }
}

} // namespace spg
