/**
 * @file
 * Sparse-Kernel back-propagation engine (paper §4.2).
 *
 * Exploits the (ReLU-induced) sparsity of the output-activation errors
 * EO to raise BP goodput. The computation is performed in place,
 * without unfolding, as a composition of small dense MMs via the
 * paper's POINTER SHIFTING technique:
 *
 *  - data layout: EO is transformed feature-fastest ([y'][x'][f]),
 *    the weights channel-fastest ([ky][kx][f][c]) and the outputs
 *    channel-fastest, so the basic block (Fig. 5b)
 *
 *        S'[c] = sum_f E'O[f] * W'[f, c]
 *
 *    vectorizes along channels: every non-zero E'O[f] is an AXPY of
 *    the contiguous weight row W'[f, :] into a contiguous output
 *    vector;
 *
 *  - for each non-zero error at (y', x'), the SAME non-zero list is
 *    replayed for every kernel coordinate (ky, kx); only the output
 *    pointer shifts, to EI[y'*sy + ky, x'*sx + kx, :] (Eq. 15) —
 *    composing the sparse convolution from Fy*Fx small dense MMs
 *    without unrolling them;
 *
 *  - EO is stored in Column-Tiled CSR (rows = spatial positions,
 *    columns = features, tiled along features) so that the weight
 *    slice a feature band touches stays cache-resident and row walks
 *    stay TLB-friendly (Fig. 5a).
 *
 * EO is compressed ONCE per minibatch through SparsePlanCache — with
 * the fused CtCsrMatrix::fromChw builder, so the dense HWC staging
 * transpose is never written — and BP-data and BP-weights replay the
 * same shared read-only plan. Whichever phase runs first on a fresh EO
 * pays the encode (BP-data, in a training step); the other finds the
 * plan cached. A caller timing one phase with the encode included
 * drops the plan first with SparsePlanCache::invalidate.
 */

#ifndef SPG_CONV_ENGINE_SPARSE_HH
#define SPG_CONV_ENGINE_SPARSE_HH

#include "conv/engine.hh"
#include "util/aligned.hh"

namespace spg {

/** Sparsity-exploiting, encode-once BP engine. */
class SparseBpEngine : public ConvEngine
{
  public:
    /**
     * @param feature_tile CT-CSR column (feature) tile width; 0 picks
     *        the default. The ablation bench passes the full feature
     *        count to degrade CT-CSR to plain CSR.
     */
    explicit SparseBpEngine(std::int64_t feature_tile = 0)
        : featureTile(feature_tile)
    {}

    using ConvEngine::backwardData;
    using ConvEngine::backwardWeights;

    std::string name() const override { return "sparse-cached"; }
    bool supports(Phase phase) const override
    {
        return phase == Phase::BackwardData ||
               phase == Phase::BackwardWeights;
    }

    void backwardData(const ConvSpec &spec, const Tensor &eo,
                      const Tensor &weights, Tensor &ei, ThreadPool &pool,
                      const BpMask &mask) const override;
    void backwardWeights(const ConvSpec &spec, const Tensor &eo,
                         const Tensor &in, Tensor &dweights,
                         ThreadPool &pool,
                         const BpMask &mask) const override;

    /** @return the feature tile width used for the given Nf. */
    std::int64_t effectiveFeatureTile(std::int64_t nf) const;

  private:
    /**
     * BP-weights tail: one private dW' slab per batch chunk (see
     * BatchChunks) in [ky][kx][f][c] layout, reused across calls.
     * reducePartials sums the slabs into dst in chunk order with the
     * vectorized axpy.
     */
    void reducePartials(std::int64_t slabs, std::int64_t w_count,
                        float *dst) const;

    std::int64_t featureTile;
    mutable AlignedBuffer<float> partialDw_;
};

} // namespace spg

#endif // SPG_CONV_ENGINE_SPARSE_HH
