/**
 * @file
 * The two GEMM-based execution schedules the paper contrasts.
 *
 * UnfoldGemmEngine — "Unfold+Parallel-GEMM", the state-of-the-art
 * baseline (paper §2.3): images are processed one after another and
 * each image's MM is partitioned across all cores. Adding cores
 * divides the arithmetic per core but not the operand traffic, so the
 * per-core AIT (and with it scalability) degrades (paper §3.2).
 *
 * GemmInParallelEngine — the paper's §4.1 schedule: each core runs a
 * complete single-threaded GEMM on a different image of the
 * minibatch. Per-core AIT is independent of the core count, so
 * per-core performance stays flat as cores are added.
 *
 * Both schedules share the identical im2col + micro-kernel math, so
 * measured differences are attributable to scheduling alone. Fused
 * epilogues run per image right after its MM, while the output image
 * is still cache-hot; fused BP masks stage a masked per-image copy of
 * EO in scratch before the MM consumes it.
 *
 * FP and BP-data run on packed operands. A plain sgemm per image
 * would pay two avoidable costs: re-packing the SAME weight matrix
 * into micro-kernel panels on every call, and (in FP) writing a dense
 * im2col matrix that the GEMM's packB immediately re-reads and copies
 * into panel format. Instead:
 *
 *  - W (FP) and W^T (BP-data) are packed once per weight version via
 *    PackedWeightCache and shared read-only by every image, minibatch
 *    and worker.
 *  - FP unfolds each image DIRECTLY into B-panel format
 *    (unfoldImageToPanels), so the fully-packed GEMM runs with no
 *    packing inside the blocking loops at all. BP-data still packs
 *    its EO operand per call.
 *
 * Per-core AIT rises accordingly: the per-image weight-panel
 * write+read round trip and the dense-unfold round trip disappear
 * from the operand traffic (see simcpu/conv_model.cc for the model
 * side of this accounting). The packed entry points run the exact
 * blocking and micro-kernel order of sgemm, only skipping the pack
 * copies, so results are bit-for-bit those of unfoldImage + sgemm.
 * Parallel-GEMM partitions the columns of each image's MM, so every
 * worker streams the same packed weights.
 *
 * BP-weights has no operand that is reused across images (the weights
 * are the OUTPUT of that GEMM), so it runs plain sgemm per image.
 */

#ifndef SPG_CONV_ENGINE_GEMM_HH
#define SPG_CONV_ENGINE_GEMM_HH

#include <vector>

#include "conv/engine.hh"
#include "util/aligned.hh"

namespace spg {

/** Unfold+Parallel-GEMM baseline (CAFFE/ADAM-style). */
class UnfoldGemmEngine : public ConvEngine
{
  public:
    using ConvEngine::backwardData;
    using ConvEngine::backwardWeights;
    using ConvEngine::forward;

    std::string name() const override { return "parallel-gemm"; }
    bool supports(Phase) const override { return true; }

    void forward(const ConvSpec &spec, const Tensor &in,
                 const Tensor &weights, Tensor &out, ThreadPool &pool,
                 const Epilogue &epilogue) const override;
    void backwardData(const ConvSpec &spec, const Tensor &eo,
                      const Tensor &weights, Tensor &ei, ThreadPool &pool,
                      const BpMask &mask) const override;
    void backwardWeights(const ConvSpec &spec, const Tensor &eo,
                         const Tensor &in, Tensor &dweights,
                         ThreadPool &pool,
                         const BpMask &mask) const override;
};

/** GEMM-in-Parallel schedule (paper §4.1). */
class GemmInParallelEngine : public ConvEngine
{
  public:
    using ConvEngine::backwardData;
    using ConvEngine::backwardWeights;
    using ConvEngine::forward;

    std::string name() const override { return "gemm-in-parallel"; }
    bool supports(Phase) const override { return true; }

    void forward(const ConvSpec &spec, const Tensor &in,
                 const Tensor &weights, Tensor &out, ThreadPool &pool,
                 const Epilogue &epilogue) const override;
    void backwardData(const ConvSpec &spec, const Tensor &eo,
                      const Tensor &weights, Tensor &ei, ThreadPool &pool,
                      const BpMask &mask) const override;
    void backwardWeights(const ConvSpec &spec, const Tensor &eo,
                         const Tensor &in, Tensor &dweights,
                         ThreadPool &pool,
                         const BpMask &mask) const override;

  private:
    /** Reused per-chunk partial-gradient slabs (see BatchChunks) for
     *  backwardWeights; grown on demand so steady-state training
     *  allocates nothing in that path. Calls on ONE engine instance
     *  must not overlap (matches how layers and the tuner drive
     *  engines). */
    mutable AlignedBuffer<float> partialDw_;
};

} // namespace spg

#endif // SPG_CONV_ENGINE_GEMM_HH
