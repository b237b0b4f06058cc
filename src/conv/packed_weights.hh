/**
 * @file
 * Process-wide cache of pre-packed convolution weight matrices.
 *
 * The GEMM engines multiply the SAME weight matrix W against every
 * image of every minibatch; without caching, sgemm re-packs W into
 * micro-kernel panels on every call. The cache packs once per
 * (weights, transpose, geometry) and hands out shared read-only panel
 * buffers, so steady-state forward/backward passes stream weights in
 * panel format with zero packing work or traffic.
 *
 * Staleness is handled twice over:
 *  - ConvLayer explicitly calls invalidate() whenever it mutates its
 *    weights (SGD update, checkpoint restore) or dies (so a later
 *    allocation reusing the address cannot alias a stale entry).
 *  - get() additionally fingerprints the weight contents (contentHash
 *    over the raw bytes, util/hash.hh) and re-packs on mismatch, which
 *    keeps direct engine users (tests, benches, tuner probes) correct
 *    even when they mutate weight tensors without telling the cache.
 *    The fingerprint pass reads W once per get() — once per minibatch
 *    phase, amortized across the whole batch, vs. the per-image pack
 *    round trip it replaces.
 *
 * Returned values are shared_ptr<const PackedMatrix>: invalidation
 * while a phase is in flight just drops the cache's reference; workers
 * holding the pointer finish on the old panels safely.
 */

#ifndef SPG_CONV_PACKED_WEIGHTS_HH
#define SPG_CONV_PACKED_WEIGHTS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "blas/gemm.hh"
#include "conv/conv_spec.hh"
#include "sparse/csr.hh"

namespace spg {

/**
 * Weights of one conv layer compressed for the weight-sparse FP
 * engine: CSR with rows = output features and columns = flattened
 * (c, ky, kx) taps, plus the tap's precomputed input-plane offset
 *
 *     in_off[p] = c * ny * nx + ky * nx + kx
 *
 * so the kernels address input pixels as image + y*sy*nx + x*sx +
 * in_off[p] with no div/mod in the hot loop. CsrMatrix::fromDense
 * scans row-major, so within each feature row the surviving taps stay
 * in ascending (c, ky, kx) order — the accumulation order of
 * conv_ref, which is what makes skip-the-zeros bit-for-bit safe.
 */
struct SparseWeightPlan
{
    std::int64_t nf = 0;    ///< CSR rows (output features)
    std::int64_t taps = 0;  ///< CSR columns (nc * fy * fx)
    CsrMatrix csr;
    std::vector<std::int64_t> in_off;  ///< per-nnz input offset
    double weight_sparsity = 0.0;      ///< zero fraction of the dense W

    std::int64_t nnz() const { return csr.nnz(); }
};

/** Global pack-once cache for GEMM weight operands. */
class PackedWeightCache
{
  public:
    /** @return the process-wide instance. */
    static PackedWeightCache &global();

    /**
     * @return op(W) (m x k, with op per @p ta) packed as a GEMM A
     * operand, packing it now if absent or if the cached entry's
     * content fingerprint no longer matches @p w. lda is k for
     * Trans::No and m for Trans::Yes (dense row-major W either way).
     */
    std::shared_ptr<const PackedMatrix>
    getA(const float *w, Trans ta, std::int64_t m, std::int64_t k);

    /** Encode-once statistics of the sparse side (tuner/tests). */
    struct SparseStats
    {
        std::int64_t encodes = 0;  ///< CSR builds performed
        std::int64_t hits = 0;     ///< lookups served from cache
        double encode_seconds = 0; ///< total time inside builds
    };

    /**
     * @return @p w (the layer's dense weights, nf x nc*fy*fx
     * row-major) encoded as a SparseWeightPlan for @p spec, encoding
     * it now if absent or if the cached entry's content fingerprint
     * no longer matches. Same staleness discipline as getA():
     * ConvLayer::paramsUpdated() invalidation plus a content
     * fingerprint per lookup, so a pruning step (or any other weight
     * mutation) re-encodes exactly once per weight version.
     */
    std::shared_ptr<const SparseWeightPlan>
    getSparseConv(const float *w, const ConvSpec &spec);

    /** Drop every entry packed from the given weight storage. */
    void invalidate(const float *w);

    /** Drop everything (tests / benchmarks). */
    void clear();

    /** @return number of live dense (GEMM panel) entries (tests). */
    std::size_t size() const;

    /** @return number of live sparse-plan entries (tests). */
    std::size_t sparseSize() const;

    /** @return a snapshot of the sparse-side counters. */
    SparseStats sparseStats() const;

    /** Zero the sparse-side counters (tuner measurement windows). */
    void resetSparseStats();

  private:
    using Key = std::tuple<const float *, Trans, std::int64_t,
                           std::int64_t>;
    struct Entry
    {
        std::uint64_t fingerprint;
        std::shared_ptr<const PackedMatrix> packed;
    };
    /** Geometry part of a sparse-plan key: (nf, nc, fy, fx, ny, nx)
     *  — everything the plan's offsets depend on. */
    using SparseKey = std::tuple<const float *, std::int64_t,
                                 std::int64_t, std::int64_t,
                                 std::int64_t, std::int64_t,
                                 std::int64_t>;
    struct SparseEntry
    {
        std::uint64_t fingerprint;
        std::shared_ptr<const SparseWeightPlan> plan;
    };

    mutable std::mutex mu_;
    std::map<Key, Entry> entries_;
    std::map<SparseKey, SparseEntry> sparse_entries_;
    SparseStats sparse_stats_;
};

} // namespace spg

#endif // SPG_CONV_PACKED_WEIGHTS_HH
