/**
 * @file
 * Single-precision general matrix multiply (SGEMM) with operand
 * pre-packing.
 *
 * spg-CNN cannot link a third-party BLAS, so this module provides a
 * from-scratch replacement: a register-blocked AVX2/FMA micro-kernel
 * wrapped in BLIS-style cache blocking with operand packing. Both the
 * Unfold+Parallel-GEMM baseline and the GEMM-in-Parallel schedule of
 * the paper are built from the same micro-kernel, so relative
 * comparisons between schedules are apples-to-apples.
 *
 * All matrices are row-major. The operation computed is
 *
 *     C = alpha * op(A) * op(B) + beta * C
 *
 * with op(X) = X or X^T per the Trans flags. op(A) is m x k and
 * op(B) is k x n; C is m x n with leading dimension ldc.
 *
 * ## Operand pre-packing (PackedMatrix)
 *
 * Inside the blocking loops every GEMM call copies its operands into
 * SIMD-friendly panels (kGemmMr-row panels of op(A), kGemmNr-column
 * panels of op(B)). When the same operand participates in many
 * multiplies — the convolution weight matrix W is multiplied against
 * every image of every minibatch — that per-call repack is pure
 * overhead and, worse, per-call memory traffic that the paper's
 * per-core-AIT scalability argument charges to every core.
 *
 * PackedMatrix materializes the panel format once, up front, and the
 * sgemmPacked* entry points skip the corresponding pack inside the
 * blocking loops. A PackedMatrix is immutable after packing and safe
 * to share read-only between any number of concurrently running
 * worker threads (GEMM-in-Parallel workers all stream the same packed
 * weights). The panel layout is public (see panel constants below) so
 * producers other than packMatrix* — notably the fused im2col of
 * conv/unfold.hh — can emit it directly.
 */

#ifndef SPG_BLAS_GEMM_HH
#define SPG_BLAS_GEMM_HH

#include <cstddef>
#include <cstdint>

#include "threading/thread_pool.hh"
#include "util/aligned.hh"

namespace spg {

/** Whether an operand participates transposed. */
enum class Trans { No, Yes };

/** Micro-tile height: rows of C per micro-kernel invocation. */
inline constexpr std::int64_t kGemmMr = 6;
#if defined(__AVX512F__)
/** Micro-tile width; two 16-float AVX-512 vectors. */
inline constexpr std::int64_t kGemmNr = 32;
#else
/** Micro-tile width; two 8-float AVX vectors. */
inline constexpr std::int64_t kGemmNr = 16;
#endif

/** Cache-blocking parameters (L2-resident A panel, L1-resident B).
 *  kGemmMc is a multiple of kGemmMr and kGemmNc of kGemmNr, which
 *  makes the packed-block offsets below closed-form. */
inline constexpr std::int64_t kGemmMc = 120;
inline constexpr std::int64_t kGemmKc = 256;
inline constexpr std::int64_t kGemmNc = 2048;

/** @return x rounded up to the next multiple of to. */
inline constexpr std::int64_t
roundUpTo(std::int64_t x, std::int64_t to)
{
    return (x + to - 1) / to * to;
}

/** @return the number of floating point operations of an m x n x k MM. */
inline std::int64_t
gemmFlops(std::int64_t m, std::int64_t n, std::int64_t k)
{
    return 2 * m * n * k;
}

/**
 * A GEMM operand stored in the micro-kernel panel format, detached
 * from any particular multiply.
 *
 * Layout, A kind (op(A) is m x k): the matrix is cut into kGemmKc-deep
 * column blocks (index pc) and kGemmMc-tall row blocks (index ic);
 * block (ic, pc) holds ceil(mc / kGemmMr) panels of kGemmMr rows each,
 * stored panel-major exactly as the internal packA produces them
 * (panel[p][i], rows past mc zero-filled). Blocks are laid out so that
 *
 *     blockOffsetA(ic, pc) = roundUpTo(m, kGemmMr) * pc + ic * kc
 *
 * with kc the depth of block pc. Any alpha is baked into the panels at
 * pack time.
 *
 * Layout, B kind (op(B) is k x n): kGemmNc-wide column blocks (jc) by
 * kGemmKc-deep row blocks (pc); block (jc, pc) holds kGemmNr-column
 * panels (panel[p][j], columns past the block width zero-filled), at
 *
 *     blockOffsetB(jc, pc) = jc * k + roundUpTo(min(kGemmNc, n - jc),
 *                                               kGemmNr) * pc.
 *
 * Instances are either owning (packA / packB) or non-owning views over
 * caller-managed panel storage (viewA / viewB — used to reuse
 * per-thread scratch for the fused im2col path). Views must outlive
 * the storage they borrow.
 */
class PackedMatrix
{
  public:
    enum class Kind { A, B };

    PackedMatrix() = default;

    /** @return panel-buffer size (floats) for an m x k op(A). */
    static std::size_t
    panelElemsA(std::int64_t m, std::int64_t k)
    {
        return static_cast<std::size_t>(roundUpTo(m, kGemmMr)) * k;
    }

    /** @return panel-buffer size (floats) for a k x n op(B). */
    static std::size_t
    panelElemsB(std::int64_t k, std::int64_t n)
    {
        return static_cast<std::size_t>(roundUpTo(n, kGemmNr)) * k;
    }

    /** Pack op(A) (m x k, alpha baked in) into a new owning buffer. */
    static PackedMatrix packA(Trans ta, std::int64_t m, std::int64_t k,
                              float alpha, const float *a,
                              std::int64_t lda);

    /** Pack op(B) (k x n) into a new owning buffer. */
    static PackedMatrix packB(Trans tb, std::int64_t k, std::int64_t n,
                              const float *b, std::int64_t ldb);

    /** Non-owning view over panelElemsA(m, k) floats already in
     *  A-panel format (64-byte aligned). */
    static PackedMatrix viewA(std::int64_t m, std::int64_t k,
                              const float *panels);

    /** Non-owning view over panelElemsB(k, n) floats already in
     *  B-panel format (64-byte aligned). */
    static PackedMatrix viewB(std::int64_t k, std::int64_t n,
                              const float *panels);

    Kind kind() const { return kind_; }

    /** Rows of the packed operand: m for A kind, k for B kind. */
    std::int64_t rows() const { return rows_; }

    /** Columns of the packed operand: k for A kind, n for B kind. */
    std::int64_t cols() const { return cols_; }

    /** @return the panel storage (64-byte aligned). */
    const float *panels() const { return data_; }

    bool empty() const { return data_ == nullptr; }

  private:
    PackedMatrix(Kind kind, std::int64_t rows, std::int64_t cols)
        : kind_(kind), rows_(rows), cols_(cols)
    {}

    Kind kind_ = Kind::A;
    std::int64_t rows_ = 0;
    std::int64_t cols_ = 0;
    AlignedBuffer<float> owned_;
    const float *data_ = nullptr;
};

/** Pack op(A) into caller storage of panelElemsA(m, k) floats. */
void packMatrixAInto(Trans ta, std::int64_t m, std::int64_t k, float alpha,
                     const float *a, std::int64_t lda, float *panels);

/** Pack op(B) into caller storage of panelElemsB(k, n) floats. */
void packMatrixBInto(Trans tb, std::int64_t k, std::int64_t n,
                     const float *b, std::int64_t ldb, float *panels);

/**
 * Reference triple-loop GEMM. Slow but obviously correct; used as the
 * oracle in tests and never on a hot path.
 */
void gemmNaive(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
               std::int64_t k, float alpha, const float *a,
               std::int64_t lda, const float *b, std::int64_t ldb,
               float beta, float *c, std::int64_t ldc);

/**
 * Single-threaded blocked SIMD GEMM. This is the unit the paper's
 * GEMM-in-Parallel schedule replicates across cores.
 */
void sgemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
           std::int64_t k, float alpha, const float *a, std::int64_t lda,
           const float *b, std::int64_t ldb, float beta, float *c,
           std::int64_t ldc);

/**
 * C = op(A) * op(B) + beta * C with a pre-packed A (alpha was baked at
 * pack time). m and k come from the PackedMatrix; op(B) is k x n.
 * Identical blocking and micro-kernel order as sgemm, so results are
 * bit-for-bit equal to the repacking path. Safe to call concurrently
 * from many threads sharing one PackedMatrix.
 */
void sgemmPackedA(const PackedMatrix &a, Trans tb, std::int64_t n,
                  const float *b, std::int64_t ldb, float beta, float *c,
                  std::int64_t ldc);

/**
 * C = alpha * op(A) * op(B) + beta * C with a pre-packed B. k and n
 * come from the PackedMatrix; op(A) is m x k. Safe for concurrent
 * read-only sharing of the PackedMatrix across threads.
 */
void sgemmPackedB(Trans ta, std::int64_t m, float alpha, const float *a,
                  std::int64_t lda, const PackedMatrix &b, float beta,
                  float *c, std::int64_t ldc);

/**
 * C = op(A) * op(B) + beta * C with both operands pre-packed — the
 * fully-fused convolution FP path (packed weights x im2col-in-panel
 * input): no packing at all inside the blocking loops.
 */
void sgemmPackedAB(const PackedMatrix &a, const PackedMatrix &b,
                   float beta, float *c, std::int64_t ldc);

/**
 * Parallel-GEMM: ONE matrix multiply partitioned across the pool's
 * threads (rows of C, or columns when m is small). This is the
 * schedule used by CAFFE/MKL-style baselines; per-core AIT drops as
 * threads are added (paper §3.2).
 */
void parallelGemm(ThreadPool &pool, Trans ta, Trans tb, std::int64_t m,
                  std::int64_t n, std::int64_t k, float alpha,
                  const float *a, std::int64_t lda, const float *b,
                  std::int64_t ldb, float beta, float *c,
                  std::int64_t ldc);

/**
 * Parallel-GEMM with a pre-packed, shared A: columns of C are
 * partitioned across the pool and every worker streams the same
 * packed panels read-only.
 */
void parallelGemmPackedA(ThreadPool &pool, const PackedMatrix &a,
                         Trans tb, std::int64_t n, const float *b,
                         std::int64_t ldb, float beta, float *c,
                         std::int64_t ldc);

/**
 * Parallel-GEMM with both operands pre-packed: column panels of the
 * packed B (kGemmNr granularity) are partitioned across the pool.
 */
void parallelGemmPackedAB(ThreadPool &pool, const PackedMatrix &a,
                          const PackedMatrix &b, float beta, float *c,
                          std::int64_t ldc);

/** Convenience overloads with lda/ldb/ldc defaulted to the row width
 *  of the (possibly transposed) operands and alpha=1. */
void sgemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
           std::int64_t k, const float *a, const float *b, float beta,
           float *c);

void parallelGemm(ThreadPool &pool, Trans ta, Trans tb, std::int64_t m,
                  std::int64_t n, std::int64_t k, const float *a,
                  const float *b, float beta, float *c);

} // namespace spg

#endif // SPG_BLAS_GEMM_HH
