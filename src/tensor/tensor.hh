/**
 * @file
 * Dense row-major float tensors of rank 1..4.
 *
 * Tensors are the common currency between the convolution engines, the
 * neural-network layers and the benchmark workload generators. Layout
 * is always row-major over the shape as declared; the convolution
 * engines document the dimension *meaning* (e.g. [c][y][x] vs
 * [y][x][c]) at each call site, and the transforms in
 * tensor/layout.hh convert between those meanings.
 */

#ifndef SPG_TENSOR_TENSOR_HH
#define SPG_TENSOR_TENSOR_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/aligned.hh"
#include "util/random.hh"

namespace spg {

/** Shape of a tensor: up to four extents, unused extents are 1. */
class Shape
{
  public:
    Shape() : dims{1, 1, 1, 1}, rank_(0) {}

    /** Construct from 1..4 extents. */
    Shape(std::initializer_list<std::int64_t> extents);

    /** @return number of declared dimensions (1..4). */
    int rank() const { return rank_; }

    /** @return extent of dimension i (0-based). */
    std::int64_t operator[](int i) const { return dims[i]; }

    /** @return product of all extents. Inline on purpose: it is the
     *  bound of every tensor-length loop, and an out-of-line call there
     *  is re-issued per element and blocks vectorization. */
    std::int64_t elements() const
    {
        return dims[0] * dims[1] * dims[2] * dims[3];
    }

    bool operator==(const Shape &other) const;
    bool operator!=(const Shape &other) const { return !(*this == other); }

    /** @return "AxBxC" style rendering for messages. */
    std::string str() const;

  private:
    std::array<std::int64_t, 4> dims;
    int rank_;
};

/**
 * Physical memory layout tag for a tensor.
 *
 * Most tensors are plain NCHW (the default tag carries no extra
 * information). The direct convolution engine works on channel-blocked
 * tensors instead:
 *
 *  - Nchwc activations: logically [B][C][H][W], stored as
 *    [B][ceil(C/c)][H][W][c] with the trailing partial channel block
 *    zero-padded. Within the rank-4 Shape convention this is declared
 *    as {B, ceil(C/c), H, W*c} — row-major order over that shape is
 *    exactly the 5-D blocked order, so Shape::elements() is the
 *    physical (padded) element count.
 *  - Nchwc weights (KCRSck): logically [K][C][Fy][Fx], stored as
 *    [ceil(K/c)][ceil(C/c)][Fy][Fx][c_in][c_out], declared as
 *    {ceil(K/c), ceil(C/c), Fy, Fx*c*c}. Tagged with features = K.
 *
 * The tag records the logical channel/feature counts so conversions can
 * recover the unpadded tensor; blocked() distinguishes the two worlds
 * at engine boundaries.
 */
struct Layout
{
    enum class Kind : unsigned char
    {
        Nchw,  ///< plain row-major over the declared shape
        Nchwc  ///< channel-blocked; see struct comment
    };

    Kind kind = Kind::Nchw;
    std::int32_t block = 0;     ///< channel block width c (Nchwc only)
    std::int64_t channels = 0;  ///< logical channel count C (Nchwc only)
    std::int64_t features = 0;  ///< logical feature count K (blocked
                                ///< weights only; 0 for activations)

    bool blocked() const { return kind == Kind::Nchwc; }

    static Layout nchw() { return Layout{}; }

    static Layout
    nchwc(std::int64_t channels, std::int32_t block = 8)
    {
        return Layout{Kind::Nchwc, block, channels, 0};
    }

    static Layout
    kcrsck(std::int64_t features, std::int64_t channels,
           std::int32_t block = 8)
    {
        return Layout{Kind::Nchwc, block, channels, features};
    }

    bool
    operator==(const Layout &o) const
    {
        return kind == o.kind && block == o.block &&
               channels == o.channels && features == o.features;
    }
    bool operator!=(const Layout &o) const { return !(*this == o); }

    /** @return "nchw" or "nchwc<block>" for reports. */
    std::string
    str() const
    {
        return blocked() ? "nchwc" + std::to_string(block) : "nchw";
    }
};

/**
 * An owning, aligned, row-major dense float tensor.
 *
 * Move-only (copies must be explicit via clone() so that accidental
 * deep copies never hide in hot paths).
 */
class Tensor
{
  public:
    Tensor() = default;

    /** Allocate a zero-filled tensor of the given shape. */
    explicit Tensor(Shape shape);

    /**
     * Allocate WITHOUT zero-fill — for tensors fully overwritten
     * before their first read (staging, scratch). Sanitized builds
     * poison the contents instead (see util/aligned.hh).
     */
    static Tensor uninitialized(Shape shape);

    /**
     * A non-owning view of external storage (e.g. an arena slot). The
     * caller guarantees @p data outlives the view and holds at least
     * shape.elements() floats.
     */
    static Tensor view(Shape shape, float *data);

    /**
     * A non-owning view carrying a layout tag. Blocked views must be
     * 64-byte aligned (the direct engine issues aligned vector loads
     * against blocked slabs); panics otherwise.
     */
    static Tensor view(Shape shape, float *data, Layout layout);

    Tensor(Tensor &&) = default;
    Tensor &operator=(Tensor &&) = default;
    Tensor(const Tensor &) = delete;
    Tensor &operator=(const Tensor &) = delete;

    /** @return an explicit deep copy (always owning). */
    Tensor clone() const;

    const Shape &shape() const { return shape_; }
    std::int64_t size() const { return shape_.elements(); }

    /** @return the physical layout tag (Nchw unless explicitly set). */
    const Layout &layout() const { return layout_; }

    /** Tag this tensor's layout (shape is already the physical shape). */
    void setLayout(Layout layout) { layout_ = layout; }

    float *data() { return view_ ? view_ : buffer.data(); }
    const float *data() const { return view_ ? view_ : buffer.data(); }

    /** Flat element access. */
    float &operator[](std::int64_t i) { return data()[i]; }
    float operator[](std::int64_t i) const { return data()[i]; }

    /** 2-D indexed access; requires rank >= 2 semantics. */
    float &at(std::int64_t i, std::int64_t j);
    float at(std::int64_t i, std::int64_t j) const;

    /** 3-D indexed access. */
    float &at(std::int64_t i, std::int64_t j, std::int64_t k);
    float at(std::int64_t i, std::int64_t j, std::int64_t k) const;

    /** 4-D indexed access. */
    float &at(std::int64_t i, std::int64_t j, std::int64_t k,
              std::int64_t l);
    float at(std::int64_t i, std::int64_t j, std::int64_t k,
             std::int64_t l) const;

    /** Set every element to zero. */
    void zero();

    /** Set every element to the given constant. */
    void fill(float value);

    /** Fill with uniform values in [lo, hi) from the given generator. */
    void fillUniform(Rng &rng, float lo = -1.0f, float hi = 1.0f);

    /** Fill with N(0, stddev^2) samples. */
    void fillGaussian(Rng &rng, float stddev = 1.0f);

    /**
     * Randomly zero elements until approximately the requested fraction
     * is zero. Used to synthesize error-gradient sparsity levels.
     *
     * @param rng Seeded generator.
     * @param sparsity Target fraction of zeros in [0, 1].
     */
    void sparsify(Rng &rng, double sparsity);

    /** @return fraction of elements that are exactly zero. */
    double sparsity() const;

    /** @return number of elements that are exactly zero. */
    std::int64_t zeroCount() const;

    /** @return largest absolute element. */
    float maxAbs() const;

  private:
    Shape shape_;
    Layout layout_;
    AlignedBuffer<float> buffer;
    float *view_ = nullptr;  ///< when set, storage is external
};

/**
 * @return the largest absolute elementwise difference between two
 * tensors of identical shape; panics on shape mismatch.
 */
float maxAbsDiff(const Tensor &a, const Tensor &b);

/**
 * @return true when every element of @p a is within @p abs_tol plus
 * @p rel_tol * |b| of the corresponding element of @p b.
 */
bool allClose(const Tensor &a, const Tensor &b, float rel_tol = 1e-4f,
              float abs_tol = 1e-5f);

} // namespace spg

#endif // SPG_TENSOR_TENSOR_HH
