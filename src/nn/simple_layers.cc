#include "nn/simple_layers.hh"

#include <algorithm>

#include "util/logging.hh"

namespace spg {

void
ReluLayer::forward(const Tensor &in, Tensor &out, ThreadPool &pool)
{
    std::int64_t n = in.size();
    SPG_ASSERT(out.size() == n);
    const float *src = in.data();
    float *dst = out.data();
    pool.parallelFor(n, [&](std::int64_t b, std::int64_t e, int) {
        for (std::int64_t i = b; i < e; ++i)
            dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
    });
}

void
ReluLayer::backward(const Tensor &, const Tensor &out, const Tensor &eo,
                    Tensor &ei, ThreadPool &pool)
{
    // Gate on the saved output: out > 0 iff in > 0 (ReLU preserves the
    // strict-positive predicate, including -0.0 and NaN), so this is
    // bit-for-bit the input-gated form while letting the arena planner
    // drop the input activation after FP.
    std::int64_t n = out.size();
    SPG_ASSERT(eo.size() == n && ei.size() == n);
    const float *y = out.data();
    const float *go = eo.data();
    float *gi = ei.data();
    pool.parallelFor(n, [&](std::int64_t b, std::int64_t e, int) {
        for (std::int64_t i = b; i < e; ++i)
            gi[i] = y[i] > 0.0f ? go[i] : 0.0f;
    });
}

PoolLayer::PoolLayer(Geometry geometry, std::int64_t kernel,
                     std::int64_t stride, Mode mode)
    : geom(geometry), kernel(kernel), stride(stride), mode(mode)
{
    if (kernel < 1 || stride < 1 || kernel > geom.h || kernel > geom.w)
        fatal("pool layer: bad kernel %lld / stride %lld for input %s",
              static_cast<long long>(kernel),
              static_cast<long long>(stride), geom.str().c_str());
}

Geometry
PoolLayer::outputGeometry() const
{
    return Geometry{geom.c, (geom.h - kernel) / stride + 1,
                    (geom.w - kernel) / stride + 1};
}

void
PoolLayer::forward(const Tensor &in, Tensor &out, ThreadPool &pool)
{
    std::int64_t batch = in.shape()[0];
    Geometry og = outputGeometry();
    std::int64_t in_stride = geom.elems();
    std::int64_t out_stride = og.elems();
    bool record_argmax = mode == Mode::Max && !inference_only;
    if (record_argmax)
        argmax.assign(batch * out_stride, 0);

    // (image × channel) space: each task owns one output plane, which
    // exposes channel-level parallelism even for tiny minibatches.
    pool.parallelFor2D(
        batch, geom.c, [&](std::int64_t b, std::int64_t c, int) {
            const float *img = in.data() + b * in_stride;
            float *dst = out.data() + b * out_stride;
            std::int32_t *am = record_argmax
                                   ? argmax.data() + b * out_stride
                                   : nullptr;
            const float *plane = img + c * geom.h * geom.w;
            for (std::int64_t y = 0; y < og.h; ++y) {
                for (std::int64_t x = 0; x < og.w; ++x) {
                    std::int64_t y0 = y * stride, x0 = x * stride;
                    if (mode == Mode::Max) {
                        float best = plane[y0 * geom.w + x0];
                        std::int64_t best_idx = y0 * geom.w + x0;
                        for (std::int64_t ky = 0; ky < kernel; ++ky)
                            for (std::int64_t kx = 0; kx < kernel; ++kx) {
                                std::int64_t idx =
                                    (y0 + ky) * geom.w + x0 + kx;
                                if (plane[idx] > best) {
                                    best = plane[idx];
                                    best_idx = idx;
                                }
                            }
                        dst[(c * og.h + y) * og.w + x] = best;
                        if (am != nullptr)
                            am[(c * og.h + y) * og.w + x] =
                                static_cast<std::int32_t>(best_idx);
                    } else {
                        float sum = 0;
                        for (std::int64_t ky = 0; ky < kernel; ++ky)
                            for (std::int64_t kx = 0; kx < kernel; ++kx)
                                sum += plane[(y0 + ky) * geom.w + x0 + kx];
                        dst[(c * og.h + y) * og.w + x] =
                            sum / static_cast<float>(kernel * kernel);
                    }
                }
            }
        });
}

void
PoolLayer::backward(const Tensor &, const Tensor &, const Tensor &eo,
                    Tensor &ei, ThreadPool &pool)
{
    SPG_ASSERT(!inference_only);
    std::int64_t batch = eo.shape()[0];
    Geometry og = outputGeometry();
    std::int64_t in_stride = geom.elems();
    std::int64_t out_stride = og.elems();
    SPG_ASSERT(ei.size() == batch * in_stride);

    // Scatter targets stay inside the (b, c) input plane (argmax
    // indices are plane-relative), so the 2D tasks write disjointly;
    // each task zeroes its own plane first.
    pool.parallelFor2D(
        batch, geom.c, [&](std::int64_t b, std::int64_t c, int) {
            const float *go = eo.data() + b * out_stride;
            float *plane = ei.data() + b * in_stride + c * geom.h * geom.w;
            std::fill_n(plane, geom.h * geom.w, 0.0f);
            for (std::int64_t y = 0; y < og.h; ++y) {
                for (std::int64_t x = 0; x < og.w; ++x) {
                    float e = go[(c * og.h + y) * og.w + x];
                    if (mode == Mode::Max) {
                        std::int64_t idx =
                            argmax[b * out_stride +
                                   (c * og.h + y) * og.w + x];
                        plane[idx] += e;
                    } else {
                        float share =
                            e / static_cast<float>(kernel * kernel);
                        std::int64_t y0 = y * stride, x0 = x * stride;
                        for (std::int64_t ky = 0; ky < kernel; ++ky)
                            for (std::int64_t kx = 0; kx < kernel; ++kx)
                                plane[(y0 + ky) * geom.w + x0 + kx] +=
                                    share;
                    }
                }
            }
        });
}

} // namespace spg
