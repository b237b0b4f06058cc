/**
 * @file
 * Parameterized sweep of the pooling layers against a naive oracle,
 * plus the conv-layer profiler.
 */

#include <gtest/gtest.h>

#include <limits>
#include <tuple>
#include <utility>

#include "nn/conv_layer.hh"
#include "nn/simple_layers.hh"
#include "util/random.hh"

namespace spg {
namespace {

/** Naive pooling oracle for one image. */
void
poolRef(PoolLayer::Mode mode, const Tensor &in, Geometry g,
        std::int64_t kernel, std::int64_t stride, Tensor &out)
{
    std::int64_t oh = (g.h - kernel) / stride + 1;
    std::int64_t ow = (g.w - kernel) / stride + 1;
    for (std::int64_t c = 0; c < g.c; ++c) {
        for (std::int64_t y = 0; y < oh; ++y) {
            for (std::int64_t x = 0; x < ow; ++x) {
                float best = -1e30f;
                float sum = 0;
                for (std::int64_t ky = 0; ky < kernel; ++ky)
                    for (std::int64_t kx = 0; kx < kernel; ++kx) {
                        float v = in.at(0, c, y * stride + ky,
                                        x * stride + kx);
                        best = std::max(best, v);
                        sum += v;
                    }
                out.at(0, c, y, x) =
                    mode == PoolLayer::Mode::Max
                        ? best
                        : sum / static_cast<float>(kernel * kernel);
            }
        }
    }
}

class PoolSweep
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, int, int>>  // h, w, kernel, stride,
                                                // mode
{
};

TEST_P(PoolSweep, ForwardMatchesOracle)
{
    auto [h, w, kernel, stride, mode_i] = GetParam();
    auto mode = mode_i ? PoolLayer::Mode::Avg : PoolLayer::Mode::Max;
    Geometry g{3, h, w};
    PoolLayer layer(g, kernel, stride, mode);
    ThreadPool pool(2);
    Rng rng(h * 31 + w * 7 + kernel);

    Tensor in(Shape{1, g.c, g.h, g.w});
    in.fillUniform(rng);
    Geometry og = layer.outputGeometry();
    Tensor out(Shape{1, og.c, og.h, og.w});
    Tensor want(Shape{1, og.c, og.h, og.w});
    layer.forward(in, out, pool);
    poolRef(mode, in, g, kernel, stride, want);
    EXPECT_EQ(maxAbsDiff(out, want), 0.0f);
}

TEST_P(PoolSweep, BackwardPreservesGradientMass)
{
    auto [h, w, kernel, stride, mode_i] = GetParam();
    auto mode = mode_i ? PoolLayer::Mode::Avg : PoolLayer::Mode::Max;
    Geometry g{2, h, w};
    PoolLayer layer(g, kernel, stride, mode);
    ThreadPool pool(2);
    Rng rng(h * 13 + kernel);

    Tensor in(Shape{1, g.c, g.h, g.w});
    in.fillUniform(rng);
    Geometry og = layer.outputGeometry();
    Tensor out(Shape{1, og.c, og.h, og.w});
    layer.forward(in, out, pool);

    Tensor eo(Shape{1, og.c, og.h, og.w});
    eo.fillUniform(rng, 0.0f, 1.0f);
    Tensor ei(Shape{1, g.c, g.h, g.w});
    layer.backward(in, out, eo, ei, pool);

    // Non-overlapping windows conserve gradient mass exactly.
    if (stride >= kernel) {
        double in_mass = 0, out_mass = 0;
        for (std::int64_t i = 0; i < ei.size(); ++i)
            in_mass += ei[i];
        for (std::int64_t i = 0; i < eo.size(); ++i)
            out_mass += eo[i];
        EXPECT_NEAR(in_mass, out_mass, 1e-3);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PoolSweep,
    ::testing::Combine(::testing::Values(8, 9, 12),
                       ::testing::Values(8, 11),
                       ::testing::Values(2, 3),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(0, 1)),
    [](const auto &info) {
        return "h" + std::to_string(std::get<0>(info.param)) + "w" +
               std::to_string(std::get<1>(info.param)) + "k" +
               std::to_string(std::get<2>(info.param)) + "s" +
               std::to_string(std::get<3>(info.param)) +
               (std::get<4>(info.param) ? "_avg" : "_max");
    });

TEST(PoolLayer, BackwardOverwritesStaleInputGradient)
{
    // Each (image, channel) task of PoolLayer::backward zeroes its own
    // input-gradient plane before it scatters, so a NaN-filled ei must
    // come out equal to a zeroed one. Stride 3 over kernel 2
    // leaves rows and columns no window touches; kernel 3 over stride 2
    // makes windows overlap.
    const Geometry g{5, 9, 11};
    const std::int64_t batch = 3;
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (auto mode : {PoolLayer::Mode::Max, PoolLayer::Mode::Avg}) {
        for (auto [kernel, stride] : {std::pair{2, 3}, std::pair{3, 2}}) {
            PoolLayer layer(g, kernel, stride, mode);
            Geometry og = layer.outputGeometry();
            Rng rng(kernel * 10 + stride);
            Tensor in(Shape{batch, g.c, g.h, g.w});
            Tensor out(Shape{batch, og.c, og.h, og.w});
            Tensor eo(Shape{batch, og.c, og.h, og.w});
            in.fillUniform(rng);
            eo.fillUniform(rng);
            for (int threads : {1, 3}) {
                ThreadPool pool(threads);
                layer.forward(in, out, pool);
                Tensor zeroed(Shape{batch, g.c, g.h, g.w});
                layer.backward(in, out, eo, zeroed, pool);
                Tensor stale(Shape{batch, g.c, g.h, g.w});
                stale.fill(nan);
                layer.backward(in, out, eo, stale, pool);
                for (std::int64_t i = 0; i < stale.size(); ++i)
                    ASSERT_EQ(stale[i], zeroed[i])
                        << "k" << kernel << "s" << stride << " threads "
                        << threads << " element " << i;
            }
        }
    }
}

TEST(ConvLayerProfile, AccumulatesPerPhaseTime)
{
    ConvSpec spec{10, 10, 2, 3, 3, 3, 1, 1};
    Rng rng(1);
    ConvLayer layer("p", spec, rng);
    ThreadPool pool(1);
    Tensor in(Shape{2, spec.nc, spec.ny, spec.nx});
    Tensor out(Shape{2, spec.nf, spec.outY(), spec.outX()});
    Tensor eo = out.clone();
    Tensor ei(Shape{2, spec.nc, spec.ny, spec.nx});
    in.fillUniform(rng);

    EXPECT_EQ(layer.profile().calls, 0);
    layer.forward(in, out, pool);
    layer.forward(in, out, pool);
    layer.backward(in, out, eo, ei, pool);
    EXPECT_EQ(layer.profile().calls, 2);
    EXPECT_GT(layer.profile().fp_seconds, 0.0);
    EXPECT_GT(layer.profile().bp_data_seconds, 0.0);
    EXPECT_GT(layer.profile().bp_weights_seconds, 0.0);
    layer.resetProfile();
    EXPECT_EQ(layer.profile().calls, 0);
    EXPECT_EQ(layer.profile().fp_seconds, 0.0);
}

} // namespace
} // namespace spg
