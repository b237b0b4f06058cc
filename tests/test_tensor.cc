/**
 * @file
 * Tests for the tensor container and data-layout transforms.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "tensor/layout.hh"
#include "tensor/tensor.hh"
#include "util/random.hh"

namespace spg {
namespace {

TEST(Shape, BasicProperties)
{
    Shape s{2, 3, 4};
    EXPECT_EQ(s.rank(), 3);
    EXPECT_EQ(s[0], 2);
    EXPECT_EQ(s[1], 3);
    EXPECT_EQ(s[2], 4);
    EXPECT_EQ(s[3], 1);
    EXPECT_EQ(s.elements(), 24);
    EXPECT_EQ(s.str(), "2x3x4");
    EXPECT_EQ(s, (Shape{2, 3, 4}));
    EXPECT_NE(s, (Shape{2, 3, 4, 1}));  // different rank
    EXPECT_NE(s, (Shape{2, 3, 5}));
}

TEST(Tensor, ZeroInitialized)
{
    Tensor t(Shape{3, 5});
    EXPECT_EQ(t.maxAbs(), 0.0f);
    EXPECT_EQ(t.size(), 15);
    EXPECT_DOUBLE_EQ(t.sparsity(), 1.0);
}

TEST(Tensor, IndexedAccessMatchesFlat)
{
    Tensor t(Shape{2, 3, 4, 5});
    std::iota(t.data(), t.data() + t.size(), 0.0f);
    EXPECT_EQ(t.at(0, 0, 0, 0), 0.0f);
    EXPECT_EQ(t.at(1, 2, 3, 4), static_cast<float>(t.size() - 1));
    EXPECT_EQ(t.at(0, 1, 2, 3), static_cast<float>((1 * 4 + 2) * 5 + 3));

    Tensor t3(Shape{3, 4, 5});
    std::iota(t3.data(), t3.data() + t3.size(), 0.0f);
    EXPECT_EQ(t3.at(1, 2, 3), static_cast<float>((1 * 4 + 2) * 5 + 3));

    Tensor t2(Shape{4, 5});
    std::iota(t2.data(), t2.data() + t2.size(), 0.0f);
    EXPECT_EQ(t2.at(2, 3), 13.0f);
}

TEST(Tensor, CloneIsDeep)
{
    Tensor a(Shape{4});
    a.fill(1.0f);
    Tensor b = a.clone();
    b[0] = 5.0f;
    EXPECT_EQ(a[0], 1.0f);
    EXPECT_EQ(b[1], 1.0f);
}

TEST(Tensor, SparsifyHitsTarget)
{
    Tensor t(Shape{100, 100});
    Rng rng(11);
    t.fillUniform(rng, 0.5f, 1.5f);  // no natural zeros
    EXPECT_DOUBLE_EQ(t.sparsity(), 0.0);
    t.sparsify(rng, 0.85);
    EXPECT_NEAR(t.sparsity(), 0.85, 0.02);
}

TEST(Tensor, AllCloseAndMaxAbsDiff)
{
    Tensor a(Shape{5});
    Tensor b(Shape{5});
    a.fill(1.0f);
    b.fill(1.0f);
    EXPECT_TRUE(allClose(a, b));
    b[2] = 1.1f;
    EXPECT_FALSE(allClose(a, b, 1e-3f, 1e-3f));
    EXPECT_NEAR(maxAbsDiff(a, b), 0.1f, 1e-6f);
    EXPECT_FALSE(allClose(a, Tensor(Shape{6})));
}

TEST(Tensor, FillGaussianStatistics)
{
    Tensor t(Shape{200, 200});
    Rng rng(12);
    t.fillGaussian(rng, 2.0f);
    double sum = 0, sum2 = 0;
    for (std::int64_t i = 0; i < t.size(); ++i) {
        sum += t[i];
        sum2 += static_cast<double>(t[i]) * t[i];
    }
    double mean = sum / t.size();
    double var = sum2 / t.size() - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.05);
    EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Layout, Transpose2d)
{
    std::int64_t r = 37, c = 53;
    Tensor a(Shape{r, c});
    Rng rng(13);
    a.fillUniform(rng);
    Tensor b(Shape{c, r});
    transpose2d(a.data(), r, c, b.data());
    for (std::int64_t i = 0; i < r; ++i)
        for (std::int64_t j = 0; j < c; ++j)
            ASSERT_EQ(a.at(i, j), b.at(j, i));
}

TEST(Layout, Permute4Identity)
{
    Tensor a(Shape{2, 3, 4, 5});
    Rng rng(14);
    a.fillUniform(rng);
    Tensor b(Shape{2, 3, 4, 5});
    permute4(a.data(), {2, 3, 4, 5}, {0, 1, 2, 3}, b.data());
    EXPECT_EQ(maxAbsDiff(a, b), 0.0f);
}

TEST(Layout, Permute4MatchesManual)
{
    Tensor a(Shape{2, 3, 4, 5});
    std::iota(a.data(), a.data() + a.size(), 0.0f);
    Tensor b(Shape{5, 3, 2, 4});
    permute4(a.data(), {2, 3, 4, 5}, {3, 1, 0, 2}, b.data());
    for (std::int64_t i = 0; i < 2; ++i)
        for (std::int64_t j = 0; j < 3; ++j)
            for (std::int64_t k = 0; k < 4; ++k)
                for (std::int64_t l = 0; l < 5; ++l)
                    ASSERT_EQ(b.at(l, j, i, k), a.at(i, j, k, l));
}

TEST(Layout, ChwHwcRoundTrip)
{
    std::int64_t c = 7, h = 9, w = 11;
    Tensor a(Shape{c, h, w});
    Rng rng(15);
    a.fillUniform(rng);
    Tensor hwc(Shape{h, w, c});
    Tensor back(Shape{c, h, w});
    chwToHwc(a.data(), c, h, w, hwc.data());
    // Spot-check semantics: hwc[y][x][ch] == chw[ch][y][x].
    EXPECT_EQ(hwc.at(2, 3, 4), a.at(4, 2, 3));
    hwcToChw(hwc.data(), h, w, c, back.data());
    EXPECT_EQ(maxAbsDiff(a, back), 0.0f);
}

TEST(Layout, WeightsKkfcRoundTrip)
{
    std::int64_t nf = 4, nc = 3, fy = 2, fx = 5;
    Tensor w(Shape{nf, nc, fy, fx});
    Rng rng(16);
    w.fillUniform(rng);
    Tensor kkfc(Shape{fy, fx, nf, nc});
    weightsToKkfc(w.data(), nf, nc, fy, fx, kkfc.data());
    EXPECT_EQ(kkfc.at(1, 4, 2, 0), w.at(2, 0, 1, 4));
    Tensor back(Shape{nf, nc, fy, fx});
    weightsFromKkfc(kkfc.data(), fy, fx, nf, nc, back.data());
    EXPECT_EQ(maxAbsDiff(w, back), 0.0f);
}

} // namespace
} // namespace spg
