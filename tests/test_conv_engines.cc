/**
 * @file
 * Cross-engine correctness: every optimized convolution engine must
 * reproduce the reference loop-nest on a parameterized sweep of
 * geometries (kernel sizes, strides, channel/feature counts, batch
 * sizes) and sparsity levels.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "blas/gemm.hh"
#include "conv/engines.hh"
#include "conv/packed_weights.hh"
#include "conv/unfold.hh"
#include "obs/metrics.hh"
#include "sparse/sparse_plan.hh"
#include "tensor/tensor.hh"
#include "util/random.hh"

namespace spg {
namespace {

struct ConvCase
{
    ConvSpec spec;
    std::int64_t batch;
    const char *label;
};

/** Geometry sweep: small/odd shapes, strides, realistic layers. */
const ConvCase kCases[] = {
    {ConvSpec{5, 5, 1, 1, 2, 2, 1, 1}, 1, "tiny"},
    {ConvSpec{8, 8, 2, 3, 3, 3, 1, 1}, 2, "small"},
    {ConvSpec{9, 7, 3, 4, 3, 2, 1, 1}, 2, "rect"},
    {ConvSpec{12, 12, 4, 8, 5, 5, 1, 1}, 3, "k5"},
    {ConvSpec{13, 13, 3, 5, 1, 1, 1, 1}, 2, "k1"},
    {ConvSpec{16, 16, 2, 4, 3, 3, 2, 2}, 2, "stride2"},
    {ConvSpec{17, 17, 2, 4, 5, 5, 3, 3}, 2, "stride3"},
    {ConvSpec{19, 15, 3, 6, 4, 3, 2, 1}, 1, "mixedstride"},
    {ConvSpec{28, 28, 1, 20, 5, 5, 1, 1}, 2, "mnist_l0"},
    {ConvSpec{36, 36, 3, 16, 5, 5, 1, 1}, 2, "cifar_l0"},
    {ConvSpec{24, 24, 8, 12, 7, 7, 1, 1}, 1, "k7"},
    {ConvSpec{31, 31, 5, 9, 11, 11, 1, 1}, 1, "k11"},
    {ConvSpec{23, 23, 4, 6, 5, 5, 4, 4}, 2, "stride4"},
};

class EngineSweep
    : public ::testing::TestWithParam<std::tuple<int, std::string, double>>
{
  protected:
    const ConvCase &convCase() const
    {
        return kCases[std::get<0>(GetParam())];
    }
    std::string engineName() const { return std::get<1>(GetParam()); }
    double sparsity() const { return std::get<2>(GetParam()); }
};

TEST_P(EngineSweep, MatchesReference)
{
    const ConvCase &cc = convCase();
    const ConvSpec &spec = cc.spec;
    auto engine = makeEngine(engineName());
    ASSERT_NE(engine, nullptr);

    Rng rng(1234 + std::get<0>(GetParam()));
    ThreadPool pool(3);
    ReferenceEngine ref;

    Tensor in(Shape{cc.batch, spec.nc, spec.ny, spec.nx});
    Tensor w(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
    in.fillUniform(rng);
    w.fillUniform(rng, -0.5f, 0.5f);

    Tensor eo(Shape{cc.batch, spec.nf, spec.outY(), spec.outX()});
    eo.fillUniform(rng);
    eo.sparsify(rng, sparsity());

    if (engine->supports(Phase::Forward)) {
        Tensor out_ref(Shape{cc.batch, spec.nf, spec.outY(), spec.outX()});
        Tensor out(Shape{cc.batch, spec.nf, spec.outY(), spec.outX()});
        ref.forward(spec, in, w, out_ref, pool);
        engine->forward(spec, in, w, out, pool);
        EXPECT_TRUE(allClose(out, out_ref, 1e-3f, 1e-4f))
            << cc.label << " FP maxdiff=" << maxAbsDiff(out, out_ref);
    }

    if (engine->supports(Phase::BackwardData)) {
        Tensor ei_ref(Shape{cc.batch, spec.nc, spec.ny, spec.nx});
        Tensor ei(Shape{cc.batch, spec.nc, spec.ny, spec.nx});
        ref.backwardData(spec, eo, w, ei_ref, pool);
        engine->backwardData(spec, eo, w, ei, pool);
        EXPECT_TRUE(allClose(ei, ei_ref, 1e-3f, 1e-4f))
            << cc.label << " BP-data maxdiff=" << maxAbsDiff(ei, ei_ref);
    }

    if (engine->supports(Phase::BackwardWeights)) {
        Tensor dw_ref(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
        Tensor dw(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
        ref.backwardWeights(spec, eo, in, dw_ref, pool);
        engine->backwardWeights(spec, eo, in, dw, pool);
        EXPECT_TRUE(allClose(dw, dw_ref, 1e-3f, 1e-3f))
            << cc.label << " BP-weights maxdiff="
            << maxAbsDiff(dw, dw_ref);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EngineSweep,
    ::testing::Combine(
        ::testing::Range(0, static_cast<int>(std::size(kCases))),
        ::testing::Values(std::string("parallel-gemm"),
                          std::string("gemm-in-parallel"),
                          std::string("stencil"), std::string("direct"),
                          std::string("sparse-cached")),
        ::testing::Values(0.0, 0.85, 0.99)),
    [](const auto &info) {
        int idx = std::get<0>(info.param);
        std::string name = std::string(kCases[idx].label) + "_" +
                           std::get<1>(info.param);
        for (auto &ch : name)
            if (ch == '-')
                ch = '_';
        double sp = std::get<2>(info.param);
        name += sp == 0.0 ? "_dense" : sp < 0.9 ? "_sparse" : "_xsparse";
        return name;
    });

TEST(ConvEngines, RegistryKnowsAllNames)
{
    for (const char *name :
         {"reference", "parallel-gemm", "gemm-in-parallel", "stencil",
          "direct", "sparse-cached", "sparse-weights-direct",
          "winograd"}) {
        auto e = makeEngine(name);
        ASSERT_NE(e, nullptr) << name;
        EXPECT_EQ(e->name(), name);
    }
    // Every registered engine resolves by its own name.
    for (const auto &engine : makeExtendedEngines())
        EXPECT_NE(makeEngine(engine->name()), nullptr) << engine->name();
    EXPECT_EQ(makeEngine("no-such-engine"), nullptr);
    // Deleted engines stay deleted.
    for (const char *gone :
         {"fft", "sparse", "sparse-weights", "parallel-gemm-packed",
          "gemm-in-parallel-packed"})
        EXPECT_EQ(makeEngine(gone), nullptr) << gone;
    EXPECT_EQ(makeAllEngines().size(), 5u);
    EXPECT_EQ(makeExtendedEngines().size(), 7u);
}

TEST(ConvEngines, PhaseSupportMatrix)
{
    EXPECT_TRUE(makeEngine("parallel-gemm")->supports(Phase::Forward));
    EXPECT_TRUE(
        makeEngine("parallel-gemm")->supports(Phase::BackwardData));
    EXPECT_TRUE(makeEngine("stencil")->supports(Phase::Forward));
    EXPECT_FALSE(makeEngine("stencil")->supports(Phase::BackwardData));
    EXPECT_FALSE(makeEngine("sparse-cached")->supports(Phase::Forward));
    EXPECT_TRUE(
        makeEngine("sparse-cached")->supports(Phase::BackwardData));
    EXPECT_TRUE(
        makeEngine("sparse-cached")->supports(Phase::BackwardWeights));
}

TEST(ConvEngines, GemmEnginesMatchPlainSgemmBitForBit)
{
    // The GEMM engines run FP and BP-data on cached packed weights (FP
    // also unfolds straight into B panels), and Parallel-GEMM splits
    // each image's MM by columns across the pool. The packed entry
    // points keep sgemm's blocking and micro-kernel order, so both
    // schedules must EXACTLY equal a per-image unfold + plain sgemm
    // (+ fold for BP-data), not just be close.
    const ConvSpec specs[] = {
        ConvSpec{14, 12, 3, 7, 3, 3, 1, 1},   // below the threading cut
        ConvSpec{36, 36, 3, 16, 5, 5, 1, 1},  // cifar10 conv0 shape
        ConvSpec{50, 50, 2, 5, 3, 3, 1, 1},   // N spans two kNc blocks
        ConvSpec{17, 17, 2, 4, 5, 5, 3, 3},   // strided
    };
    std::int64_t batch = 3;
    ThreadPool pool(3);
    for (const ConvSpec &spec : specs) {
        PackedWeightCache::global().clear();
        Rng rng(77 + spec.ny);
        Tensor in(Shape{batch, spec.nc, spec.ny, spec.nx});
        Tensor w(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
        Tensor eo(Shape{batch, spec.nf, spec.outY(), spec.outX()});
        in.fillUniform(rng);
        w.fillUniform(rng, -0.5f, 0.5f);
        eo.fillUniform(rng);

        std::int64_t m = spec.gemmM(), n = spec.gemmN(), k = spec.gemmK();
        Tensor out_ref(Shape{batch, spec.nf, spec.outY(), spec.outX()});
        Tensor ei_ref(Shape{batch, spec.nc, spec.ny, spec.nx});
        std::vector<float> u(static_cast<std::size_t>(k * n));
        for (std::int64_t b = 0; b < batch; ++b) {
            unfoldImage(spec, in.data() + b * spec.inputElems(), u.data());
            sgemm(Trans::No, Trans::No, m, n, k, w.data(), u.data(), 0.0f,
                  out_ref.data() + b * spec.outputElems());
            sgemm(Trans::Yes, Trans::No, k, n, m, w.data(),
                  eo.data() + b * spec.outputElems(), 0.0f, u.data());
            foldImageAccumulate(spec, u.data(),
                                ei_ref.data() + b * spec.inputElems());
        }

        for (const char *name : {"parallel-gemm", "gemm-in-parallel"}) {
            auto engine = makeEngine(name);
            Tensor out(Shape{batch, spec.nf, spec.outY(), spec.outX()});
            engine->forward(spec, in, w, out, pool);
            EXPECT_EQ(maxAbsDiff(out, out_ref), 0.0f)
                << name << " FP n=" << n;

            Tensor ei(Shape{batch, spec.nc, spec.ny, spec.nx});
            engine->backwardData(spec, eo, w, ei, pool);
            EXPECT_EQ(maxAbsDiff(ei, ei_ref), 0.0f)
                << name << " BP-data n=" << n;
        }
        // One packed W (FP) and one packed W^T (BP-data), shared by
        // both engines.
        EXPECT_EQ(PackedWeightCache::global().size(), 2u);
    }
    PackedWeightCache::global().clear();
}

TEST(ConvEngines, PackedEngineSeesInPlaceWeightMutation)
{
    // Direct engine users mutate weight tensors without notifying the
    // cache; the content fingerprint must force a re-pack. 90 weights
    // (360 bytes) are eleven 32-byte hash blocks plus an 8-byte tail:
    // the mutations hit each of the four 8-byte lanes of a block, and
    // the last float alone, which only the tail loop reads.
    ConvSpec spec{10, 10, 2, 5, 3, 3, 1, 1};
    ASSERT_EQ(spec.weightElems() % 8, 2);
    const std::int64_t mutated[] = {0, 3, 5, 7, spec.weightElems() - 1};
    obs::Counter &packs =
        obs::Metrics::global().counter("packed_weights.packs");
    ThreadPool pool(2);
    for (const char *name : {"parallel-gemm", "gemm-in-parallel"}) {
        PackedWeightCache::global().clear();
        Rng rng(78);
        Tensor in(Shape{2, spec.nc, spec.ny, spec.nx});
        Tensor w(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
        Tensor eo(Shape{2, spec.nf, spec.outY(), spec.outX()});
        in.fillUniform(rng);
        w.fillUniform(rng);
        eo.fillUniform(rng);

        auto engine = makeEngine(name);
        Tensor out(Shape{2, spec.nf, spec.outY(), spec.outX()});
        Tensor ei(Shape{2, spec.nc, spec.ny, spec.nx});
        engine->forward(spec, in, w, out, pool);  // caches packed W
        engine->backwardData(spec, eo, w, ei, pool);  // and W^T

        for (std::int64_t i : mutated) {
            w[i] += 1.0f;  // in-place mutation, same pointer and dims
            std::int64_t before = packs.value();
            Tensor out_ref(Shape{2, spec.nf, spec.outY(), spec.outX()});
            Tensor ei_ref(Shape{2, spec.nc, spec.ny, spec.nx});
            ReferenceEngine().forward(spec, in, w, out_ref, pool);
            ReferenceEngine().backwardData(spec, eo, w, ei_ref, pool);
            engine->forward(spec, in, w, out, pool);
            engine->backwardData(spec, eo, w, ei, pool);
            EXPECT_EQ(packs.value() - before, 2)
                << name << ": no re-pack after mutating w[" << i << "]";
            EXPECT_TRUE(allClose(out, out_ref, 1e-3f, 1e-4f))
                << name << ": stale packed W served after mutating w["
                << i << "]";
            EXPECT_TRUE(allClose(ei, ei_ref, 1e-3f, 1e-4f))
                << name << ": stale packed W^T served after mutating w["
                << i << "]";
        }
    }
    PackedWeightCache::global().clear();
}

TEST(ConvEngines, SparseCachedMatchesReferenceEncodingOnce)
{
    // The engine builds its CT-CSR plan once, in BP-data, and replays
    // it for BP-weights: both phases must match the reference oracle,
    // with exactly one encode and one cache hit.
    SparsePlanCache::global().clear();
    SparsePlanCache::global().resetStats();
    ConvSpec spec{14, 12, 3, 7, 3, 3, 1, 1};
    std::int64_t batch = 3;
    Rng rng(79);
    ThreadPool pool(3);
    Tensor in(Shape{batch, spec.nc, spec.ny, spec.nx});
    Tensor w(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
    Tensor eo(Shape{batch, spec.nf, spec.outY(), spec.outX()});
    in.fillUniform(rng);
    w.fillUniform(rng, -0.5f, 0.5f);
    eo.fillUniform(rng);
    eo.sparsify(rng, 0.9);

    ReferenceEngine ref;
    auto cached = makeEngine("sparse-cached");

    Tensor ei_ref(Shape{batch, spec.nc, spec.ny, spec.nx});
    Tensor ei(Shape{batch, spec.nc, spec.ny, spec.nx});
    ref.backwardData(spec, eo, w, ei_ref, pool);
    cached->backwardData(spec, eo, w, ei, pool);
    EXPECT_TRUE(allClose(ei, ei_ref, 1e-3f, 1e-4f))
        << "BP-data maxdiff=" << maxAbsDiff(ei, ei_ref);

    Tensor dw_ref(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
    Tensor dw(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
    ref.backwardWeights(spec, eo, in, dw_ref, pool);
    cached->backwardWeights(spec, eo, in, dw, pool);
    EXPECT_TRUE(allClose(dw, dw_ref, 1e-3f, 1e-3f))
        << "BP-weights maxdiff=" << maxAbsDiff(dw, dw_ref);

    // BP-data encoded once; BP-weights reused the plan.
    SparsePlanCache::Stats stats = SparsePlanCache::global().stats();
    EXPECT_EQ(stats.encodes, 1);
    EXPECT_EQ(stats.hits, 1);
    SparsePlanCache::global().clear();
}

TEST(ConvEngines, SparseCachedSeesInPlaceErrorMutation)
{
    // Training overwrites the error tensor every minibatch without
    // notifying the cache; the content fingerprint must force a
    // re-encode rather than replay the stale plan.
    SparsePlanCache::global().clear();
    ConvSpec spec{10, 10, 2, 4, 3, 3, 1, 1};
    Rng rng(80);
    ThreadPool pool(2);
    Tensor w(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
    w.fillUniform(rng);
    Tensor eo(Shape{2, spec.nf, spec.outY(), spec.outX()});
    eo.fillUniform(rng);
    eo.sparsify(rng, 0.8);

    auto cached = makeEngine("sparse-cached");
    Tensor ei(Shape{2, spec.nc, spec.ny, spec.nx});
    cached->backwardData(spec, eo, w, ei, pool);  // caches the plan

    eo[0] += 1.0f;  // in-place mutation, same pointer and dims
    Tensor ei_ref(Shape{2, spec.nc, spec.ny, spec.nx});
    ReferenceEngine().backwardData(spec, eo, w, ei_ref, pool);
    cached->backwardData(spec, eo, w, ei, pool);
    EXPECT_TRUE(allClose(ei, ei_ref, 1e-3f, 1e-4f))
        << "stale sparse plan served after mutation";
    SparsePlanCache::global().clear();
}

TEST(ConvEngines, StencilAblationVariantsMatchReference)
{
    // Fixed 1-row tiles and disabled stride transform must stay
    // correct (they are only slower).
    ConvSpec spec{16, 16, 3, 4, 5, 5, 2, 2};
    Rng rng(7);
    ThreadPool pool(2);
    Tensor in(Shape{2, spec.nc, spec.ny, spec.nx});
    Tensor w(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
    in.fillUniform(rng);
    w.fillUniform(rng);
    Tensor ref_out(Shape{2, spec.nf, spec.outY(), spec.outX()});
    ReferenceEngine().forward(spec, in, w, ref_out, pool);

    for (int fixed_ry : {0, 1, 4}) {
        for (bool xform : {true, false}) {
            StencilEngine eng(fixed_ry, xform);
            Tensor out(Shape{2, spec.nf, spec.outY(), spec.outX()});
            eng.forward(spec, in, w, out, pool);
            EXPECT_TRUE(allClose(out, ref_out, 1e-3f, 1e-4f))
                << "ry=" << fixed_ry << " xform=" << xform;
        }
    }
}

TEST(ConvEngines, SparseTileWidthVariantsMatchReference)
{
    ConvSpec spec{12, 12, 4, 32, 3, 3, 1, 1};
    Rng rng(8);
    ThreadPool pool(2);
    Tensor w(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
    w.fillUniform(rng);
    Tensor eo(Shape{1, spec.nf, spec.outY(), spec.outX()});
    eo.fillUniform(rng);
    eo.sparsify(rng, 0.9);
    Tensor ei_ref(Shape{1, spec.nc, spec.ny, spec.nx});
    ReferenceEngine().backwardData(spec, eo, w, ei_ref, pool);

    for (std::int64_t tile : {1, 8, 32, 1000}) {
        SparseBpEngine eng(tile);
        Tensor ei(Shape{1, spec.nc, spec.ny, spec.nx});
        eng.backwardData(spec, eo, w, ei, pool);
        EXPECT_TRUE(allClose(ei, ei_ref, 1e-3f, 1e-4f)) << "tile=" << tile;
    }
}

TEST(ConvEngines, FullySparseErrorsYieldZeroGradients)
{
    ConvSpec spec{10, 10, 2, 3, 3, 3, 1, 1};
    ThreadPool pool(2);
    Rng rng(9);
    Tensor w(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
    w.fillUniform(rng);
    Tensor in(Shape{1, spec.nc, spec.ny, spec.nx});
    in.fillUniform(rng);
    Tensor eo(Shape{1, spec.nf, spec.outY(), spec.outX()});  // all zero

    SparseBpEngine eng;
    Tensor ei(Shape{1, spec.nc, spec.ny, spec.nx});
    ei.fill(123.0f);  // must be overwritten
    eng.backwardData(spec, eo, w, ei, pool);
    EXPECT_EQ(ei.maxAbs(), 0.0f);

    Tensor dw(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
    dw.fill(321.0f);
    eng.backwardWeights(spec, eo, in, dw, pool);
    EXPECT_EQ(dw.maxAbs(), 0.0f);
}

TEST(ConvEngines, BackwardWeightsRepeatsBitForBitUnderWorkStealing)
{
    // Batch-parallel engines sum per-chunk partial gradients; the sum
    // must not depend on which worker claimed which images, so many
    // calls on one pool (with a batch that does not divide evenly
    // into the threads) give identical bits.
    ConvSpec spec{9, 9, 3, 4, 3, 3, 1, 1};
    constexpr std::int64_t kBatch = 7;
    ThreadPool pool(4);
    Rng rng(10);
    Tensor in(Shape{kBatch, spec.nc, spec.ny, spec.nx});
    Tensor eo(Shape{kBatch, spec.nf, spec.outY(), spec.outX()});
    in.fillUniform(rng);
    eo.fillUniform(rng);
    eo.sparsify(rng, 0.5);

    for (const auto &engine : makeExtendedEngines()) {
        if (!engine->supports(Phase::BackwardWeights) ||
            !engine->supportsGeometry(spec)) {
            continue;
        }
        Tensor first(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
        engine->backwardWeights(spec, eo, in, first, pool);
        for (int rep = 0; rep < 50; ++rep) {
            Tensor dw(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
            engine->backwardWeights(spec, eo, in, dw, pool);
            for (std::int64_t i = 0; i < dw.size(); ++i) {
                ASSERT_EQ(dw.data()[i], first.data()[i])
                    << engine->name() << " rep " << rep << " index " << i;
            }
        }
    }
    SparsePlanCache::global().invalidate(eo.data());
}

TEST(ConvSpecModel, Table1AitValues)
{
    // Paper Table 1: intrinsic AIT and Unfold+GEMM AIT for the six
    // characterization convolutions (values rounded in the paper).
    struct Row
    {
        ConvSpec spec;
        double intrinsic, unfold;
    };
    // <N, Nf, Nc, F> with unit stride.
    const Row rows[] = {
        {ConvSpec::square(32, 32, 32, 4), 362, 25},
        {ConvSpec::square(64, 1024, 512, 2), 2015, 725},
        {ConvSpec::square(256, 256, 128, 3), 1510, 226},
        {ConvSpec::square(128, 128, 64, 7), 3561, 113},
        {ConvSpec::square(128, 512, 256, 5), 6567, 456},
        {ConvSpec::square(64, 64, 16, 11), 1921, 44},
    };
    for (const auto &row : rows) {
        // Intrinsic AIT reproduces the paper's table to rounding.
        EXPECT_NEAR(row.spec.intrinsicAit() / row.intrinsic, 1.0, 0.01)
            << row.spec.str();
        // The paper's table computed |U| with the INPUT spatial size
        // (Nx*Ny) although its stated formula uses the output size;
        // we follow the stated formula, which is up to ~40% higher
        // for large kernels. Accept [1.0, 1.45] x table value.
        double ratio = row.spec.unfoldAit() / row.unfold;
        EXPECT_GE(ratio, 0.95) << row.spec.str();
        EXPECT_LE(ratio, 1.45) << row.spec.str();
    }
}

TEST(ConvSpecModel, UnfoldRatioLimits)
{
    // Kernel == input: convolution IS a matrix multiply, r ~= 1.
    ConvSpec full = ConvSpec::square(8, 16, 4, 8);
    EXPECT_GT(full.unfoldRatio(), 0.5);
    // Large feature count: weights dominate, r -> 1.
    ConvSpec wide = ConvSpec::square(16, 4096, 8, 3);
    EXPECT_GT(wide.unfoldRatio(), 0.8);
    // Small kernel on big image with few features: unfolding hurts.
    ConvSpec small = ConvSpec::square(128, 8, 8, 5);
    EXPECT_LT(small.unfoldRatio(), 0.2);
}

TEST(ConvSpecModel, GeometryHelpers)
{
    ConvSpec s{11, 9, 3, 5, 3, 2, 2, 1};
    EXPECT_EQ(s.outX(), (11 - 3) / 2 + 1);
    EXPECT_EQ(s.outY(), (9 - 2) / 1 + 1);
    EXPECT_EQ(s.inputElems(), 11 * 9 * 3);
    EXPECT_EQ(s.weightElems(), 5 * 3 * 3 * 2);
    EXPECT_EQ(s.outputElems(), 5 * s.outY() * s.outX());
    EXPECT_EQ(s.flops(), 2 * 5 * s.outY() * s.outX() * 3 * 2 * 3);
    EXPECT_TRUE(s.valid());
    EXPECT_FALSE((ConvSpec{0, 1, 1, 1, 1, 1, 1, 1}).valid());
    EXPECT_FALSE((ConvSpec{4, 4, 1, 1, 5, 5, 1, 1}).valid());
}

} // namespace
} // namespace spg
