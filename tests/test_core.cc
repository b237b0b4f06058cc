/**
 * @file
 * Tests for the spg-CNN core: the network-description parser and the
 * engine tuner/scheduler.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/net_config.hh"
#include "core/tuner.hh"
#include "data/suites.hh"
#include "sparse/sparse_plan.hh"

namespace spg {
namespace {

TEST(NetConfig, ParsesFullDescription)
{
    NetConfig config = parseNetConfig(cifar10NetConfigText());
    EXPECT_EQ(config.name, "cifar10");
    EXPECT_EQ(config.channels, 3);
    EXPECT_EQ(config.height, 36);
    EXPECT_EQ(config.width, 36);
    EXPECT_EQ(config.classes, 10);
    ASSERT_EQ(config.layers.size(), 8u);
    EXPECT_EQ(config.layers[0].kind, LayerKind::Conv);
    EXPECT_EQ(config.layers[0].features, 64);
    EXPECT_EQ(config.layers[0].kernel, 5);
    EXPECT_EQ(config.layers[0].name, "conv0");
    EXPECT_EQ(config.layers[2].kind, LayerKind::MaxPool);
    EXPECT_EQ(config.layers[2].stride, 4);
    EXPECT_EQ(config.layers[6].kind, LayerKind::Fc);
    EXPECT_EQ(config.layers[6].outputs, 10);
    EXPECT_EQ(config.layers[7].kind, LayerKind::Softmax);
}

TEST(NetConfig, CommentsAndWhitespace)
{
    NetConfig config = parseNetConfig(R"(
        # a comment
        name: "tiny"   # trailing comment
        input { channels: 1 height: 8 width: 8 }
        layer { type: conv features: 2 kernel: 3 }
    )");
    EXPECT_EQ(config.name, "tiny");
    ASSERT_EQ(config.layers.size(), 1u);
}

TEST(NetConfig, RoundTripsThroughRender)
{
    NetConfig config = parseNetConfig(mnistNetConfigText());
    std::string rendered = renderNetConfig(config);
    NetConfig again = parseNetConfig(rendered);
    EXPECT_EQ(again.name, config.name);
    EXPECT_EQ(again.layers.size(), config.layers.size());
    for (std::size_t i = 0; i < config.layers.size(); ++i) {
        EXPECT_EQ(again.layers[i].kind, config.layers[i].kind) << i;
        EXPECT_EQ(again.layers[i].features, config.layers[i].features);
        EXPECT_EQ(again.layers[i].kernel, config.layers[i].kernel);
        EXPECT_EQ(again.layers[i].stride, config.layers[i].stride);
    }
}

TEST(NetConfigDeath, RejectsMalformedInput)
{
    EXPECT_DEATH(parseNetConfig("layer { type: conv }"),
                 "input block missing");
    EXPECT_DEATH(parseNetConfig("input { channels: 1 height: 4 width: 4 "
                                "} layer { type: warp }"),
                 "unknown layer type");
    EXPECT_DEATH(parseNetConfig("input { channels: x height: 4 width: 4 "
                                "} layer { type: relu }"),
                 "expects an integer");
    EXPECT_DEATH(parseNetConfig("bogus: 3"), "unexpected token");
    EXPECT_DEATH(parseNetConfig("input { channels: 1 height: 4 width: 4 "
                                "}"),
                 "no layers");
}

TEST(Tuner, PicksSupportedEnginesForEveryPhase)
{
    TunerOptions opts;
    opts.reps = 1;
    opts.batch = 2;
    Tuner tuner(opts);
    ThreadPool pool(2);
    ConvSpec spec{12, 12, 3, 8, 3, 3, 1, 1};
    LayerPlan plan = tuner.tune(spec, 0.9, pool);

    EXPECT_FALSE(plan.fp_engine.empty());
    EXPECT_FALSE(plan.bp_data_engine.empty());
    EXPECT_FALSE(plan.bp_weights_engine.empty());
    EXPECT_NE(plan.fp_engine, "sparse-cached"); // sparse is BP-only
    EXPECT_DOUBLE_EQ(plan.tuned_sparsity, 0.9);

    // FP candidates: parallel-gemm, gemm-in-parallel and direct.
    EXPECT_EQ(plan.timings.at(Phase::Forward).size(), 3u);
    // BP candidates: parallel-gemm, gemm-in-parallel, direct, and
    // sparse-cached.
    EXPECT_EQ(plan.timings.at(Phase::BackwardData).size(), 4u);
    EXPECT_EQ(plan.timings.at(Phase::BackwardWeights).size(), 4u);
    for (const auto &[phase, timings] : plan.timings) {
        for (const auto &timing : timings)
            EXPECT_GT(timing.seconds, 0.0) << phaseName(phase);
    }
}

TEST(Tuner, ChoiceIsFastestMeasured)
{
    TunerOptions opts;
    opts.reps = 2;
    opts.batch = 2;
    Tuner tuner(opts);
    ThreadPool pool(1);
    ConvSpec spec{10, 10, 2, 4, 3, 3, 1, 1};
    LayerPlan plan = tuner.tune(spec, 0.5, pool);
    for (Phase phase :
         {Phase::Forward, Phase::BackwardData, Phase::BackwardWeights}) {
        const auto &timings = plan.timings.at(phase);
        double best = 1e30;
        std::string best_name;
        for (const auto &t : timings) {
            if (t.seconds < best) {
                best = t.seconds;
                best_name = t.engine;
            }
        }
        EXPECT_EQ(plan.enginesFor(phase), best_name) << phaseName(phase);
    }
}

TEST(Tuner, RetunePolicy)
{
    TunerOptions opts;
    opts.retune_interval = 2;
    opts.sparsity_drift = 0.1;
    Tuner tuner(opts);
    LayerPlan plan;
    plan.tuned_sparsity = 0.5;
    // Periodic re-tune on the interval.
    EXPECT_TRUE(tuner.shouldRetune(plan, 0.5, 2));
    EXPECT_FALSE(tuner.shouldRetune(plan, 0.5, 3));
    // Drift-triggered re-tune regardless of the epoch.
    EXPECT_TRUE(tuner.shouldRetune(plan, 0.75, 3));
    EXPECT_FALSE(tuner.shouldRetune(plan, 0.55, 1));
}

TEST(Tuner, RecordsScheduleTelemetry)
{
    TunerOptions opts;
    opts.reps = 1;
    opts.batch = 2;
    Tuner tuner(opts);
    ThreadPool pool(2);
    ConvSpec spec{10, 10, 2, 4, 3, 3, 1, 1};
    LayerPlan plan = tuner.tune(spec, 0.5, pool);
    for (const auto &[phase, timings] : plan.timings) {
        for (const auto &t : timings) {
            EXPECT_GE(t.imbalance, 1.0)
                << phaseName(phase) << " " << t.engine;
            ASSERT_EQ(t.chunk_map.size(),
                      static_cast<std::size_t>(pool.threads()))
                << phaseName(phase) << " " << t.engine;
            std::int64_t items = 0;
            for (std::int64_t c : t.chunk_map)
                items += c;
            // The image-parallel engines dispatch one region per
            // batch, so their measurements must record a schedule;
            // parallel-gemm may run a tiny MM without the pool.
            if (t.engine.find("in-parallel") != std::string::npos ||
                t.engine.find("sparse") != std::string::npos) {
                EXPECT_GT(items, 0)
                    << phaseName(phase) << " " << t.engine;
            }
        }
    }
}

TEST(Tuner, RetuneBpCarriesFpForward)
{
    TunerOptions opts;
    opts.reps = 1;
    opts.batch = 2;
    Tuner tuner(opts);
    ThreadPool pool(2);
    ConvSpec spec{12, 12, 3, 8, 3, 3, 1, 1};
    LayerPlan first = tuner.tune(spec, 0.0, pool);
    LayerPlan re = tuner.retuneBp(first, spec, 0.9, pool);

    // FP choice and measurements are carried forward, not re-measured.
    EXPECT_EQ(re.fp_engine, first.fp_engine);
    const auto &fp0 = first.timings.at(Phase::Forward);
    const auto &fp1 = re.timings.at(Phase::Forward);
    ASSERT_EQ(fp1.size(), fp0.size());
    for (std::size_t i = 0; i < fp0.size(); ++i) {
        EXPECT_EQ(fp1[i].engine, fp0[i].engine);
        EXPECT_DOUBLE_EQ(fp1[i].seconds, fp0[i].seconds);
    }

    // The BP phases ARE re-measured at the observed sparsity.
    EXPECT_DOUBLE_EQ(re.tuned_sparsity, 0.9);
    EXPECT_FALSE(re.bp_data_engine.empty());
    EXPECT_EQ(re.timings.at(Phase::BackwardData).size(),
              first.timings.at(Phase::BackwardData).size());
    EXPECT_EQ(re.timings.at(Phase::BackwardWeights).size(),
              first.timings.at(Phase::BackwardWeights).size());
}

TEST(Tuner, LeavesNoSparsePlansBehind)
{
    // The sparse BP measurements encode CT-CSR plans of the tuner's
    // own synthetic EO; once that tensor is freed nothing can hit or
    // replace them, so the tuner must drop them itself.
    TunerOptions opts;
    opts.reps = 1;
    opts.batch = 2;
    Tuner tuner(opts);
    ThreadPool pool(2);
    ConvSpec spec{12, 12, 3, 8, 3, 3, 1, 1};
    SparsePlanCache &plans = SparsePlanCache::global();
    plans.clear();
    for (bool fused_relu : {false, true}) {
        std::int64_t encodes = plans.stats().encodes;
        LayerPlan plan = tuner.tune(spec, 0.9, pool, fused_relu);
        EXPECT_GT(plans.stats().encodes, encodes) << fused_relu;
        EXPECT_EQ(plans.size(), 0u) << "tune, fused " << fused_relu;

        encodes = plans.stats().encodes;
        tuner.retuneBp(plan, spec, 0.8, pool, fused_relu);
        EXPECT_GT(plans.stats().encodes, encodes) << fused_relu;
        EXPECT_EQ(plans.size(), 0u) << "retuneBp, fused " << fused_relu;
    }
}

TEST(Tuner, ExtensionsRespectGeometryGates)
{
    TunerOptions opts;
    opts.reps = 1;
    opts.batch = 2;
    opts.use_extensions = true;
    Tuner tuner(opts);
    ThreadPool pool(1);

    auto fp_engines = [&](const ConvSpec &spec) {
        LayerPlan plan = tuner.tune(spec, 0.0, pool);
        std::vector<std::string> names;
        for (const auto &t : plan.timings.at(Phase::Forward))
            names.push_back(t.engine);
        return names;
    };

    // 3x3 stride-1: winograd is a candidate.
    auto on3x3 = fp_engines(ConvSpec{10, 10, 2, 3, 3, 3, 1, 1});
    EXPECT_NE(std::find(on3x3.begin(), on3x3.end(), "winograd"),
              on3x3.end());
    EXPECT_NE(std::find(on3x3.begin(), on3x3.end(),
                        "sparse-weights-direct"),
              on3x3.end());

    // 5x5: winograd must be skipped; the ungated extension stays.
    auto on5x5 = fp_engines(ConvSpec{10, 10, 2, 3, 5, 5, 1, 1});
    EXPECT_EQ(std::find(on5x5.begin(), on5x5.end(), "winograd"),
              on5x5.end());
    EXPECT_NE(std::find(on5x5.begin(), on5x5.end(),
                        "sparse-weights-direct"),
              on5x5.end());
}

TEST(Suites, Table2GeometriesAreValid)
{
    EXPECT_EQ(table2Layers().size(), 12u);
    for (const auto &entry : table2Layers()) {
        EXPECT_TRUE(entry.spec.valid())
            << entry.benchmark << " L" << entry.layer;
    }
    EXPECT_EQ(table2Layers("MNIST").size(), 1u);
    EXPECT_EQ(table2Layers("ImageNet-22K").size(), 5u);
    EXPECT_DEATH(table2Layers("nope"), "unknown Table 2 benchmark");
}

TEST(Suites, Table1SpecsAreValid)
{
    EXPECT_EQ(table1Convolutions().size(), 6u);
    for (const auto &entry : table1Convolutions())
        EXPECT_TRUE(entry.spec.valid()) << entry.id;
}

} // namespace
} // namespace spg
