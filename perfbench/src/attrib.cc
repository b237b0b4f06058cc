/**
 * @file
 * Layer-by-layer attribution of a training network, from outside:
 * Network::trainStep for the whole step, a replay through each
 * Layer::forward/backward/update on benchmark-owned NCHW buffers, and
 * the deployed ConvEngines (plus sparse-cached) called directly on the
 * replay's own tensors, epilogue and mask.
 */

#include <map>
#include <memory>
#include <numeric>

#include "conv/engines.hh"
#include "core/tuner.hh"
#include "sparse/sparse_plan.hh"
#include "stats.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using spg::ConvLayer;
using spg::Tensor;

constexpr int kReps = 30;          ///< interleaved step/replay rounds
constexpr int kScalingReps = 8;    ///< 1-thread steps for the scaling

/** Layers reported by name; a network without one reports it as 0. */
const std::vector<std::string> kLayers = {"conv0", "pool0", "conv1",
                                          "pool1", "fc0",   "softmax"};
const std::vector<std::string> kConvs = {"conv0", "conv1"};

/** conv layers keep their config label; the rest are numbered by kind. */
std::vector<std::string>
layerLabels(Network &net)
{
    std::vector<std::string> labels;
    std::map<std::string, int> seen;
    for (std::size_t i = 0; i < net.layerCount(); ++i) {
        spg::Layer &layer = net.layer(i);
        std::string kind = layer.name();
        if (dynamic_cast<ConvLayer *>(&layer)) {
            labels.push_back(kind.substr(0, kind.find(' ')));
            continue;
        }
        if (dynamic_cast<spg::PoolLayer *>(&layer))
            kind = "pool";
        else if (dynamic_cast<spg::FcLayer *>(&layer))
            kind = "fc";
        else if (dynamic_cast<spg::SoftmaxLayer *>(&layer)) {
            labels.push_back("softmax");
            continue;
        }
        labels.push_back(kind + std::to_string(seen[kind]++));
    }
    return labels;
}

Tensor
batchTensor(const spg::Geometry &g)
{
    return Tensor(spg::Shape{kBatch, g.c, g.h, g.w});
}

/** Engines by name, made once through the public registry. */
const spg::ConvEngine &
engine(const std::string &name)
{
    static std::map<std::string, std::unique_ptr<spg::ConvEngine>> cache;
    auto &slot = cache[name];
    if (!slot)
        slot = spg::makeEngine(name);
    if (!slot)
        spg::fatal("perfbench: no conv engine named '%s'", name.c_str());
    return *slot;
}

/** Samples of one timed quantity, keyed by metric name. */
using Samples = std::map<std::string, std::vector<double>>;

} // namespace

void
attributeLayers(Network &net, const Dataset &data,
                const TrainerOptions &opts, bool deploy,
                std::uint64_t seed, spg::ThreadPool &pool, Report &report)
{
    auto convs = net.convLayers();
    Spans &spans = report.spans();
    Samples t;
    // Time fn as a span under parent; its ms is a sample of <name>_ms.
    auto timed = [&](const std::string &name, int parent, auto &&fn) {
        t[name + "_ms"].push_back(spans.time(name, parent, fn));
    };

    // core: the tuner over every conv layer, as Trainer::run's initial
    // tune runs it, and the serving tuner as Server::warmup runs it.
    spg::Tuner tuner(opts.tuner);
    std::vector<spg::LayerPlan> plans;
    timed("core.tune", -1, [&] {
        for (ConvLayer *conv : convs)
            plans.push_back(tuner.tune(conv->spec(), 0.0, pool,
                                       conv->fusedRelu(),
                                       conv->weightSparsity()));
    });
    std::int64_t candidates = 0;
    for (const spg::LayerPlan &plan : plans)
        for (const auto &[phase, timings] : plan.timings)
            candidates += static_cast<std::int64_t>(timings.size());
    if (deploy)
        for (std::size_t i = 0; i < convs.size(); ++i)
            convs[i]->setEngines(spg::EngineAssignment{
                plans[i].fp_engine, plans[i].bp_data_engine,
                plans[i].bp_weights_engine});
    {
        spg::ThreadPool one(1);
        spg::TunerOptions serving;
        serving.reps = 3;
        spg::Tuner stuner(serving);
        timed("core.tune_serving", -1, [&] {
            for (ConvLayer *conv : convs)
                stuner.tuneServing(conv->spec(), 8, one, conv->fusedRelu(),
                                   conv->weightSparsity());
        });
    }
    for (ConvLayer *conv : convs) {
        std::string label = conv->name().substr(0, conv->name().find(' '));
        report.note("attributed " + label + " engines: fp " +
                    conv->engines().fp + ", bpd " + conv->engines().bp_data +
                    ", bpw " + conv->engines().bp_weights);
    }

    // data: the minibatches, filled the way Trainer::run fills them.
    std::vector<std::int64_t> order(static_cast<std::size_t>(data.count()));
    std::iota(order.begin(), order.end(), 0);
    spg::Rng rng(seed);
    for (std::size_t i = order.size(); i-- > 1;)
        std::swap(order[i], order[rng.below(i + 1)]);
    const std::int64_t per_epoch = data.count() / kBatch;
    std::vector<Tensor> batches;
    std::vector<std::vector<int>> labels(kReps);
    for (int r = 0; r < kReps; ++r) {
        batches.push_back(batchTensor(net.inputGeometry()));
        timed("data.fill", -1, [&] {
            data.fillBatch(order, (r % per_epoch) * kBatch, kBatch,
                           batches.back(), labels[r]);
        });
    }

    // Replay buffers: acts[i] is layer i's output, errs[i] the error
    // w.r.t. its input, all plain NCHW and owned here.
    const std::vector<std::string> names = layerLabels(net);
    const std::size_t L = net.layerCount();
    std::vector<Tensor> acts, errs;
    for (std::size_t i = 0; i < L; ++i) {
        acts.push_back(batchTensor(net.layer(i).outputGeometry()));
        errs.push_back(batchTensor(net.layer(i).inputGeometry()));
    }
    Tensor head_eo = batchTensor(net.layer(L - 1).outputGeometry());
    auto *head = dynamic_cast<spg::SoftmaxLayer *>(&net.layer(L - 1));
    SPG_ASSERT(head != nullptr);

    // Direct-call buffers per conv layer.
    struct Direct
    {
        std::size_t index;   ///< layer index in the network
        ConvLayer *conv;
        Tensor out, ei, dw;
        std::vector<std::uint8_t> mask;
    };
    std::vector<Direct> direct;
    for (std::size_t i = 0; i < L; ++i) {
        auto *conv = dynamic_cast<ConvLayer *>(&net.layer(i));
        if (!conv)
            continue;
        const spg::ConvSpec &s = conv->spec();
        direct.push_back(Direct{
            i, conv, batchTensor(conv->outputGeometry()),
            batchTensor(conv->inputGeometry()),
            Tensor(spg::Shape{s.nf, s.nc, s.fy, s.fx}),
            std::vector<std::uint8_t>(
                static_cast<std::size_t>(kBatch * s.outputElems()))});
    }
    const spg::ConvEngine &sparse = engine("sparse-cached");
    spg::SparsePlanCache &plan_cache = spg::SparsePlanCache::global();

    std::int64_t steals = 0, plan_hits = 0, plan_encodes = 0;
    for (int r = 0; r < kReps; ++r) {
        const int round = spans.begin("round");
        // The whole step, as Trainer::run takes it.
        spg::PoolStats pool0 = pool.stats();
        spg::SparsePlanCache::Stats plan0 = plan_cache.stats();
        timed("nn.step", round, [&] {
            net.trainStep(batches[r], labels[r], opts.learning_rate, pool);
        });
        spg::PoolStats step_pool = pool.stats().delta(pool0);
        t["threading.imbalance"].push_back(step_pool.imbalance());
        for (const spg::PoolStats::Worker &w : step_pool.workers)
            steals += static_cast<std::int64_t>(w.steals);
        plan_hits += plan_cache.stats().hits - plan0.hits;
        plan_encodes += plan_cache.stats().encodes - plan0.encodes;

        // Replay: FP, BP, then (after the direct calls) the update.
        const int replay = spans.begin("replay", round);
        head->setLabels(labels[r]);
        for (std::size_t i = 0; i < L; ++i) {
            const Tensor &in = i ? acts[i - 1] : batches[r];
            timed("nn." + names[i] + ".fwd", replay,
                  [&] { net.layer(i).forward(in, acts[i], pool); });
        }
        for (std::size_t i = L; i-- > 0;) {
            const Tensor &in = i ? acts[i - 1] : batches[r];
            const Tensor &eo = i + 1 < L ? errs[i + 1] : head_eo;
            timed("nn." + names[i] + ".bwd", replay, [&] {
                net.layer(i).backward(in, acts[i], eo, errs[i], pool);
            });
        }
        spans.end(replay);

        const int calls = spans.begin("direct", round);
        for (Direct &d : direct) {
            const std::string &label = names[d.index];
            const spg::ConvSpec &s = d.conv->spec();
            const Tensor &in = d.index ? acts[d.index - 1] : batches[r];
            const Tensor &eo = errs[d.index + 1];
            t["sparse." + label + ".eo_sparsity"].push_back(
                d.conv->lastErrorSparsity());
            spg::Epilogue epi;
            spg::BpMask mask;
            if (d.conv->fusedRelu()) {
                epi = spg::Epilogue{spg::Epilogue::Kind::ReluMask,
                                    d.mask.data()};
                mask.mask = d.mask.data();
            }
            // Weights are fresh after every SGD update, so FP pays any
            // packing it pays in training.
            d.conv->paramsUpdated();
            const spg::EngineAssignment &e = d.conv->engines();
            const spg::Tensor &w = d.conv->weights();
            timed("conv." + label + ".fp", calls, [&] {
                engine(e.fp).forward(s, in, w, d.out, pool, epi);
            });
            timed("conv." + label + ".bpd", calls, [&] {
                engine(e.bp_data).backwardData(s, eo, w, d.ei, pool, mask);
            });
            timed("conv." + label + ".bpw", calls, [&] {
                engine(e.bp_weights).backwardWeights(s, eo, in, d.dw, pool,
                                                     mask);
            });

            // sparse-cached at the sparsity this step really has: one
            // encode (timed by the plan cache) shared by both phases.
            plan_cache.invalidate(eo.data());
            spg::SparsePlanCache::Stats c0 = plan_cache.stats();
            double bpd = spans.time("sparse." + label + ".bpd", calls, [&] {
                sparse.backwardData(s, eo, w, d.ei, pool, mask);
            });
            spg::SparsePlanCache::Stats c1 = plan_cache.stats();
            double bpw = spans.time("sparse." + label + ".bpw", calls, [&] {
                sparse.backwardWeights(s, eo, in, d.dw, pool, mask);
            });
            spg::SparsePlanCache::Stats c2 = plan_cache.stats();
            double enc_bpd = (c1.encode_seconds - c0.encode_seconds) * 1e3;
            double enc_bpw = (c2.encode_seconds - c1.encode_seconds) * 1e3;
            t["sparse." + label + ".bpd_ms"].push_back(bpd - enc_bpd);
            t["sparse." + label + ".bpw_ms"].push_back(bpw - enc_bpw);
            t["sparse." + label + ".encode_ms"].push_back(enc_bpd + enc_bpw);
        }

        spans.end(calls);

        const int update = spans.begin("update", round);
        for (std::size_t i = 0; i < L; ++i) {
            if (net.layer(i).hasParams())
                timed("nn." + names[i] + ".upd", update,
                      [&] { net.layer(i).update(opts.learning_rate); });
        }
        spans.end(update);
        spans.end(round);
    }

    // threading: the same steps on a 1-thread pool.
    {
        spg::ThreadPool one(1);
        for (int r = 0; r < kScalingReps; ++r)
            timed("nn.step_1thread", -1, [&] {
                net.trainStep(batches[r], labels[r], opts.learning_rate, one);
            });
    }

    auto med = [&](const std::string &name) {
        auto it = t.find(name);
        return it == t.end() ? 0.0 : median(it->second);
    };
    const double step_ms = med("nn.step_ms");
    std::vector<double> parts;
    for (const std::string &name : names)
        for (const char *phase : {".fwd_ms", ".bwd_ms", ".upd_ms"})
            parts.push_back(med("nn." + name + phase));

    report.metric("nn.step_ms", step_ms, "ms");
    for (const std::string &layer : kLayers) {
        report.metric("nn." + layer + ".fwd_ms", med("nn." + layer + ".fwd_ms"),
                      "ms");
        report.metric("nn." + layer + ".bwd_ms", med("nn." + layer + ".bwd_ms"),
                      "ms");
        if (layer.rfind("conv", 0) == 0 || layer.rfind("fc", 0) == 0)
            report.metric("nn." + layer + ".upd_ms",
                          med("nn." + layer + ".upd_ms"), "ms");
    }
    report.metric("nn.attributed_frac", attributedFrac(parts, step_ms), "1");
    report.metric("nn.arena_mib",
                  static_cast<double>(net.arenaBytes()) / (1024.0 * 1024.0),
                  "MiB");

    for (const std::string &conv : kConvs) {
        double flops = 0;
        for (const Direct &d : direct)
            if (names[d.index] == conv)
                flops = static_cast<double>(d.conv->spec().flops() * kBatch);
        double phase_sum = 0;
        for (const char *phase : {"fp", "bpd", "bpw"}) {
            double ms = med("conv." + conv + "." + phase + "_ms");
            report.metric("conv." + conv + "." + phase + "_ms", ms, "ms");
            report.metric("conv." + conv + "." + phase + "_gflops",
                          ms > 0 ? flops / (ms * 1e6) : 0.0, "GFLOP/s");
            if (phase[0] == 'b')
                phase_sum += ms;
        }
        report.metric("conv." + conv + ".bwd_self_ms",
                      flops > 0 ? med("nn." + conv + ".bwd_ms") - phase_sum
                                : 0.0,
                      "ms");
        report.metric("sparse." + conv + ".eo_sparsity",
                      med("sparse." + conv + ".eo_sparsity"), "1");
        for (const char *phase : {"bpd", "bpw", "encode"})
            report.metric("sparse." + conv + "." + phase + "_ms",
                          med("sparse." + conv + "." + phase + "_ms"), "ms");
    }
    report.metric("sparse.plan_hit_frac",
                  plan_hits + plan_encodes > 0
                      ? static_cast<double>(plan_hits) /
                            static_cast<double>(plan_hits + plan_encodes)
                      : 0.0,
                  "1");
    report.metric("core.tune_ms", med("core.tune_ms"), "ms");
    report.metric("core.candidates", static_cast<double>(candidates),
                  "count");
    report.metric("core.tune_serving_ms", med("core.tune_serving_ms"), "ms");
    report.metric("threading.imbalance", med("threading.imbalance"), "1");
    report.metric("threading.steals",
                  static_cast<double>(steals) / kReps, "count");
    report.metric("threading.scaling", med("nn.step_1thread_ms") / step_ms,
                  "1");
    report.metric("data.fill_ms", med("data.fill_ms"), "ms");
    report.metric("tensor.blocked_edges",
                  static_cast<double>(net.blockedEdgeCount()), "count");
}

} // namespace perfbench
