#include "distrib/data_parallel.hh"

#include <algorithm>
#include <numeric>

#include "util/logging.hh"
#include "util/random.hh"
#include "util/timer.hh"

namespace spg {

ScalingPoint
modelScaling(const StepProfile &prof, int workers, AllreduceAlgo algo,
             const ClusterLink &link, bool overlap, bool sparse,
             double batch_scale)
{
    SPG_ASSERT(workers >= 1 && prof.measured_workers >= 1);
    // Shard-size ratio: the measured run processed
    // global/measured_workers images per replica; the modeled one
    // processes batch_scale*global/workers. Compute and every bucket
    // ready offset scale with it (perfect compute scaling — the
    // honest part of this model is the communication).
    double f = batch_scale * (double)prof.measured_workers /
               (double)workers;

    std::vector<BucketTiming> timings;
    timings.reserve(prof.buckets.size());
    for (const StepProfile::Bucket &b : prof.buckets)
        timings.push_back(BucketTiming{
            b.label, b.ready_s * f,
            sparse ? b.wire_bytes : b.dense_bytes});
    double compute_end = prof.compute_end_s * f;

    ExchangeTimeline tl = simulateExchange(timings, compute_end, algo,
                                           workers, link, overlap);
    ScalingPoint pt;
    pt.workers = workers;
    pt.step_s = tl.stepSeconds();
    pt.comm_s = tl.commSeconds();
    pt.exposed_s = tl.exposedSeconds();
    pt.overlap_frac = tl.overlapFrac();
    // The K=1 baseline: the whole global batch on one worker, no
    // exchange at all.
    double single = prof.compute_end_s * batch_scale *
                    (double)prof.measured_workers;
    pt.speedup = pt.step_s > 0 ? single / pt.step_s : 1.0;
    return pt;
}

DataParallelTrainer::DataParallelTrainer(const NetConfig &config,
                                         std::uint64_t seed,
                                         const Dataset &dataset,
                                         DataParallelOptions options)
    : dataset(dataset), opts(options)
{
    if (opts.workers < 1)
        fatal("data-parallel training needs at least one worker");
    if (opts.global_batch % opts.workers != 0)
        fatal("global batch %lld is not divisible by %d workers",
              static_cast<long long>(opts.global_batch), opts.workers);
    if (dataset.count() < opts.global_batch)
        fatal("dataset has %lld samples but the global batch is %lld; "
              "shrink --global-batch or grow --dataset-size",
              static_cast<long long>(dataset.count()),
              static_cast<long long>(opts.global_batch));
    for (int w = 0; w < opts.workers; ++w) {
        // Same seed: replicas start with identical parameters.
        replicas.push_back(std::make_unique<Network>(config, seed));
    }
    opts.exchange.workers = opts.workers;
    exchanger_ = std::make_unique<ExchangeScheduler>(opts.exchange);
}

void
DataParallelTrainer::deployEngines(ThreadPool &pool)
{
    std::vector<ConvLayer *> convs = replicas[0]->convLayers();
    if (opts.tune) {
        // Tune once on replica 0's geometry; all replicas are
        // identical, so the plans transfer verbatim.
        Tuner tuner(opts.tuner);
        deployed_engines_.clear();
        for (ConvLayer *conv : convs) {
            LayerPlan plan =
                tuner.tune(conv->spec(), 0.0, pool, conv->fusedRelu(),
                           conv->weightSparsity(),
                           conv->computesInputGradient());
            deployed_engines_.push_back(
                EngineAssignment{plan.fp_engine, plan.bp_data_engine,
                                 plan.bp_weights_engine});
        }
    } else if (!opts.conv_engines.empty()) {
        if (opts.conv_engines.size() == 1) {
            deployed_engines_.assign(convs.size(),
                                     opts.conv_engines.front());
        } else if (opts.conv_engines.size() == convs.size()) {
            deployed_engines_ = opts.conv_engines;
        } else {
            fatal("got %zu engine plans for %zu conv layers",
                  opts.conv_engines.size(), convs.size());
        }
    } else {
        deployed_engines_.clear();
        for (ConvLayer *conv : convs)
            deployed_engines_.push_back(conv->engines());
    }

    for (auto &replica : replicas) {
        std::vector<ConvLayer *> rconvs = replica->convLayers();
        for (std::size_t i = 0; i < rconvs.size(); ++i)
            rconvs[i]->setEngines(deployed_engines_[i]);
    }
}

void
DataParallelTrainer::exchangeAndStep(
    ThreadPool &pool, const std::vector<Tensor> &shards,
    const std::vector<std::vector<int>> &shard_labels, double &loss,
    double &acc, ExchangeStats &stats)
{
    const std::size_t nlayers = replicas[0]->layerCount();
    loss = 0;
    acc = 0;

    // Run every replica's FP+BP, recording when each layer's gradient
    // became ready (offset from that replica's step start). The
    // replicas are sequential on this host, so the modeled bucket
    // ready time is the max across workers — the slowest replica.
    std::vector<std::vector<double>> ready(
        (std::size_t)opts.workers, std::vector<double>(nlayers, 0.0));
    double compute_end = 0;
    for (int w = 0; w < opts.workers; ++w) {
        std::vector<double> &wready = ready[(std::size_t)w];
        double wend = 0;
        StepStats s = replicas[w]->forwardBackward(
            shards[(std::size_t)w], shard_labels[(std::size_t)w], pool,
            [&](std::size_t layer_idx, Layer &, double ready_s) {
                wready[layer_idx] = ready_s;
                wend = std::max(wend, ready_s);
            });
        loss += s.loss;
        acc += s.accuracy;
        compute_end = std::max(compute_end, wend);
    }
    loss /= opts.workers;
    acc /= opts.workers;

    // Assemble the gradient buckets in BP-completion order (deepest
    // layer first) so bucket indices are stable across steps — the
    // compressor keys its error-feedback residuals on them.
    std::vector<GradBucket> buckets;
    for (std::size_t i = nlayers; i-- > 0;) {
        std::vector<Tensor *> grads0 = replicas[0]->layer(i).grads();
        for (std::size_t j = 0; j < grads0.size(); ++j) {
            GradBucket bucket;
            bucket.label = replicas[0]->layer(i).name() + ".g" +
                           std::to_string(j);
            bucket.params = grads0[j]->size();
            for (int w = 0; w < opts.workers; ++w) {
                Tensor *g = replicas[w]->layer(i).grads()[j];
                SPG_ASSERT(g->size() == bucket.params);
                bucket.worker_grads.push_back(g->data());
                bucket.ready_s = std::max(
                    bucket.ready_s, ready[(std::size_t)w][i]);
            }
            buckets.push_back(std::move(bucket));
        }
    }

    stats = exchanger_->exchange(buckets, compute_end);

    // Every replica applies the identical averaged gradient, keeping
    // parameters bit-identical across replicas.
    for (int w = 0; w < opts.workers; ++w)
        replicas[w]->applyUpdate(opts.learning_rate);

    // Fold this step into the mean profile for modelScaling().
    if (profile_.buckets.empty()) {
        for (const GradBucket &b : buckets)
            profile_.buckets.push_back(
                StepProfile::Bucket{b.label, 0, 0, 0});
    }
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        profile_.buckets[b].ready_s += buckets[b].ready_s;
        profile_.buckets[b].dense_bytes +=
            4.0 * (double)buckets[b].params;
    }
    // Wire bytes are only known per step in aggregate; apportion by
    // the timeline rows (same labels, possibly reordered by ready
    // time).
    for (const ExchangeTimeline::Row &row : stats.timeline.rows) {
        for (StepProfile::Bucket &pb : profile_.buckets) {
            if (pb.label == row.label) {
                pb.wire_bytes += row.bytes;
                break;
            }
        }
    }
    profile_.compute_end_s += compute_end;
    ++profiled_steps_;
}

std::vector<DataParallelEpoch>
DataParallelTrainer::run(ThreadPool &pool)
{
    deployEngines(pool);
    profile_ = StepProfile{};
    profile_.measured_workers = opts.workers;
    profile_.measured_global_batch = opts.global_batch;
    profiled_steps_ = 0;

    std::int64_t shard_size = opts.global_batch / opts.workers;
    std::vector<std::int64_t> order(dataset.count());
    std::iota(order.begin(), order.end(), 0);
    Rng shuffle_rng(opts.shuffle_seed);

    std::vector<DataParallelEpoch> history;
    for (int epoch = 0; epoch < opts.epochs; ++epoch) {
        if (opts.shuffle) {
            for (std::int64_t i = dataset.count() - 1; i > 0; --i) {
                std::int64_t j = static_cast<std::int64_t>(
                    shuffle_rng.below(i + 1));
                std::swap(order[i], order[j]);
            }
        }

        DataParallelEpoch stats;
        stats.epoch = epoch;
        double loss_sum = 0, acc_sum = 0;
        double ratio_sum = 0, overlap_sum = 0;
        double step_s_sum = 0, comm_s_sum = 0, exposed_s_sum = 0;
        std::int64_t steps = 0;
        Stopwatch watch;

        for (std::int64_t start = 0;
             start + opts.global_batch <= dataset.count();
             start += opts.global_batch) {
            std::vector<Tensor> shards;
            std::vector<std::vector<int>> labels(opts.workers);
            for (int w = 0; w < opts.workers; ++w) {
                Tensor shard(Shape{shard_size, dataset.channels,
                                   dataset.height, dataset.width});
                dataset.fillBatch(order, start + w * shard_size,
                                  shard_size, shard, labels[w]);
                shards.push_back(std::move(shard));
            }
            double loss = 0, acc = 0;
            ExchangeStats xstats;
            exchangeAndStep(pool, shards, labels, loss, acc, xstats);
            loss_sum += loss;
            acc_sum += acc;
            stats.wire_bytes += xstats.wire_bytes;
            stats.dense_bytes += xstats.dense_bytes;
            ratio_sum += xstats.compressionRatio();
            overlap_sum += xstats.timeline.overlapFrac();
            step_s_sum += xstats.timeline.stepSeconds();
            comm_s_sum += xstats.timeline.commSeconds();
            exposed_s_sum += xstats.timeline.exposedSeconds();
            ++steps;
        }
        SPG_ASSERT(steps > 0);
        stats.mean_loss = loss_sum / steps;
        stats.accuracy = acc_sum / steps;
        stats.compute_seconds = watch.seconds();
        stats.compression_ratio = ratio_sum / steps;
        stats.overlap_frac = overlap_sum / steps;
        stats.modeled_step_seconds = step_s_sum / steps;
        stats.modeled_comm_seconds = comm_s_sum / steps;
        stats.modeled_exposed_seconds = exposed_s_sum / steps;
        history.push_back(stats);
    }

    if (profiled_steps_ > 0) {
        double inv = 1.0 / (double)profiled_steps_;
        for (StepProfile::Bucket &b : profile_.buckets) {
            b.ready_s *= inv;
            b.wire_bytes *= inv;
            b.dense_bytes *= inv;
        }
        profile_.compute_end_s *= inv;
    }
    return history;
}

} // namespace spg
