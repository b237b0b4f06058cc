/**
 * @file
 * train-cifar10 and train-mnist-prune: Trainer::run in Autotune mode on
 * a 3-thread pool, repeated on fresh data and weights until the run's
 * time is used, with correctness gates on every epoch.
 */

#include <algorithm>
#include <cmath>
#include <memory>

#include "data/suites.hh"
#include "nn/pruning.hh"
#include "stats.hh"
#include "workloads.hh"

namespace perfbench {

NetConfig
netConfig(const std::string &net)
{
    return spg::parseNetConfig(net == "mnist" ? spg::mnistNetConfigText()
                                              : spg::cifar10NetConfigText());
}

Dataset
makeData(const std::string &net, std::int64_t images, std::uint64_t seed)
{
    return net == "mnist" ? spg::makeMnistLike(images, seed)
                          : spg::makeCifarLike(images, seed);
}

TrainerOptions
trainerOptions(const TrainSpec &spec, std::uint64_t seed)
{
    TrainerOptions o;
    o.epochs = kEpochs;
    o.batch = kBatch;
    o.learning_rate = spec.lr;
    o.shuffle_seed = seed;
    o.mode = TrainerOptions::Mode::Autotune;
    o.tuner.use_extensions = spec.extensions;
    o.log_epochs = false;
    if (!spec.prune.empty())
        o.prune = spg::parsePruneSchedule(spec.prune);
    return o;
}

namespace {

/** Minimum Trainer::run calls per run, however short --seconds is. */
constexpr int kMinCalls = 5;

std::string
convLabel(std::size_t i)
{
    return "conv" + std::to_string(i);
}

/**
 * Gate one epoch: finite loss, no conv layer with every error zero
 * (a dead network), and, for the last epoch, accuracy over the floor.
 */
void
gateEpoch(const spg::EpochStats &e, bool last, double acc_floor,
          Report &report)
{
    bool ok = std::isfinite(e.mean_loss);
    std::string what = "epoch " + std::to_string(e.epoch) + ": loss " +
                       std::to_string(e.mean_loss) + ", acc " +
                       std::to_string(e.accuracy);
    if (last) {
        ok = ok && e.accuracy >= acc_floor;
        what += " (floor " + std::to_string(acc_floor) + ")";
    }
    for (std::size_t i = 0; i < e.conv_error_sparsity.size(); ++i) {
        ok = ok && e.conv_error_sparsity[i] < 1.0;
        what += ", " + convLabel(i) + " error sparsity " +
                std::to_string(e.conv_error_sparsity[i]);
    }
    report.check(ok, what);
}

} // namespace

void
runTrain(const TrainSpec &spec, const Args &args, Report &report)
{
    const NetConfig config = netConfig(spec.net);
    Spans &spans = report.spans();
    std::vector<double> setup_s, img_s, step_ms, last_acc, last_loss;
    double rss_first = 0;
    auto pool = std::make_unique<spg::ThreadPool>(kThreads);
    std::unique_ptr<Network> net;
    Dataset data;
    std::uint64_t seed = args.seed;
    // The call count follows --seconds through a nominal per-call time,
    // not the clock: a faster program must not run more calls, since
    // peak RSS grows with every call (see NOTES.md).
    const int calls =
        args.trace ? 1
                   : std::max(kMinCalls, static_cast<int>(std::lround(
                                             args.seconds / spec.call_s)));

    for (int call = 0; call < calls; ++call) {
        // Each call trains fresh weights on fresh data, both drawn from
        // the run's seed, so a run averages over several draws.
        seed = args.seed * 1000 + static_cast<std::uint64_t>(call);
        net.reset();
        const int span = spans.begin("call", -1);
        setup_s.push_back(1e-3 * spans.time("setup", span, [&] {
            data = makeData(spec.net, spec.images, seed);
            net = std::make_unique<Network>(config, seed);
        }));
        spg::Trainer trainer(*net, data, trainerOptions(spec, seed));
        std::vector<spg::EpochStats> history;
        const double wall = 1e-3 * spans.time("Trainer::run", span, [&] {
            history = trainer.run(*pool);
        });
        spans.end(span);

        const std::int64_t steps = data.count() / kBatch;
        img_s.push_back(static_cast<double>(steps * kBatch * kEpochs) / wall);
        for (const spg::EpochStats &e : history) {
            gateEpoch(e, e.epoch + 1 == kEpochs, spec.acc_floor, report);
            step_ms.push_back(e.seconds / static_cast<double>(steps) * 1e3);
        }
        last_acc.push_back(history.back().accuracy);
        last_loss.push_back(history.back().mean_loss);
        if (call == 0)
            rss_first = peakRssMib();
        const spg::EpochStats &last = history.back();
        for (std::size_t i = 0; i < last.conv_engines.size(); ++i) {
            report.engine(convLabel(i) + ".fp", last.conv_engines[i].fp);
            report.engine(convLabel(i) + ".bpd",
                          last.conv_engines[i].bp_data);
            report.engine(convLabel(i) + ".bpw",
                          last.conv_engines[i].bp_weights);
        }
    }
    report.printEngines();
    report.info("calls", static_cast<double>(img_s.size()), "count");
    report.info("train_img_s", median(img_s), "img/s");
    report.info("train_img_s.min", *std::min_element(img_s.begin(), img_s.end()),
                "img/s");
    report.info("train_img_s.max", *std::max_element(img_s.begin(), img_s.end()),
                "img/s");
    report.distribution("step_ms", step_ms, "ms");
    report.info("train_loss", median(last_loss), "1");
    report.info("train_acc", median(last_acc), "1");
    report.info("train_acc.min",
                *std::min_element(last_acc.begin(), last_acc.end()), "1");

    if (args.trace) {
        attributeLayers(*net, data, trainerOptions(spec, seed),
                        /*deploy=*/false, seed, *pool, report);
        pool.reset();  // its workers must not run beside the servers
        ServeSpec serve;
        serve.probes = 1;
        serve.probe_requests = 1024;
        serve.low_s = 1.0;
        serve.high_s = 2.0;
        serve.rung_s = 0.4;
        serveSession(spec.net, serve, args.seed, /*trace=*/true, report);
        report.printEngines();
        return;
    }
    report.metric("setup_s", median(setup_s), "s");
    // Peak RSS grows with every further call (sparse plans of freed
    // tensors stay cached), so the gated figure is the peak after one
    // set-up and one Trainer::run; the growth is printed beside it.
    report.info("rss_growth_mib_per_call",
                (peakRssMib() - rss_first) / (calls - 1), "MiB");
    report.metric("rss_mib", rss_first, "MiB");
    report.metric("img_s", median(img_s), "img/s");
    report.metric("lat_p50_ms", median(step_ms), "ms");
}

} // namespace perfbench
