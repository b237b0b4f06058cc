/**
 * @file
 * Sparsity study: watch the Sparse-Kernel opportunity appear during
 * real training (the paper's Fig. 3b phenomenon) and the scheduler
 * react to it (§4.4).
 *
 * Trains an MNIST-geometry model while printing, per epoch:
 *   - loss / accuracy,
 *   - the error-gradient sparsity each conv layer observed,
 *   - the engines the spg-CNN tuner has deployed for BP,
 *   - the measured speedup the sparse kernel gives at the observed
 *     sparsity on this machine.
 *
 * Run: ./build/examples/sparsity_study [--epochs N]
 */

#include <cstdio>

#include "conv/engines.hh"
#include "data/synthetic.hh"
#include "nn/trainer.hh"
#include "sparse/sparse_plan.hh"
#include "util/cli.hh"
#include "util/random.hh"
#include "util/timer.hh"

using namespace spg;

namespace {

/** Measured sparse-vs-dense BP speedup at a given sparsity. */
double
sparseSpeedupAt(const ConvSpec &spec, double sparsity, ThreadPool &pool)
{
    Rng rng(23);
    std::int64_t batch = 8;
    Tensor w(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
    Tensor eo(Shape{batch, spec.nf, spec.outY(), spec.outX()});
    Tensor ei(Shape{batch, spec.nc, spec.ny, spec.nx});
    w.fillUniform(rng);
    eo.fillUniform(rng);
    eo.sparsify(rng, sparsity);
    GemmInParallelEngine dense;
    SparseBpEngine sparse;
    double t_dense = bestTimeSeconds(2, [&] {
        dense.backwardData(spec, eo, w, ei, pool);
    });
    double t_sparse = bestTimeSeconds(2, [&] {
        // A training step sees a fresh EO: charge the encode every rep.
        SparsePlanCache::global().invalidate(eo.data());
        sparse.backwardData(spec, eo, w, ei, pool);
    });
    return t_dense / t_sparse;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("Error-sparsity study during real training");
    cli.addInt("epochs", 8, "training epochs");
    cli.addInt("examples", 256, "synthetic training examples");
    cli.parse(argc, argv);
    setLogLevel(LogLevel::Quiet);

    NetConfig config = parseNetConfig(R"(
        name: "sparsity-study"
        input { channels: 1 height: 28 width: 28 classes: 10 }
        layer { type: conv name: "conv0" features: 24 kernel: 5 }
        layer { type: relu }
        layer { type: maxpool kernel: 2 stride: 2 }
        layer { type: conv name: "conv1" features: 48 kernel: 3 }
        layer { type: relu }
        layer { type: maxpool kernel: 2 stride: 2 }
        layer { type: fc outputs: 10 }
        layer { type: softmax }
    )");
    Network net(config, 13);
    Dataset dataset = makeMnistLike(cli.getInt("examples"));

    TrainerOptions options;
    options.epochs = static_cast<int>(cli.getInt("epochs"));
    options.batch = 16;
    options.learning_rate = 0.03f;
    options.mode = TrainerOptions::Mode::Autotune;
    options.tuner.reps = 1;
    options.tuner.batch = 4;
    options.log_epochs = false;
    ThreadPool pool;

    Trainer trainer(net, dataset, options);
    auto history = trainer.run(pool);

    std::printf("%-5s %-7s %-5s  %-22s %-22s\n", "epoch", "loss", "acc",
                "conv0 sparsity/engine", "conv1 sparsity/engine");
    for (const auto &epoch : history) {
        std::printf("%-5d %-7.3f %-5.2f  %.2f %-17s %.2f %-17s\n",
                    epoch.epoch, epoch.mean_loss, epoch.accuracy,
                    epoch.conv_error_sparsity[0],
                    epoch.conv_engines[0].bp_data.c_str(),
                    epoch.conv_error_sparsity[1],
                    epoch.conv_engines[1].bp_data.c_str());
    }

    // How much is that sparsity worth on this machine?
    auto convs = net.convLayers();
    const auto &last = history.back();
    std::printf("\nmeasured BP-data speedup of sparse over dense at "
                "the observed sparsity:\n");
    for (std::size_t i = 0; i < convs.size(); ++i) {
        double s = last.conv_error_sparsity[i];
        std::printf("  conv%zu (%s) at sparsity %.2f: %.2fx\n", i,
                    convs[i]->spec().str().c_str(), s,
                    sparseSpeedupAt(convs[i]->spec(), s, pool));
    }
    return 0;
}
