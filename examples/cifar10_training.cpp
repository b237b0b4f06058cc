/**
 * @file
 * End-to-end CIFAR-10 training — the workload of the paper's Fig. 9 —
 * comparing the baseline Unfold+Parallel-GEMM configuration against
 * the full spg-CNN configuration (direct FP + Sparse BP with
 * autotuned fallbacks) on this machine.
 *
 * The network is the paper's Table 2 CIFAR-10 stack (3x36x36 input,
 * two 5x5/64-feature conv layers). Training data is synthetic with
 * identical geometry; see DESIGN.md for the substitution rationale.
 *
 * Run: ./build/examples/cifar10_training [--epochs N] [--examples N]
 */

#include <cstdio>

#include "data/suites.hh"
#include "data/synthetic.hh"
#include "nn/trainer.hh"
#include "util/cli.hh"

using namespace spg;

namespace {

double
trainOnce(const char *label, const Dataset &dataset,
          TrainerOptions options, const EngineAssignment *fixed,
          ThreadPool &pool)
{
    Network net(parseNetConfig(cifar10NetConfigText()), 17);
    if (fixed) {
        for (ConvLayer *conv : net.convLayers())
            conv->setEngines(*fixed);
        options.mode = TrainerOptions::Mode::Fixed;
    }
    Trainer trainer(net, dataset, options);
    auto history = trainer.run(pool);
    const auto &last = history.back();
    std::printf("%-28s %8.0f img/s   loss %.4f  acc %.3f  "
                "sparsity %.2f/%.2f\n",
                label, trainer.overallThroughput(), last.mean_loss,
                last.accuracy, last.conv_error_sparsity[0],
                last.conv_error_sparsity[1]);
    return trainer.overallThroughput();
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("CIFAR-10 end-to-end training comparison");
    cli.addInt("epochs", 3, "training epochs");
    cli.addInt("examples", 256, "synthetic training examples");
    cli.addInt("batch", 16, "minibatch size");
    cli.parse(argc, argv);
    setLogLevel(LogLevel::Quiet);

    Dataset dataset = makeCifarLike(cli.getInt("examples"));
    TrainerOptions options;
    options.epochs = static_cast<int>(cli.getInt("epochs"));
    options.batch = cli.getInt("batch");
    options.learning_rate = 0.02f;
    options.log_epochs = false;
    options.tuner.reps = 1;
    options.tuner.batch = 4;
    ThreadPool pool;

    std::printf("CIFAR-10 (Table 2 geometry), %lld examples, "
                "%d epochs, batch %lld, %d thread(s)\n\n",
                static_cast<long long>(dataset.count()), options.epochs,
                static_cast<long long>(options.batch), pool.threads());

    EngineAssignment baseline{"parallel-gemm", "parallel-gemm",
                              "parallel-gemm"};
    EngineAssignment gip{"gemm-in-parallel", "gemm-in-parallel",
                         "gemm-in-parallel"};
    EngineAssignment spg{"direct", "sparse-cached", "sparse-cached"};

    double base =
        trainOnce("Unfold+Parallel-GEMM", dataset, options, &baseline,
                  pool);
    trainOnce("GEMM-in-Parallel", dataset, options, &gip, pool);
    double best =
        trainOnce("Direct FP + Sparse BP", dataset, options, &spg,
                  pool);
    double tuned =
        trainOnce("spg-CNN autotuned", dataset, options, nullptr, pool);

    std::printf("\nspeedup over baseline: fixed spg %.2fx, autotuned "
                "%.2fx\n",
                best / base, tuned / base);
    return 0;
}
