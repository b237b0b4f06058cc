/**
 * @file
 * Reproduces paper Fig. 4d: speedup of Stencil-Kernel (FP) over
 * GEMM-in-Parallel. The paper's claim: the stencil wins for small
 * convolutions (< 128 output features) whose AIT the unfolding
 * destroys, and loses to GEMM for large ones.
 *
 * The SIMULATED columns model the paper's Stencil-Kernel. The MEASURED
 * column runs this repository's direct-convolution kernel (`direct`)
 * and GEMM-in-Parallel single-core on this host. NOTE (also recorded
 * in EXPERIMENTS.md): against this repository's strong packed
 * im2col+SGEMM baseline the measured direct kernel roughly ties
 * rather than wins; the simulated columns model the paper's machine
 * and BLAS behaviour.
 */

#include "bench/bench_common.hh"
#include "conv/engines.hh"
#include "data/suites.hh"
#include "util/random.hh"
#include "util/timer.hh"

using namespace spg;

namespace {

double
measuredSpeedup(const ConvSpec &spec, std::int64_t batch)
{
    ThreadPool pool(1);
    Rng rng(6);
    Tensor in(Shape{batch, spec.nc, spec.ny, spec.nx});
    Tensor w(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
    Tensor out(Shape{batch, spec.nf, spec.outY(), spec.outX()});
    in.fillUniform(rng);
    w.fillUniform(rng);
    GemmInParallelEngine gemm;
    DirectEngine direct;
    double t_gemm = bestTimeSeconds(2, [&] {
        gemm.forward(spec, in, w, out, pool);
    });
    double t_direct = bestTimeSeconds(2, [&] {
        direct.forward(spec, in, w, out, pool);
    });
    return t_gemm / t_direct;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("Reproduce paper Fig. 4d (Stencil vs GEMM-in-Parallel "
                  "speedup)");
    addCommonFlags(cli);
    cli.addBool("measure", true, "run both real engines on this host");
    cli.addInt("measure-flops-limit", 8,
               "skip measured column above this many GFlops per image "
               "batch");
    cli.parse(argc, argv);
    std::int64_t batch = cli.getInt("batch");

    MachineModel machine = MachineModel::xeonE5_2650();
    TablePrinter table(
        "Fig. 4d: speedup of Stencil-Kernel (FP) over GEMM-in-Parallel "
        "(batch " + std::to_string(batch) + ") — SIMULATED cores sweep; "
        "MEASURED = host 1-core direct",
        {"ID", "Nf", "1", "2", "4", "8", "16", "measured 1-core"});

    double flops_limit = cli.getInt("measure-flops-limit") * 1e9;
    for (const auto &entry : table1Convolutions()) {
        std::vector<std::string> row = {
            TablePrinter::fmt(static_cast<long long>(entry.id)),
            TablePrinter::fmt(static_cast<long long>(entry.spec.nf))};
        for (int cores : kCoreSweep) {
            double gemm = modelConvPhase(machine, entry.spec,
                                         Phase::Forward,
                                         "gemm-in-parallel", batch,
                                         cores)
                              .seconds;
            double stencil = modelConvPhase(machine, entry.spec,
                                            Phase::Forward, "stencil",
                                            batch, cores)
                                 .seconds;
            row.push_back(TablePrinter::fmt(gemm / stencil, 2));
        }
        std::int64_t measure_batch = 4;
        bool feasible = measure_batch *
                            static_cast<double>(entry.spec.flops()) <
                        flops_limit;
        row.push_back(cli.getBool("measure") && feasible
                          ? TablePrinter::fmt(
                                measuredSpeedup(entry.spec,
                                                measure_batch),
                                2)
                          : "-");
        table.addRow(row);
    }
    emit(cli, table);
    return 0;
}
