/**
 * @file
 * Reproduces paper Fig. 8: per-layer speedup of the spg-CNN framework
 * over Parallel-GEMM for the convolution layers of the four
 * real-world benchmarks (Table 2), at 16 cores and 85% BP sparsity
 * (the paper's conservative choice from Fig. 3b).
 *
 * For FP the table separates the GEMM-in-Parallel speedup from the
 * additional Stencil-Kernel speedup where the stencil is deployed
 * (the paper's blue vs green bars); for BP it reports the
 * Sparse-Kernel speedup (orange bars).
 */

#include "bench/bench_common.hh"
#include "data/suites.hh"
#include "perf/region.hh"

using namespace spg;

namespace {

double
bpSeconds(const MachineModel &machine, const ConvSpec &spec,
          const std::string &engine, std::int64_t batch, int cores,
          double sparsity)
{
    return modelConvPhase(machine, spec, Phase::BackwardData, engine,
                          batch, cores, sparsity)
               .seconds +
           modelConvPhase(machine, spec, Phase::BackwardWeights, engine,
                          batch, cores, sparsity)
               .seconds;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("Reproduce paper Fig. 8 (per-layer speedups over "
                  "Parallel-GEMM on real-world benchmarks)");
    addCommonFlags(cli);
    cli.addDouble("sparsity", 0.85, "BP error sparsity (paper: 0.85)");
    cli.addInt("cores", 16, "core count");
    cli.parse(argc, argv);
    std::int64_t batch = cli.getInt("batch");
    int cores = static_cast<int>(cli.getInt("cores"));
    double sparsity = cli.getDouble("sparsity");

    MachineModel machine = MachineModel::xeonE5_2650();
    TablePrinter table(
        "Fig. 8: speedup over Parallel-GEMM at " +
            std::to_string(cores) + " cores, BP sparsity " +
            TablePrinter::fmt(sparsity, 2) + " — SIMULATED",
        {"benchmark", "layer", "spec", "FP gemm-in-par", "FP +stencil",
         "FP engine", "BP sparse"});

    for (const auto &entry : table2Layers()) {
        double fp_base = modelConvPhase(machine, entry.spec,
                                        Phase::Forward, "parallel-gemm",
                                        batch, cores)
                             .seconds;
        double fp_gip = modelConvPhase(machine, entry.spec,
                                       Phase::Forward,
                                       "gemm-in-parallel", batch, cores)
                            .seconds;
        double fp_stencil = modelConvPhase(machine, entry.spec,
                                           Phase::Forward, "stencil",
                                           batch, cores)
                                .seconds;

        // Deploy the paper's rule: stencil only when it is the faster
        // choice (< 128 output features in practice).
        bool use_stencil = fp_stencil < fp_gip;
        double bp_base = bpSeconds(machine, entry.spec, "parallel-gemm",
                                   batch, cores, sparsity);
        double bp_sparse = bpSeconds(machine, entry.spec,
                                     "sparse-cached", batch, cores,
                                     sparsity);

        table.addRow({
            entry.benchmark,
            "L" + std::to_string(entry.layer),
            entry.spec.str(),
            TablePrinter::fmt(fp_base / fp_gip, 2) + "x",
            use_stencil ? TablePrinter::fmt(fp_base / fp_stencil, 2) + "x"
                        : "-",
            use_stencil ? "stencil" : "gemm-in-parallel",
            TablePrinter::fmt(bp_base / bp_sparse, 2) + "x",
        });
    }
    emit(cli, table);
    return 0;
}
