/**
 * @file
 * Ablation: CT-CSR feature-tile width in the Sparse-Kernel (BP).
 *
 * DESIGN.md calls out the column tiling of the error-gradient matrix
 * (paper Fig. 5a) as a locality optimization over plain CSR. This
 * bench measures the REAL SparseBpEngine on this host across tile
 * widths; a tile width >= Nf degrades CT-CSR to plain CSR.
 */

#include "bench/bench_common.hh"
#include "conv/engine_sparse.hh"
#include "sparse/sparse_plan.hh"
#include "util/random.hh"
#include "util/timer.hh"

using namespace spg;

int
main(int argc, char **argv)
{
    CliParser cli("Ablation: CT-CSR feature tile width vs plain CSR "
                  "(measured on this host)");
    addCommonFlags(cli);
    cli.addDouble("sparsity", 0.85, "error sparsity");
    cli.parse(argc, argv);
    double sparsity = cli.getDouble("sparsity");

    // Feature-heavy layers where tiling matters.
    const ConvSpec specs[] = {
        ConvSpec::square(16, 256, 64, 3),
        ConvSpec::square(13, 400, 400, 3),
        ConvSpec::square(27, 384, 256, 3),
    };
    const std::int64_t tiles[] = {8, 16, 32, 64, 128, 1 << 20};

    TablePrinter table(
        "Ablation: Sparse-Kernel BP time (ms) vs CT-CSR tile width "
        "(last column = plain CSR), sparsity " +
            TablePrinter::fmt(sparsity, 2) + " — MEASURED, 1 core",
        {"spec", "t=8", "t=16", "t=32", "t=64", "t=128", "plain CSR",
         "CT-CSR best gain"});

    ThreadPool pool(1);
    Rng rng(9);
    for (const ConvSpec &spec : specs) {
        std::int64_t batch = 2;
        Tensor w(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
        Tensor eo(Shape{batch, spec.nf, spec.outY(), spec.outX()});
        Tensor ei(Shape{batch, spec.nc, spec.ny, spec.nx});
        Tensor in(Shape{batch, spec.nc, spec.ny, spec.nx});
        Tensor dw(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
        w.fillUniform(rng);
        in.fillUniform(rng);
        eo.fillUniform(rng);
        eo.sparsify(rng, sparsity);

        std::vector<std::string> row = {spec.str()};
        double best = 1e30, plain = 0;
        for (std::int64_t tile : tiles) {
            SparseBpEngine engine(tile);
            double t = bestTimeSeconds(3, [&] {
                // One minibatch per rep: encode in BP-data, replay the
                // plan in BP-weights.
                SparsePlanCache::global().invalidate(eo.data());
                engine.backwardData(spec, eo, w, ei, pool);
                engine.backwardWeights(spec, eo, in, dw, pool);
            });
            row.push_back(TablePrinter::fmt(t * 1e3, 2));
            if (tile < spec.nf)
                best = std::min(best, t);
            plain = t;  // last iteration is the plain-CSR config
        }
        row.push_back(TablePrinter::fmt(plain / best, 2) + "x");
        table.addRow(row);
    }
    emit(cli, table);
    return 0;
}
