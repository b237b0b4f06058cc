/**
 * @file
 * Extension bench: Winograd F(2x2, 3x3) minimal filtering (the
 * paper's citation [18], "minimizing computation in CNNs") on the
 * 3x3 stride-1 layers of Table 2.
 *
 * MEASURED on this host: FP time of gemm-in-parallel, direct and
 * winograd; the winograd column reflects its 2.25x arithmetic
 * reduction minus transform overheads.
 */

#include "bench/bench_common.hh"
#include "conv/engines.hh"
#include "data/suites.hh"
#include "util/random.hh"
#include "util/timer.hh"

using namespace spg;

int
main(int argc, char **argv)
{
    CliParser cli("Extension: Winograd F(2x2,3x3) vs direct engines "
                  "on the 3x3 Table 2 layers (measured on this host)");
    addCommonFlags(cli);
    cli.parse(argc, argv);

    TablePrinter table(
        "Extension: FP time (ms, batch 2) on 3x3 stride-1 layers — "
        "MEASURED, 1 core",
        {"layer", "spec", "gemm-in-parallel", "direct", "winograd",
         "winograd vs best"});

    // Table 2's 3x3 layers (small spatial dims, where winograd's
    // transforms dominate) plus VGG-style layers (large spatial dims,
    // where the 2.25x arithmetic reduction pays off).
    struct Row
    {
        std::string label;
        ConvSpec spec;
    };
    std::vector<Row> rows;
    for (const auto &entry : table2Layers()) {
        const ConvSpec &spec = entry.spec;
        if (spec.fx == 3 && spec.fy == 3 && spec.sx == 1 && spec.sy == 1)
            rows.push_back(
                {entry.benchmark + " L" + std::to_string(entry.layer),
                 spec});
    }
    rows.push_back({"VGG-style", ConvSpec::square(56, 64, 64, 3)});
    rows.push_back({"VGG-style", ConvSpec::square(56, 128, 128, 3)});
    rows.push_back({"VGG-style", ConvSpec::square(112, 64, 32, 3)});

    ThreadPool pool(1);
    Rng rng(15);
    for (const auto &row_def : rows) {
        const ConvSpec &spec = row_def.spec;
        std::int64_t batch = 2;
        Tensor in(Shape{batch, spec.nc, spec.ny, spec.nx});
        Tensor w(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
        Tensor out(Shape{batch, spec.nf, spec.outY(), spec.outX()});
        in.fillUniform(rng);
        w.fillUniform(rng);

        auto time_of = [&](const char *name) {
            auto engine = makeEngine(name);
            return bestTimeSeconds(2, [&] {
                engine->forward(spec, in, w, out, pool);
            });
        };
        double t_gemm = time_of("gemm-in-parallel");
        double t_direct = time_of("direct");
        double t_wino = time_of("winograd");
        double best = std::min(t_gemm, t_direct);
        table.addRow({
            row_def.label,
            spec.str(),
            TablePrinter::fmt(t_gemm * 1e3, 2),
            TablePrinter::fmt(t_direct * 1e3, 2),
            TablePrinter::fmt(t_wino * 1e3, 2),
            TablePrinter::fmt(best / t_wino, 2) + "x",
        });
    }
    emit(cli, table);
    return 0;
}
