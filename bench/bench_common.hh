/**
 * @file
 * Shared plumbing for the figure/table reproduction benches.
 *
 * Every bench regenerates one table or figure of the paper. The paper's
 * machine has 16 cores, more than the 4-core development host, so each
 * bench reports up to two kinds of numbers, clearly labelled:
 *
 *  - SIMULATED: the modeled 16-core Xeon E5-2650 (simcpu) — these are
 *    the rows/series the paper's multicore figures show;
 *  - MEASURED: real kernel executions on this host (single-core
 *    unless the bench says otherwise) — ground truth validating the
 *    single-core claims and calibrating the model.
 */

#ifndef SPG_BENCH_COMMON_HH
#define SPG_BENCH_COMMON_HH

#include <string>

#include "simcpu/conv_model.hh"
#include "util/cli.hh"
#include "util/table.hh"

namespace spg {

/** Core counts the paper's scalability figures sweep. */
inline const int kCoreSweep[] = {1, 2, 4, 8, 16};

/** Sparsity sweep of Fig. 4f (paper x-axis). */
inline const double kSparsitySweep[] = {0.0,  0.5,  0.75, 0.88,
                                        0.94, 0.97, 0.99};

/** Register the flags every bench shares. */
inline void
addCommonFlags(CliParser &cli)
{
    cli.addBool("csv", false, "also emit CSV to stdout");
    cli.addString("csv-file", "", "write CSV to this path");
    cli.addInt("batch", 64, "simulated minibatch size");
}

/** Print the table and honour the CSV flags. */
inline void
emit(const CliParser &cli, const TablePrinter &table)
{
    table.print();
    if (cli.getBool("csv"))
        table.printCsv();
    std::string path = cli.getString("csv-file");
    if (!path.empty())
        table.writeCsv(path);
}

} // namespace spg

#endif // SPG_BENCH_COMMON_HH
