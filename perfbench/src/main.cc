/**
 * @file
 * perfbench: run one workload of the spg-CNN benchmark.
 *
 *   perfbench --workload <train-cifar10|train-mnist-prune|serve-cifar10>
 *             --seed <n> --seconds <s> --trace <0|1> [--git-sha <sha>]
 *             [--trace-out <spans.json>]
 *   perfbench --selftest
 *
 * Prints a host fingerprint, "name = value unit" lines and, last, one
 * JSON object {"correct", "attempted", "failed", "metrics"}: the
 * end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
 * Exits 1 when a correctness gate fails, 2 on bad arguments and 3 when
 * the statistics self-test fails.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/perfcnt.hh"
#include "stats.hh"
#include "util/logging.hh"
#include "workloads.hh"

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--git-sha <sha>]"
                 " [--trace-out <spans.json>]"
                 "\n       perfbench --selftest\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args;
    bool selftest_only = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--selftest") {
            selftest_only = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(("missing value after " + flag).c_str());
        std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            args.seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace")
            args.trace = value != "0";
        else if (flag == "--git-sha")
            args.git_sha = value;
        else if (flag == "--trace-out")
            args.trace_out = value;
        else
            return usage(("unknown flag " + flag).c_str());
    }

    if (!selfTest())
        return 3;
    if (selftest_only) {
        std::printf("selftest ok\n");
        return 0;
    }
    if (!(args.seconds > 0))
        return usage("--seconds must be positive");

    // Hardware counters and RAPL are out of scope (and read files
    // outside the checkout); library logging would interleave stdout.
    spg::obs::perfConfigure(spg::obs::PerfMode::Off);
    spg::setLogLevel(spg::LogLevel::Quiet);

    printFingerprint(args);
    Report report;
    if (args.workload == "train-cifar10") {
        TrainSpec spec;
        spec.net = "cifar10";
        spec.images = 256;
        spec.lr = 0.01f;
        spec.call_s = 1.4;
        runTrain(spec, args, report);
    } else if (args.workload == "train-mnist-prune") {
        TrainSpec spec;
        spec.net = "mnist";
        spec.images = 1024;
        spec.lr = 0.05f;
        spec.extensions = true;
        spec.prune = "0.9@1:2";
        spec.acc_floor = 0.8;
        spec.call_s = 0.6;
        runTrain(spec, args, report);
    } else if (args.workload == "serve-cifar10") {
        runServe(args, report);
    } else {
        return usage(("unknown workload '" + args.workload + "'").c_str());
    }
    if (args.trace && !args.trace_out.empty()) {
        bool written = report.spans().write(args.trace_out);
        report.note(std::string(written ? "spans written to "
                                        : "could not write spans to ") +
                    args.trace_out);
    }
    return report.finish() ? 0 : 1;
}
