/**
 * @file
 * The three workloads and the layer attribution they share. Everything
 * here drives spg-CNN through its public headers; the timing spans are
 * the benchmark's own, around calls into each module.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/net_config.hh"
#include "data/synthetic.hh"
#include "nn/network.hh"
#include "nn/trainer.hh"
#include "report.hh"

namespace perfbench {

using spg::Dataset;
using spg::NetConfig;
using spg::Network;
using spg::TrainerOptions;

/** Threads one workload may use in total (caller included). */
inline constexpr int kThreads = 3;
/** Training minibatch and epochs per Trainer::run call. */
inline constexpr std::int64_t kBatch = 16;
inline constexpr int kEpochs = 4;

/** A training workload: Trainer::run over a synthetic set, repeated. */
struct TrainSpec
{
    std::string net;          ///< "cifar10" | "mnist"
    std::int64_t images = 256;
    float lr = 0.01f;
    bool extensions = false;
    std::string prune;        ///< pruning schedule, empty = off
    double acc_floor = 0.3;   ///< last-epoch training accuracy gate
    double call_s = 2.0;      ///< nominal seconds per Trainer::run call
};

/** Serving session shape; durations are arrival windows, seconds. */
struct ServeSpec
{
    int probes = 5;                 ///< servers built, one probe each
    std::int64_t probe_requests = 4096;
    double low_s = 4, high_s = 6, rung_s = 1;
};

/** What a serving session measured (see serve.cc). */
struct ServeOutcome
{
    std::vector<double> setup_s;     ///< per server built
    std::vector<double> capacity;    ///< per probe, requests/s
    double rss_first_mib = 0;        ///< peak RSS after the first server
    double lat_p50_low = 0, lat_p99_low = 0;
    double lat_p50_high = 0, lat_p99_high = 0;
    double slo_frac_high = 0;
    double slo_rate_qps = 0;
};

NetConfig netConfig(const std::string &net);
Dataset makeData(const std::string &net, std::int64_t images,
                 std::uint64_t seed);
TrainerOptions trainerOptions(const TrainSpec &spec, std::uint64_t seed);

void runTrain(const TrainSpec &spec, const Args &args, Report &report);
void runServe(const Args &args, Report &report);

/**
 * Serve @p net with 2 instances x 1 thread: capacity probes, fixed low
 * and high open-loop rates, then a rate ladder. With @p trace, also
 * the per-layer serve.* metrics.
 */
ServeOutcome serveSession(const std::string &net, const ServeSpec &spec,
                          std::uint64_t seed, bool trace, Report &report);

/**
 * Per-layer attribution of a training network (nn, conv, sparse,
 * core, threading, data, tensor metrics). With @p deploy, the conv
 * layers first get the tuner's plan (a fresh network); otherwise the
 * engines already deployed (by Trainer::run) are kept.
 */
void attributeLayers(Network &net, const Dataset &data,
                     const TrainerOptions &opts, bool deploy,
                     std::uint64_t seed, spg::ThreadPool &pool,
                     Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
