/**
 * @file
 * serve-cifar10: serve::Server with 2 instances x 1 thread, max batch
 * 8, a 2 ms batching budget and a 20 ms p99 limit, driven by the
 * benchmark's own open-loop generator so every request is timed from
 * the moment it was due.
 */

#include <chrono>
#include <cmath>
#include <memory>
#include <thread>

#include "serve/loadgen.hh"
#include "serve/server.hh"
#include "stats.hh"
#include "util/random.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using spg::serve::Request;
using spg::serve::Server;
using spg::serve::nowNs;

constexpr double kLimitMs = 20.0;     ///< p99 latency limit
constexpr double kLowQps = 1500.0;    ///< batcher waits for batch-mates
constexpr double kHighQps = 3000.0;   ///< batches fill
const std::vector<double> kLadderQps = {3000, 3500, 4000, 4500,
                                        5000, 5500, 6000};
/** Distinct request images. */
constexpr std::int64_t kImages = 256;
/** Arrivals a window must hold so its p99 has 10 samples beyond. */
constexpr double kMinArrivals = 1300;

spg::serve::ServerOptions
serverOptions(std::uint64_t seed)
{
    spg::serve::ServerOptions o;
    o.instances = 2;
    o.threads_per_instance = 1;
    o.max_batch = 8;
    o.batch_budget_ms = 2.0;
    o.queue_capacity = 4096;
    o.seed = seed;
    return o;
}

/** One open-loop window, every request's outcome kept. */
struct Window
{
    double rate = 0;
    std::int64_t sent = 0, rejected = 0, failed = 0, within_limit = 0;
    std::vector<double> lat_ms;      ///< due time -> done, completed only
    std::vector<std::int64_t> batch; ///< parallel to lat_ms
    std::vector<double> lag_ms;      ///< how late each submit started
    std::vector<double> submit_us;   ///< time inside Server::submit

    /** Pool another window's requests into this one. */
    void
    append(const Window &o)
    {
        sent += o.sent;
        rejected += o.rejected;
        failed += o.failed;
        within_limit += o.within_limit;
        lat_ms.insert(lat_ms.end(), o.lat_ms.begin(), o.lat_ms.end());
        batch.insert(batch.end(), o.batch.begin(), o.batch.end());
        lag_ms.insert(lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
        submit_us.insert(submit_us.end(), o.submit_us.begin(),
                         o.submit_us.end());
    }
};

/**
 * Submit Poisson arrivals at @p rate for @p seconds on the benchmark's
 * own schedule, drain, and check each completed label against the
 * batch-1 reference. Wrong or lost requests are failures.
 */
Window
openLoop(Server &server, const Dataset &data, const std::vector<int> &ref,
         double rate, double seconds, std::uint64_t seed, Report &report)
{
    seconds = std::max(seconds, kMinArrivals / rate);
    spg::Rng rng(seed);
    std::vector<std::int64_t> due;
    for (double t = 0;;) {
        double u = std::min(static_cast<double>(rng.uniform()), 0.9999999);
        t += -std::log(1.0 - u) / rate;
        if (t >= seconds)
            break;
        due.push_back(static_cast<std::int64_t>(t * 1e9));
    }
    const std::int64_t elems = data.channels * data.height * data.width;
    std::vector<Request> reqs(due.size());
    std::vector<std::int64_t> image(due.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        image[i] = static_cast<std::int64_t>(
            rng.below(static_cast<std::uint64_t>(data.count())));
        reqs[i].id = static_cast<std::int64_t>(i);
        reqs[i].image = data.images.data() + image[i] * elems;
        reqs[i].elems = elems;
    }

    Window w;
    w.rate = rate;
    w.lag_ms.reserve(reqs.size());
    w.submit_us.reserve(reqs.size());
    std::vector<char> accepted(reqs.size(), 0);
    const std::int64_t start = nowNs() + 1'000'000;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        due[i] += start;
        std::chrono::steady_clock::time_point at{
            std::chrono::nanoseconds(due[i])};
        if (std::chrono::steady_clock::now() < at)
            std::this_thread::sleep_until(at);
        std::int64_t t0 = nowNs();
        accepted[i] = server.submit(reqs[i]);
        std::int64_t t1 = nowNs();
        w.lag_ms.push_back(static_cast<double>(t0 - due[i]) * 1e-6);
        w.submit_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        ++w.sent;
        w.rejected += !accepted[i];
    }
    server.drain();

    std::int64_t wrong = 0, lost = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (!accepted[i])
            continue;
        if (!reqs[i].done.load(std::memory_order_acquire)) {
            ++lost;
            continue;
        }
        wrong += reqs[i].predicted != ref[static_cast<std::size_t>(image[i])];
        double ms = dueLatencyMs(due[i], reqs[i].done_ns);
        w.lat_ms.push_back(ms);
        w.batch.push_back(reqs[i].batch);
        w.within_limit += ms <= kLimitMs;
    }
    w.failed = wrong + lost;
    report.count(w.sent, w.failed,
                 "served labels at " +
                     std::to_string(static_cast<int>(rate)) +
                     " qps equal the batch-1 reference (" +
                     std::to_string(wrong) + " wrong, " +
                     std::to_string(lost) + " lost)");
    return w;
}

/** Argmax label of every dataset image through a separately built
 *  batch-1 inference-only network with the servers' weights. */
std::vector<int>
referenceLabels(const NetConfig &config, const Dataset &data,
                std::uint64_t seed)
{
    Network ref(config, seed, /*inference_only=*/true);
    spg::ThreadPool pool(1);
    const std::int64_t elems = data.channels * data.height * data.width;
    std::vector<int> labels;
    for (std::int64_t i = 0; i < data.count(); ++i) {
        spg::Tensor view = spg::Tensor::view(
            spg::Shape{1, data.channels, data.height, data.width},
            const_cast<float *>(data.images.data()) + i * elems);
        const spg::Tensor &probs = ref.forward(view, pool);
        int best = 0;
        for (std::int64_t c = 1; c < ref.classes(); ++c)
            if (probs.data()[c] > probs.data()[best])
                best = static_cast<int>(c);
        labels.push_back(best);
    }
    return labels;
}

/** Inference-only forward ms at batches 1..max under the serving plans
 *  (index = batch, index 0 unused), on a 1-thread pool like an
 *  instance's. */
std::vector<double>
bucketForwardMs(const NetConfig &config, const Dataset &data,
                const std::vector<spg::ServingLayerPlan> &plans,
                std::int64_t max_batch, std::uint64_t seed, Spans &spans)
{
    Network net(config, seed, /*inference_only=*/true);
    net.reserveBatch(max_batch);
    spg::ThreadPool pool(1);
    const std::int64_t elems = data.channels * data.height * data.width;
    spg::Tensor staging(
        spg::Shape{max_batch, data.channels, data.height, data.width});
    for (std::int64_t i = 0; i < max_batch * elems; ++i)
        staging.data()[i] = data.images.data()[i % data.images.size()];
    std::vector<double> fwd(static_cast<std::size_t>(max_batch) + 1,
                            kNaN);
    auto convs = net.convLayers();
    for (std::int64_t b = 1; b <= max_batch; ++b) {
        for (std::size_t k = 0; k < convs.size() && k < plans.size(); ++k) {
            spg::EngineAssignment a = convs[k]->engines();
            a.fp = plans[k].engineForBatch(b);
            convs[k]->setEngines(a);
        }
        spg::Tensor view = spg::Tensor::view(
            spg::Shape{b, data.channels, data.height, data.width},
            staging.data());
        net.forward(view, pool);
        const std::string name = "serve.forward.b" + std::to_string(b);
        for (int rep = 0; rep < 25; ++rep)
            spans.time(name, -1, [&] { net.forward(view, pool); });
        fwd[static_cast<std::size_t>(b)] = median(spans.ms(name));
    }
    return fwd;
}

/** "phase high 3000 qps: sent n, succeeded n, failed n, rejected n". */
std::string
phaseLine(const std::string &name, const Window &w)
{
    return "phase " + name + " " + std::to_string(static_cast<int>(w.rate)) +
           " qps: sent " + std::to_string(w.sent) + ", succeeded " +
           std::to_string(w.sent - w.rejected - w.failed) + ", failed " +
           std::to_string(w.failed) + ", rejected " +
           std::to_string(w.rejected);
}

std::string
firstToken(const std::string &s)
{
    return s.substr(0, s.find(' '));
}

} // namespace

ServeOutcome
serveSession(const std::string &net, const ServeSpec &spec,
             std::uint64_t seed, bool trace, Report &report)
{
    const NetConfig config = netConfig(net);
    const spg::serve::ServerOptions sopts = serverOptions(seed);
    ServeOutcome out;

    // Set-up (data set, server build, warmup with tuneServing) is timed
    // once per server. Each server then gets a pre-filled capacity probe
    // and its share of the low and high windows, so every figure is a
    // median (or a pooled sample) over servers whose tuner may have
    // picked different plans. The last server also climbs the ladder.
    std::unique_ptr<Server> server;
    Dataset data;
    std::vector<int> ref;
    Window low, high;
    low.rate = kLowQps;
    high.rate = kHighQps;
    std::vector<double> p50_low, p50_high;
    Spans &spans = report.spans();
    for (int k = 0; k < spec.probes; ++k) {
        if (server)
            server->stop();
        server.reset();
        const int span = spans.begin("server", -1);
        out.setup_s.push_back(1e-3 * spans.time("setup", span, [&] {
            data = makeData(net, kImages, seed);
            server = std::make_unique<Server>(config, sopts);
            server->warmup();
        }));
        if (ref.empty())
            ref = referenceLabels(config, data, seed);
        spans.time("capacity_probe", span, [&] {
            out.capacity.push_back(spg::serve::capacityProbe(
                *server, data, spec.probe_requests, seed * 31 + k));
        });
        report.count(spec.probe_requests, 0, "capacity probe");
        report.info("capacity_qps.probe" + std::to_string(k),
                    out.capacity.back(), "1/s");
        Window l, h;
        spans.time("window.low", span, [&] {
            l = openLoop(*server, data, ref, kLowQps,
                         spec.low_s / spec.probes, seed * 31 + 100 + k,
                         report);
        });
        spans.time("window.high", span, [&] {
            h = openLoop(*server, data, ref, kHighQps,
                         spec.high_s / spec.probes, seed * 31 + 150 + k,
                         report);
        });
        spans.end(span);
        p50_low.push_back(percentile(l.lat_ms, 0.50));
        p50_high.push_back(percentile(h.lat_ms, 0.50));
        low.append(l);
        high.append(h);
        if (k == 0)
            out.rss_first_mib = peakRssMib();
    }
    for (std::size_t l = 0; l < server->servingPlans().size(); ++l) {
        const spg::ServingLayerPlan &plan = server->servingPlans()[l];
        for (std::size_t b = 0; b < plan.buckets.size(); ++b)
            report.engine(firstToken(server->planLabels()[l]) + ".fp.b" +
                              std::to_string(plan.buckets[b]),
                          plan.fp_engines[b]);
    }
    const int ladder = spans.begin("ladder", -1);
    for (std::size_t r = 0; r < kLadderQps.size(); ++r) {
        Window rung;
        spans.time("rung", ladder, [&] {
            rung = openLoop(*server, data, ref, kLadderQps[r], spec.rung_s,
                            seed * 31 + 200 + r, report);
        });
        report.note(phaseLine("rung", rung) + ", p99 " +
                    std::to_string(percentile(rung.lat_ms, 0.99)) + " ms");
        if (rung.rejected == 0 && percentile(rung.lat_ms, 0.99) <= kLimitMs)
            out.slo_rate_qps = kLadderQps[r];
    }
    spans.end(ladder);
    server->stop();

    out.lat_p50_low = median(p50_low);
    out.lat_p99_low = percentile(low.lat_ms, 0.99);
    out.lat_p50_high = median(p50_high);
    out.lat_p99_high = percentile(high.lat_ms, 0.99);
    // A rejected request is a miss: the share is of requests sent.
    out.slo_frac_high = static_cast<double>(high.within_limit) /
                        static_cast<double>(high.sent);
    for (const auto &[name, w] : {std::pair{"low", &low}, {"high", &high}})
        report.note(phaseLine(name, *w));
    report.distribution("lat_ms.low", low.lat_ms, "ms");
    report.distribution("lat_ms.high", high.lat_ms, "ms");

    if (trace) {
        std::vector<double> fwd =
            bucketForwardMs(config, data, server->servingPlans(),
                            sopts.max_batch, seed, spans);
        for (std::int64_t b : {1, 2, 4, 8})
            report.metric("serve.fwd_ms.b" + std::to_string(b),
                          fwd[static_cast<std::size_t>(b)], "ms");
        std::vector<double> wait;
        double batch_sum = 0;
        for (std::size_t i = 0; i < high.lat_ms.size(); ++i) {
            wait.push_back(waitMs(high.lat_ms[i], high.batch[i], fwd));
            batch_sum += static_cast<double>(high.batch[i]);
        }
        report.metric("serve.mean_batch",
                      batch_sum / static_cast<double>(high.batch.size()),
                      "count");
        report.metric("serve.wait_ms.p50", percentile(wait, 0.50), "ms");
        report.metric("serve.wait_ms.p99", percentile(wait, 0.99), "ms");
        report.metric("serve.submit_us", median(high.submit_us), "us");
        report.metric("serve.gen_lag_ms.p99", percentile(high.lag_ms, 0.99),
                      "ms");
        report.metric("serve.lat_p50_ms.low", out.lat_p50_low, "ms");
        report.metric("serve.lat_p99_ms.low", out.lat_p99_low, "ms");
        report.metric("serve.lat_p99_ms.high", out.lat_p99_high, "ms");
        report.metric("serve.slo_frac_high", out.slo_frac_high, "1");
        report.metric("serve.slo_rate_qps", out.slo_rate_qps, "1/s");
    }
    return out;
}

void
runServe(const Args &args, Report &report)
{
    // Phase windows scale with --seconds: 20% low and 30% high (split
    // over the five servers), 35% over the seven ladder rungs; the five
    // set-ups and probes take the rest.
    ServeSpec spec;
    spec.low_s = 0.20 * args.seconds;
    spec.high_s = 0.30 * args.seconds;
    spec.rung_s = 0.05 * args.seconds;
    ServeOutcome o = serveSession("cifar10", spec, args.seed, args.trace,
                                  report);
    report.printEngines();

    report.info("capacity_qps", median(o.capacity), "1/s");
    report.info("lat_p50_ms.low", o.lat_p50_low, "ms");
    report.info("lat_p99_ms.low", o.lat_p99_low, "ms");
    report.info("lat_p50_ms.high", o.lat_p50_high, "ms");
    report.info("lat_p99_ms.high", o.lat_p99_high, "ms");
    report.info("slo_frac.high", o.slo_frac_high, "1");
    report.info("slo_rate_qps", o.slo_rate_qps, "1/s");
    if (args.trace) {
        // The training view of the same network: a fresh cifar10 net,
        // tuned like Trainer::run's initial tune, then attributed.
        TrainSpec train;
        train.net = "cifar10";
        Dataset data = makeData("cifar10", train.images, args.seed);
        Network net(netConfig("cifar10"), args.seed);
        spg::ThreadPool pool(kThreads);
        attributeLayers(net, data, trainerOptions(train, args.seed),
                        /*deploy=*/true, args.seed, pool, report);
        return;
    }
    report.metric("setup_s", median(o.setup_s), "s");
    // As for training: the peak after one set-up and one server's work;
    // the growth over the later servers is printed beside it.
    report.info("rss_growth_mib_per_server",
                (peakRssMib() - o.rss_first_mib) / (o.setup_s.size() - 1),
                "MiB");
    report.metric("rss_mib", o.rss_first_mib, "MiB");
    report.metric("img_s", median(o.capacity), "img/s");
    report.metric("lat_p50_ms", o.lat_p50_high, "ms");
}

} // namespace perfbench
