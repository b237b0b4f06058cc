#include <cstdio>
#include <numeric>

#include "stats.hh"

namespace perfbench {

namespace {

bool
near(double a, double b)
{
    return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

/** 1..n in a scrambled order, so no function may assume sorted input. */
std::vector<double>
scrambled(int n)
{
    std::vector<double> v(static_cast<std::size_t>(n));
    std::iota(v.begin(), v.end(), 1.0);
    for (std::size_t i = 0; i < v.size(); ++i)
        std::swap(v[i], v[(i * 7919 + 13) % v.size()]);
    return v;
}

} // namespace

bool
selfTest()
{
    int failures = 0;
    auto check = [&](bool ok, const char *what) {
        if (!ok) {
            std::fprintf(stderr, "selftest: FAILED %s\n", what);
            ++failures;
        }
    };

    check(near(median({3, 1, 2}), 2), "median of an odd sample");
    check(near(median({4, 1, 3, 2}), 2.5), "median of an even sample");
    check(std::isnan(median({})), "median of nothing is NaN");

    // Highest percentile: p99 of 1..1000 has exactly 10 samples beyond
    // rank 990; one sample fewer leaves only 9 and must not report.
    check(near(percentile(scrambled(1000), 0.99), 990),
          "p99 of 1000 samples is the 990th");
    check(std::isnan(percentile(scrambled(999), 0.99)),
          "p99 of 999 samples is refused (9 beyond)");
    check(near(percentile(scrambled(20), 0.50), 10),
          "p50 of 20 samples is the 10th");
    check(std::isnan(percentile(scrambled(19), 0.50)),
          "p50 of 19 samples is refused (9 beyond)");
    check(std::isnan(percentile({}, 0.5)), "percentile of nothing is NaN");
    check(near(highestPercentile(1000), 0.99), "1000 samples support p99");
    check(near(highestPercentile(999), 0.95), "999 samples stop at p95");
    check(near(highestPercentile(40), 0.75), "40 samples support p75");
    check(std::isnan(highestPercentile(19)), "19 samples support nothing");
    for (int n : {20, 40, 999, 1000, 20000})
        check(!std::isnan(percentile(scrambled(n), highestPercentile(n))),
              "the highest percentile is reported");

    // Due-time latency: due at 1 ms, submitted late at 5 ms, done at
    // 9 ms. The submit stamp would claim 4 ms; the due time says 8.
    check(near(dueLatencyMs(1'000'000, 9'000'000), 8.0),
          "latency is timed from the due time");

    // Wait estimate: 5 ms end to end in a batch of 3 whose forward
    // takes 1.5 ms leaves 3.5 ms of queueing and batch formation.
    std::vector<double> fwd = {kNaN, 1.0, 1.2, 1.5};
    check(near(waitMs(5.0, 3, fwd), 3.5), "wait = latency - fwd(batch)");
    check(std::isnan(waitMs(5.0, 4, fwd)), "wait of an unmeasured batch");
    check(std::isnan(waitMs(5.0, 0, fwd)), "wait of batch 0");

    check(near(attributedFrac({1, 2, 3}, 8), 0.75),
          "attributed share of a step");
    check(near(attributedFrac({5, 5}, 8), 1.25),
          "over-attribution is reported, not clipped");
    check(std::isnan(attributedFrac({1}, 0)), "share of an empty step");

    return failures == 0;
}

} // namespace perfbench
