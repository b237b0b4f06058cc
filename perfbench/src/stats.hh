/**
 * @file
 * The benchmark's own statistics: medians, guarded tail percentiles,
 * due-time latency, the batch-wait estimate and the attributed share
 * of a step. selftest.cc checks every function here on known inputs
 * before any measurement is reported.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/** Samples that must lie strictly beyond a reported percentile. */
inline constexpr std::int64_t kTailSamples = 10;

/** Median (mean of the middle pair for an even count); NaN if empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return kNaN;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Nearest-rank percentile (q in (0, 1)) of a latency-like sample.
 * NaN unless at least kTailSamples samples lie beyond the rank, so a
 * p99 needs 1000 samples and a p50 needs 20: a tail read off a handful
 * of points is never reported as if it were measured.
 */
inline double
percentile(std::vector<double> v, double q)
{
    auto n = static_cast<std::int64_t>(v.size());
    auto rank = static_cast<std::int64_t>(std::ceil(q * n));
    rank = std::clamp<std::int64_t>(rank, 1, std::max<std::int64_t>(n, 1));
    if (n == 0 || n - rank < kTailSamples)
        return kNaN;
    std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
    return v[static_cast<std::size_t>(rank - 1)];
}

/**
 * The highest of p50, p75, p90, p95, p99 and p99.9 that percentile()
 * will report for @p n samples; NaN below 20 samples.
 */
inline double
highestPercentile(std::int64_t n)
{
    double best = kNaN;
    for (double q : {0.5, 0.75, 0.9, 0.95, 0.99, 0.999})
        if (n - static_cast<std::int64_t>(std::ceil(q * n)) >= kTailSamples)
            best = q;
    return best;
}

/**
 * Latency of a request timed from when it was due, not from when the
 * generator got round to submitting it: a stalled generator then shows
 * up as latency instead of hiding before the submit stamp.
 */
inline double
dueLatencyMs(std::int64_t due_ns, std::int64_t done_ns)
{
    return static_cast<double>(done_ns - due_ns) * 1e-6;
}

/**
 * Time a request spent outside its batch's forward pass: latency minus
 * the measured forward time at the batch it rode in. fwd_ms[b] is the
 * forward time at batch b (index 0 unused); NaN for an unmeasured b.
 */
inline double
waitMs(double latency_ms, std::int64_t batch,
       const std::vector<double> &fwd_ms)
{
    if (batch < 1 || batch >= static_cast<std::int64_t>(fwd_ms.size()))
        return kNaN;
    return latency_ms - fwd_ms[static_cast<std::size_t>(batch)];
}

/** Share of a whole (a training step) covered by its timed parts. */
inline double
attributedFrac(const std::vector<double> &parts, double whole)
{
    if (!(whole > 0))
        return kNaN;
    double sum = 0;
    for (double p : parts)
        sum += p;
    return sum / whole;
}

/** Run the statistics self-test; prints each failure, @return ok. */
bool selfTest();

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
