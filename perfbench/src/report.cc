#include "report.hh"

#include "stats.hh"

#include <chrono>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

/** Shortest round-trip decimal form: every digit the value has. */
std::string
number(double v)
{
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

void
printLine(const std::string &name, double value, const std::string &unit)
{
    std::printf("%-28s = %s %s\n", name.c_str(), number(value).c_str(),
                unit.c_str());
}

/** CPU brand string from CPUID: no file outside the checkout is read. */
std::string
cpuModel()
{
#if defined(__x86_64__)
    unsigned int regs[12] = {};
    unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
    if (max_ext >= 0x80000004u) {
        for (unsigned int i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        std::size_t b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

int
Spans::begin(const std::string &name, int parent)
{
    spans_.push_back(Span{name, parent, nowNs(), -1});
    return static_cast<int>(spans_.size()) - 1;
}

double
Spans::end(int id)
{
    Span &s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = nowNs();
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
}

std::vector<double>
Spans::ms(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.end_ns >= 0 && s.name == name)
            out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    return out;
}

bool
Spans::write(const std::string &path) const
{
    std::ofstream f(path);
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    const char *sep = "\n";
    f << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.end_ns < 0)
            continue;
        f << sep << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << number(static_cast<double>(s.start_ns - t0) * 1e-3)
          << ", \"dur\": "
          << number(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
          << "}}";
        sep = ",\n";
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_.push_back(Metric{name, value, unit});
    printLine(name, value, unit);
}

void
Report::info(const std::string &name, double value, const std::string &unit)
{
    printLine(name, value, unit);
}

void
Report::distribution(const std::string &name,
                      const std::vector<double> &samples,
                      const std::string &unit)
{
    auto n = static_cast<std::int64_t>(samples.size());
    printLine(name + ".p50", median(samples), unit);
    double q = highestPercentile(n);
    if (!std::isnan(q)) {
        char label[16];
        std::snprintf(label, sizeof(label), ".p%g", q * 100);
        printLine(name + label, percentile(samples, q), unit);
    }
    printLine(name + ".n", static_cast<double>(n), "count");
}

void
Report::note(const std::string &line)
{
    std::printf("# %s\n", line.c_str());
}

void
Report::count(std::int64_t attempted, std::int64_t failed,
              const std::string &what)
{
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0)
        std::fprintf(stderr, "perfbench: %lld of %lld failed: %s\n",
                     static_cast<long long>(failed),
                     static_cast<long long>(attempted), what.c_str());
}

void
Report::engine(const std::string &slot, const std::string &name)
{
    ++engines_[slot][name];
}

void
Report::printEngines()
{
    for (const auto &[slot, counts] : engines_) {
        std::string line = "engines " + slot + ":";
        for (const auto &[name, n] : counts)
            line += " " + name + " x" + std::to_string(n);
        note(line);
    }
    engines_.clear();
}

bool
Report::finish()
{
    bool finite = true;
    std::string json;
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                         m.name.c_str());
            finite = false;
        }
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                (std::isfinite(m.value) ? number(m.value) : "null") +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    bool correct = finite && failed_ == 0 && attempted_ > 0;
    json = "{\"correct\": " + std::string(correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted_) +
           ", \"failed\": " + std::to_string(failed_) +
           ", \"metrics\": {" + json + "}}";
    std::printf("fail_frac                    = %s (failed %lld of %lld)\n",
                number(attempted_ ? static_cast<double>(failed_) /
                                        static_cast<double>(attempted_)
                                  : 0.0)
                    .c_str(),
                static_cast<long long>(failed_),
                static_cast<long long>(attempted_));
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct;
}

void
printFingerprint(const Args &args)
{
    std::printf("# host cpu=\"%s\" nproc=%ld governor=unread "
                "git=%s build=%s\n",
                cpuModel().c_str(), sysconf(_SC_NPROCESSORS_ONLN),
                args.git_sha.c_str(), PERFBENCH_BUILD_TYPE);
    std::printf("# run workload=%s seed=%llu seconds=%s trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                number(args.seconds).c_str(), args.trace ? 1 : 0);
}

double
peakRssMib()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

} // namespace perfbench
