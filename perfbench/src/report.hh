/**
 * @file
 * What one benchmark run prints: a host fingerprint, human-readable
 * "name = value unit" lines, and, last, the one-line JSON result.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Command-line arguments of one run. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string git_sha = "unknown";
    std::string trace_out;  ///< where a traced run writes its spans
};

/**
 * The benchmark's spans, kept in memory: one per timed call into a
 * module, with the span that contains it as parent. Metrics are medians
 * of span durations by name; a traced run writes them out at the end
 * as Chrome trace-event JSON.
 */
class Spans
{
  public:
    /** Open a span; @return its id. */
    int begin(const std::string &name, int parent = -1);
    /** Close span @p id; @return its duration, ms. */
    double end(int id);
    /** Run @p fn inside a span; @return the span's duration, ms. */
    template <typename Fn>
    double
    time(const std::string &name, int parent, Fn &&fn)
    {
        int id = begin(name, parent);
        fn();
        return end(id);
    }
    /** Durations (ms) of every closed span named @p name. */
    std::vector<double> ms(const std::string &name) const;
    /** Write every span as a Chrome "X" event; @return success. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        int parent;
        std::int64_t start_ns, end_ns;
    };
    std::vector<Span> spans_;
};

class Report
{
  public:
    /** A metric that goes into the JSON result (and is printed). */
    void metric(const std::string &name, double value,
                const std::string &unit);
    /** A figure printed for people only (issue-level aliases, counts). */
    void info(const std::string &name, double value,
              const std::string &unit);
    /** Print a sample's median, its highest supported percentile and
     *  its size as <name>.p50, <name>.p<q> and <name>.n. */
    void distribution(const std::string &name,
                      const std::vector<double> &samples,
                      const std::string &unit);
    /** A free-form line ("engines conv0.fp: direct x3"). */
    void note(const std::string &line);

    /** Count @p attempted checked operations of which @p failed went
     *  wrong (each failure also goes to stderr with @p what). */
    void count(std::int64_t attempted, std::int64_t failed,
               const std::string &what);
    /** One checked operation; a false @p ok is a failure. */
    void check(bool ok, const std::string &what)
    {
        count(1, ok ? 0 : 1, what);
    }
    std::int64_t attempted() const { return attempted_; }
    std::int64_t failed() const { return failed_; }

    /** Tally which engine ran where ("conv0.fp" -> engine -> count). */
    void engine(const std::string &slot, const std::string &name);
    /** Print the engine tally as note lines. */
    void printEngines();

    Spans &spans() { return spans_; }

    /** Print the last line: {"correct", "attempted", "failed",
     *  "metrics"}. @return true when every check passed and every
     *  metric is finite. */
    bool finish();

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::map<std::string, std::map<std::string, int>> engines_;
    Spans spans_;
    std::int64_t attempted_ = 0;
    std::int64_t failed_ = 0;
};

/** Print the host fingerprint (CPU, cores, sha, build type). */
void printFingerprint(const Args &args);

/** Peak resident set size of this process, MiB. */
double peakRssMib();

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
