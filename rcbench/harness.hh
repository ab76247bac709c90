/**
 * @file
 * Shared pieces of the repository benchmark: the in-memory span
 * tracer, the result digest, the per-layer statistic sums, and the
 * interface every workload implements.
 */

#ifndef RCBENCH_HARNESS_HH_
#define RCBENCH_HARNESS_HH_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/stats.hh"
#include "util/types.hh"

namespace rcbench {

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** CPU seconds this process has used (every thread, user plus
 *  system). Unlike wall time it leaves out the time the host gave
 *  this machine's CPUs to others. */
double processCpuSeconds();

/**
 * A fixed piece of host work shaped like the simulator's inner loop:
 * an event heap, a hash map of outstanding misses and a
 * set-associative tag array of 4 MB probed half at random, half in
 * sequence. It shares no code with the simulator, so a change to the
 * program cannot move it; its run time tracks only how fast the host
 * is at the moment. Returns a checksum of the work.
 */
std::uint64_t referenceWork();

/**
 * Spans recorded in memory around the benchmark's calls into each
 * library layer, written out once at exit. A span's parent is the
 * span open when it started; its point is the workload's
 * operation id (a (query, device) point, a pass, ...).
 */
class Tracer
{
  public:
    struct Span {
        std::string name;
        std::string layer;
        double start = 0; //!< seconds since the tracer was made
        double end = 0;
        int parent = -1;
        int point = -1;
    };

    int open(const std::string &name, const std::string &layer,
             int point);
    void close(int id);

    /** Summed duration of every span called @p name. */
    double total(const std::string &name) const;

    /** Per layer: span durations minus the time their child spans
     *  cover, summed over the spans below root spans named
     *  @p root (the roots included). */
    std::map<std::string, double> selfTimes(const std::string &root) const;

    /** Write every span as one JSON object per line. */
    void write(const std::string &path) const;

  private:
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span; does nothing when the tracer is null (untraced run). */
class Scope
{
  public:
    Scope(Tracer *tracer, const std::string &name,
          const std::string &layer, int point = -1)
        : tracer_(tracer),
          id_(tracer ? tracer->open(name, layer, point) : -1)
    {
    }
    ~Scope()
    {
        if (tracer_)
            tracer_->close(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer_;
    int id_;
};

/** FNV-1a digest over simulated results: ticks plus every stat. */
class Digest
{
  public:
    void add(std::uint64_t v);
    void add(const std::string &s);
    void add(double v);
    void add(rcnvm::Tick ticks, const rcnvm::util::StatsMap &stats);

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 14695981039346656037ull;
};

/** Simulator statistics summed over every simulation of a pass:
 *  the counts behind the per-layer metrics. */
struct LayerCounts {
    /** Raw counters, summed. */
    std::map<std::string, double> sums;
    /** mem.requests-weighted sum of mem.avgQueueWaitTicks. */
    double queueWaitWeighted = 0;
    /** Tick-weighted sum of mem.busUtilization. */
    double busUtilWeighted = 0;
    double ticks = 0;
    /** Events executed by the machines' queues. */
    std::uint64_t events = 0;

    void add(rcnvm::Tick run_ticks, const rcnvm::util::StatsMap &stats);
    double get(const std::string &name) const;
};

/** What one timed pass of a workload produced. */
struct PassResult {
    std::uint64_t digest = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    LayerCounts counts;
};

/** One reported metric. */
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/** Command-line options of one benchmark run. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Test scale: tiny inputs, so the benchmark's own tests run in
     *  seconds. */
    bool tiny = false;
    /** Perturb one expected value so one output check fails (the
     *  tests use it to show failures are counted). */
    bool injectFailure = false;
    /** Directory for the trace file and the span dump. */
    std::string workDir = ".";
};

/** Called by a workload between the units of work of a pass (the
 *  points of a sweep). The harness may take a reference sample there,
 *  outside the pass's timing, so a long pass is scaled by the host
 *  speed of its own moments. */
using Pause = std::function<void()>;

/**
 * A benchmark workload. The harness calls setup() a few times,
 * prepareChecks() once, then pass() repeatedly until the time budget
 * is spent, with more setup() calls after each pass. Every setup()
 * rebuilds the same inputs from the seed.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Generate the inputs from the seed (timed as set-up). */
    virtual void setup(Tracer *tracer) = 0;

    /** Untimed: compute the expected values the passes are checked
     *  against. May run simulations of its own; their operations
     *  count in @p attempted / @p failed. A traced run also takes
     *  its standalone layer measurements here. */
    virtual void prepareChecks(Tracer *tracer, std::uint64_t &attempted,
                               std::uint64_t &failed) = 0;

    /** One timed pass over the inputs, with its output checks. */
    virtual PassResult pass(Tracer *tracer, const Pause &pause) = 0;

    /** Workload-specific end-to-end metrics of the last pass. */
    virtual std::vector<Metric> resultMetrics() const = 0;

    /** Workload-specific per-layer metrics of the traced passes. */
    virtual std::vector<Metric>
    layerMetrics(const Tracer &tracer, unsigned setups,
                 unsigned traced_passes) const = 0;
};

std::unique_ptr<Workload> makeSqlSweep(const Options &opts);
std::unique_ptr<Workload> makeOlxpServe(const Options &opts);
std::unique_ptr<Workload> makeTraceRwMix(const Options &opts);

} // namespace rcbench

#endif // RCBENCH_HARNESS_HH_
