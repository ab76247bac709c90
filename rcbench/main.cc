/**
 * @file
 * The repository benchmark program. Runs one workload:
 *
 *   rcbench --workload <sql_sweep|olxp_serve|trace_rw_mix>
 *           --seed <n> --seconds <s> --trace <0|1>
 *           [--work-dir <dir>] [--tiny] [--inject-failure]
 *
 * Timed passes start until --seconds have elapsed (median reported).
 * Set-up runs a few times first and again after every pass (median
 * reported), so set-up time is sampled across the whole run, as pass
 * time is. Pass and set-up times are CPU seconds of the process,
 * scaled to a fixed host speed: the one at which a fixed reference
 * work (referenceWork, interleaved with set-ups and passes) takes
 * kReferenceSeconds. The shared host's speed drifts by
 * more than the bounds over minutes, and the reference drifts with
 * it. With --trace 1, untraced and traced passes alternate, so the
 * run also measures the tracing overhead. The last stdout line is
 * one JSON object: {"correct", "attempted", "failed", "metrics"}
 * with the end-to-end metrics (trace 0) or the per-layer metrics
 * (trace 1).
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <malloc.h>
#include <map>
#include <optional>
#include <string>
#include <sys/resource.h>

#include "harness.hh"
#include "util/logging.hh"
#include "util/random.hh"

extern char **environ;

namespace {

using namespace rcbench;

/** Set-ups before the first pass. They build the inputs the
 *  passes check against and warm the allocator up; the first set-up
 *  of a process touches fresh memory and is slower, so these are
 *  not counted in setup_s. */
constexpr unsigned kFirstSetups = 2;

/** After each pass, set-ups repeat until their summed time reaches
 *  this share of the summed pass time. Spreading them over the run
 *  makes setup_s, their median, see the same host speed as pass_s. */
constexpr double kSetupShare = 0.1;

/** After each pass, reference samples repeat until their summed CPU
 *  time reaches this share of the summed pass time (one also follows
 *  every set-up). */
constexpr double kReferenceShare = 0.1;

/** A pass that pauses between its units of work takes a reference
 *  sample at the first pause after this many CPU seconds. */
constexpr double kReferenceEvery = 0.5;

/** A set-up or a stretch of a pass is scaled by up to this many
 *  reference samples on either side of it. */
constexpr std::size_t kReferenceWindow = 4;

/** CPU seconds referenceWork() takes at the speed host times are
 *  scaled to: about its median on the 4-vCPU Xeon VM of the README's
 *  baseline, whose speed drifts between 0.03 and 0.055 s. */
constexpr double kReferenceSeconds = 0.04;

/** Keeps referenceWork() from being optimised away. */
volatile std::uint64_t referenceSink;

/** A metric of the JSON result line. */
struct Reported {
    const char *name;
    const char *unit;
};

const Reported kEndToEnd[] = {
    {"pass_s", "s"},
    {"setup_s", "s"},
    {"mops_per_s", "ops/s"},
    {"peak_rss_mb", "MB"},
};

/** Per-layer metrics of the JSON line (BENCHMARK.json per_layer).
 *  Each is defined on every workload: a count of work a workload
 *  does not do reads 0. Layer times that exist on only some
 *  workloads are printed as metric lines instead. */
const Reported kPerLayer[] = {
    {"cpu.machine_build_s", "s"},
    {"cpu.simulate_s", "s"},
    {"cpu.host_ns_per_memop", "ns"},
    {"cpu.memOps", "count"},
    {"cpu.retries", "count"},
    {"cpu.retryStallTicks", "ticks"},
    {"sim.events", "count"},
    {"sim.events_per_memreq", "ratio"},
    {"sim.host_ns_per_event", "ns"},
    {"cache.accesses", "count"},
    {"cache.l1_hit_ratio", "ratio"},
    {"cache.l2_hit_ratio", "ratio"},
    {"cache.llc_hit_ratio", "ratio"},
    {"cache.llcMisses", "count"},
    {"cache.mshrCoalesced", "count"},
    {"cache.retries", "count"},
    {"cache.cohInvalidations", "count"},
    {"cache.synonymProbes", "count"},
    {"cache.synonym_probes_per_memop", "ratio"},
    {"cache.writebacks", "count"},
    {"mem.requests", "count"},
    {"mem.write_frac", "ratio"},
    {"mem.buffer_hit_ratio", "ratio"},
    {"mem.orientationSwitches", "count"},
    {"mem.avgQueueWaitTicks", "ticks"},
    {"mem.busUtilization", "ratio"},
    {"mem.rejectedIssues", "count"},
    {"workload.compiled_ops", "count"},
    {"olxp.oltp_generated", "count"},
    {"olxp.oltp_rejected", "count"},
    {"olxp.segments", "count"},
    {"olxp.stream_scans", "count"},
    {"olxp.prune_ratio", "ratio"},
    {"olxp.slo_breaches", "count"},
    {"trace.records", "count"},
    {"trace.remaps", "count"},
    {"bench.self_s", "s"},
    {"tracing.overhead_s", "s"},
    {"tracing.overhead_frac", "ratio"},
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "rcbench: " << why
              << "\nusage: rcbench --workload "
                 "<sql_sweep|olxp_serve|trace_rw_mix> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir <dir>] "
                 "[--tiny] [--inject-failure]\n";
    std::exit(2);
}

std::uint64_t
parseNumber(const char *flag, const char *text)
{
    std::uint64_t v = 0;
    if (rcnvm::util::parseUint64(text, v) != rcnvm::util::ParseUint::Ok)
        usage(std::string("malformed ") + flag + " value '" + text + "'");
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            o.seed = parseNumber("--seed", value());
            haveSeed = true;
        } else if (a == "--seconds") {
            o.seconds = static_cast<double>(
                parseNumber("--seconds", value()));
            haveSeconds = true;
        } else if (a == "--trace") {
            const std::uint64_t t = parseNumber("--trace", value());
            if (t > 1)
                usage("--trace takes 0 or 1");
            o.trace = t == 1;
            haveTrace = true;
        } else if (a == "--work-dir") {
            o.workDir = value();
        } else if (a == "--tiny") {
            o.tiny = true;
        } else if (a == "--inject-failure") {
            o.injectFailure = true;
        } else {
            usage("unknown argument '" + a + "'");
        }
    }
    if (o.workload.empty() || !haveSeed || !haveSeconds || !haveTrace)
        usage("--workload, --seed, --seconds and --trace are required");
    if (o.seconds < 1)
        usage("--seconds must be at least 1");
    return o;
}

/** The library reads RCNVM_* variables (threads, seed, tuples,
 *  epoch sampling, tracing, artifact dirs); only the arguments may
 *  define the workload, so refuse to run with any of them set. */
void
refuseLibraryEnvironment()
{
    bool found = false;
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "RCNVM_", 6) == 0) {
            const char *eq = std::strchr(*e, '=');
            std::cerr << "rcbench: "
                      << std::string(*e, eq ? eq - *e : std::strlen(*e))
                      << " is set; the benchmark's arguments alone "
                         "define its workload\n";
            found = true;
        }
    }
    if (found)
        std::exit(2);
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** The per-layer metrics every workload has, from a traced pass's
 *  statistics (every pass repeats them) and the traced passes'
 *  spans. */
std::vector<Metric>
layerMetrics(const LayerCounts &c, const Tracer &tracer,
             unsigned traced_passes)
{
    const double n = traced_passes;
    const double simulate = tracer.total("simulate") / n;
    const double memOps = c.get("cpu.memOps");
    const double events = static_cast<double>(c.events);
    const double requests = c.get("mem.requests");
    const double accesses = c.get("cache.accesses");
    const double l1 = c.get("cache.l1Hits");
    const double l3 = c.get("cache.l3Hits");
    std::vector<Metric> m = {
        {"cpu.machine_build_s", tracer.total("machine_build") / n, "s"},
        {"cpu.simulate_s", simulate, "s"},
        {"cpu.host_ns_per_memop", ratio(simulate * 1e9, memOps), "ns"},
        {"cpu.memOps", memOps, "count"},
        {"cpu.retries", c.get("cpu.retries"), "count"},
        {"cpu.retryStallTicks", c.get("cpu.retryStallTicks"), "ticks"},
        {"sim.events", events, "count"},
        {"sim.events_per_memreq", ratio(events, requests), "ratio"},
        {"sim.host_ns_per_event", ratio(simulate * 1e9, events), "ns"},
        {"cache.accesses", accesses, "count"},
        {"cache.l1_hit_ratio", ratio(l1, accesses), "ratio"},
        {"cache.l2_hit_ratio", ratio(c.get("cache.l2Hits"), accesses - l1),
         "ratio"},
        {"cache.llc_hit_ratio", ratio(l3, l3 + c.get("cache.llcMisses")),
         "ratio"},
        {"cache.llcMisses", c.get("cache.llcMisses"), "count"},
        {"cache.mshrCoalesced", c.get("cache.mshrCoalesced"), "count"},
        {"cache.retries", c.get("cache.retries"), "count"},
        {"cache.cohInvalidations", c.get("cache.cohInvalidations"),
         "count"},
        {"cache.synonymProbes", c.get("cache.synonymProbes"), "count"},
        {"cache.synonym_probes_per_memop",
         ratio(c.get("cache.synonymProbes"), memOps), "ratio"},
        {"cache.writebacks", c.get("cache.writebacks"), "count"},
        {"mem.requests", requests, "count"},
        {"mem.write_frac", ratio(c.get("mem.writes"), requests), "ratio"},
        {"mem.buffer_hit_ratio",
         ratio(c.get("mem.bufferHits"),
               c.get("mem.bufferHits") + c.get("mem.bufferMisses")),
         "ratio"},
        {"mem.orientationSwitches", c.get("mem.orientationSwitches"),
         "count"},
        {"mem.avgQueueWaitTicks", ratio(c.queueWaitWeighted, requests),
         "ticks"},
        {"mem.busUtilization", ratio(c.busUtilWeighted, c.ticks),
         "ratio"},
        {"mem.rejectedIssues", c.get("mem.rejectedIssues"), "count"},
    };
    for (const auto &[layer, self] : tracer.selfTimes("pass"))
        m.push_back({layer + ".self_s", self / n, "s"});
    return m;
}

void
printMetricLines(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("metric %s %.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

/** The result line: @p reported fixes the metric set, order and
 *  units; a name missing from @p metrics reads 0. */
template <std::size_t N>
void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric> &metrics, const Reported (&reported)[N])
{
    std::map<std::string, double> byName;
    for (const Metric &m : metrics)
        byName[m.name] = m.value;
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < N; ++i) {
        const auto it = byName.find(reported[i].name);
        const double v = it == byName.end() ? 0.0 : it->second;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", reported[i].name,
                    std::isfinite(v) ? v : 0.0, reported[i].unit);
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    refuseLibraryEnvironment();
    const Options opts = parseArgs(argc, argv);
    // Keep freed memory in the process: large blocks would otherwise
    // be mapped afresh and faulted in on every set-up and pass, and
    // on a VM the cost of a page fault varies with the host's memory
    // state, from run to run.
    mallopt(M_MMAP_THRESHOLD, 1 << 30);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    rcnvm::util::setLogLevel(rcnvm::util::LogLevel::Quiet);

    std::unique_ptr<Workload> workload;
    if (opts.workload == "sql_sweep")
        workload = makeSqlSweep(opts);
    else if (opts.workload == "olxp_serve")
        workload = makeOlxpServe(opts);
    else if (opts.workload == "trace_rw_mix")
        workload = makeTraceRwMix(opts);
    else
        usage("unknown workload '" + opts.workload + "'");

    Tracer tracer;
    Tracer *const traced = opts.trace ? &tracer : nullptr;

    // Reference samples, in the order they ran. The first call of
    // referenceWork allocates its table, so it is left out.
    std::vector<double> refs;
    double refTotal = 0;
    referenceSink = referenceWork();
    const auto runReference = [&](Tracer *t) {
        Scope s(t, "reference", "reference");
        const double c0 = processCpuSeconds();
        referenceSink = referenceWork();
        refs.push_back(processCpuSeconds() - c0);
        refTotal += refs.back();
    };

    // Set-ups after the first pass are timed.
    std::vector<double> setupCpus;
    std::vector<std::size_t> setupRefs; // reference samples before each
    double setupTotal = 0;
    unsigned setupCount = 0;
    const auto runSetup = [&](bool timed) {
        const double c0 = processCpuSeconds();
        {
            Scope s(traced, "setup", "bench", static_cast<int>(setupCount));
            workload->setup(traced);
        }
        ++setupCount;
        if (timed) {
            setupCpus.push_back(processCpuSeconds() - c0);
            setupRefs.push_back(refs.size());
            setupTotal += setupCpus.back();
        }
        runReference(nullptr);
    };
    for (unsigned i = 0; i < kFirstSetups; ++i)
        runSetup(false);

    std::uint64_t attempted = 0, failed = 0;
    workload->prepareChecks(traced, attempted, failed);

    // A timed stretch of a pass: its CPU seconds, and how many
    // reference samples ran before it.
    struct Segment {
        double cpu;
        std::size_t refsBefore;
    };
    struct Pass {
        bool traced;
        std::vector<Segment> segments;
    };

    // Timed passes until the budget is spent; with tracing on,
    // untraced and traced passes alternate. Every pass must repeat
    // the first one's digest exactly.
    std::vector<Pass> passes;
    double passTotal = 0, peakRss = 0;
    std::optional<std::uint64_t> digest;
    bool deterministic = true;
    LayerCounts plainCounts, tracedCounts;
    const auto start = Clock::now();
    for (unsigned i = 0;; ++i) {
        Pass &pass = passes.emplace_back();
        pass.traced = opts.trace && i % 2 == 1;
        Tracer *const t = pass.traced ? &tracer : nullptr;
        double segmentStart = processCpuSeconds();
        const auto endSegment = [&] {
            const double now = processCpuSeconds();
            pass.segments.push_back({now - segmentStart, refs.size()});
            passTotal += now - segmentStart;
        };
        const Pause pause = [&] {
            if (processCpuSeconds() - segmentStart < kReferenceEvery)
                return;
            endSegment();
            runReference(t);
            segmentStart = processCpuSeconds();
        };
        PassResult r;
        {
            Scope s(t, "pass", "bench", static_cast<int>(i));
            r = workload->pass(t, pause);
        }
        endSegment();
        (pass.traced ? tracedCounts : plainCounts) = r.counts;
        if (!digest) {
            digest = r.digest;
        } else if (r.digest != *digest) {
            deterministic = false;
            r.failed = r.attempted;
        }
        attempted += r.attempted;
        failed += r.failed;

        // Peak RSS up to here: the first set-ups and one pass. The
        // later set-ups run a time-dependent number of times, and
        // the allocator's peak would vary with that count.
        if (i == 0)
            peakRss = peakRssMb();

        // Set-ups rebuild the same inputs from the seed, so the next
        // pass still repeats the digest.
        do {
            runSetup(true);
        } while (setupTotal < kSetupShare * passTotal);
        while (refTotal < kReferenceShare * passTotal)
            runReference(nullptr);

        // Start passes until the budget is spent, so a run measures
        // at least --seconds even when its passes are long.
        const bool covered = passes.size() >= (opts.trace ? 2 : 1);
        if (covered && secondsSince(start) >= opts.seconds)
            break;
    }

    // Pass and set-up times are scaled to the host speed at which
    // the reference work takes kReferenceSeconds. The speed drifts
    // within a run too, so each set-up, and each segment of a pass, is
    // scaled by the reference samples nearest to it.
    const auto speedAround = [&](std::size_t at) {
        const std::size_t first = at > kReferenceWindow
                                      ? at - kReferenceWindow : 0;
        const std::size_t last = std::min(refs.size(), at + kReferenceWindow);
        return kReferenceSeconds /
               median(std::vector<double>(refs.begin() + first,
                                          refs.begin() + last));
    };
    const double speed = kReferenceSeconds / median(refs);
    std::vector<double> plainCpus, plainScaled, tracedScaled, setupScaled;
    for (std::size_t j = 0; j < setupCpus.size(); ++j)
        setupScaled.push_back(setupCpus[j] * speedAround(setupRefs[j]));
    for (const Pass &pass : passes) {
        double cpu = 0, scaled = 0;
        for (const Segment &seg : pass.segments) {
            cpu += seg.cpu;
            scaled += seg.cpu * speedAround(seg.refsBefore);
        }
        (pass.traced ? tracedScaled : plainScaled).push_back(scaled);
        if (!pass.traced)
            plainCpus.push_back(cpu);
    }

    std::printf("workload %s seed %" PRIu64
                " passes %zu traced_passes %zu setups %u references %zu\n",
                opts.workload.c_str(), opts.seed, plainScaled.size(),
                tracedScaled.size(), setupCount, refs.size());
    std::printf("digest %s %016" PRIx64 "\n", opts.workload.c_str(),
                *digest);
    const auto printSamples = [](const char *name,
                                 const std::vector<double> &v) {
        std::printf("%s", name);
        for (const double x : v)
            std::printf(" %.4f", x);
        std::printf("\n");
    };
    printSamples("pass_cpu_s", plainCpus);
    printSamples("setup_cpu_s", setupCpus);
    printSamples("reference_cpu_s", refs);
    if (!deterministic)
        std::printf("check FAILED: passes disagree on the digest\n");

    const double pass = median(plainScaled);
    const std::vector<Metric> endToEnd = {
        {"pass_s", pass, "s"},
        {"setup_s", median(setupScaled), "s"},
        {"mops_per_s", ratio(plainCounts.get("cpu.memOps"), pass), "ops/s"},
        {"peak_rss_mb", peakRss, "MB"},
    };
    printMetricLines(endToEnd);
    printMetricLines({
        {"host.pass_cpu_s", median(plainCpus), "s"},
        {"host.setup_cpu_s", median(setupCpus), "s"},
        {"host.reference_cpu_s", median(refs), "s"},
        {"host.speed", speed, "ratio"},
    });
    printMetricLines(workload->resultMetrics());

    const bool correct = deterministic && failed == 0;
    if (!opts.trace) {
        printJson(correct, attempted, failed, endToEnd, kEndToEnd);
        return 0;
    }

    const auto tracedPasses = static_cast<unsigned>(tracedScaled.size());
    std::vector<Metric> layers =
        layerMetrics(tracedCounts, tracer, tracedPasses);
    for (Metric &m :
         workload->layerMetrics(tracer, setupCount, tracedPasses))
        layers.push_back(std::move(m));
    // Span times, like pass_s, are scaled to the reference speed (the
    // run's, as spans add up over many passes).
    for (Metric &m : layers) {
        if (m.unit == "s" || m.unit == "ns")
            m.value *= speed;
    }
    const double tracedPass = median(tracedScaled);
    layers.push_back({"tracing.pass_s", tracedPass, "s"});
    layers.push_back({"tracing.overhead_s", tracedPass - pass, "s"});
    layers.push_back(
        {"tracing.overhead_frac", ratio(tracedPass - pass, pass), "ratio"});
    printMetricLines(layers);

    const std::string spans =
        opts.workDir + "/rcbench_spans." + opts.workload + ".jsonl";
    tracer.write(spans);
    std::printf("spans %s\n", spans.c_str());
    printJson(correct, attempted, failed, layers, kPerLayer);
    return 0;
}
