/**
 * @file
 * Shared scaffolding for the figure/table reproduction benches:
 * standard workload construction, device lists, and run helpers.
 *
 * Every bench prints the same rows/series the paper reports; the
 * scale (tuples per table) can be overridden with the RCNVM_TUPLES
 * environment variable.
 */

#ifndef RCNVM_BENCH_BENCH_COMMON_HH_
#define RCNVM_BENCH_BENCH_COMMON_HH_

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "olxp/serve/serve_scheduler.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/table_printer.hh"

namespace rcnvm::bench {

/** The command line a bench accepted (see handleUsage). */
struct BenchArgs {
    std::vector<std::string> flags; //!< declared flags given
    std::string positional;         //!< positional argument, or ""

    /** True when the declared flag @p flag was given. */
    bool
    has(std::string_view flag) const
    {
        return std::find(flags.begin(), flags.end(), flag) !=
               flags.end();
    }
};

/** Print bench @p name's usage block to @p os. */
inline void
printUsage(std::ostream &os, const std::string &name,
           const std::string &description,
           const std::vector<std::string> &options)
{
    os << "usage: " << name << " [--help]";
    for (const std::string &opt : options)
        os << " [" << opt.substr(0, opt.find(' ')) << "]";
    os << "\n\n" << description << "\n";
    if (!options.empty()) {
        os << "\noptions:\n";
        for (const std::string &opt : options)
            os << "  " << opt << "\n";
    }
    os <<
        "\nenvironment:\n"
        "  RCNVM_SEED          experiment seed (tables and request\n"
        "                      generators); same seed => identical\n"
        "                      statistics\n"
        "  RCNVM_TUPLES        tuples per benchmark table\n"
        "  RCNVM_STATS_DIR     write per-run stats CSV artifacts\n"
        "                      into this directory\n"
        "  RCNVM_EPOCH_TICKS   sample gauges every N ticks into an\n"
        "                      epoch series (exported with stats)\n"
        "  RCNVM_CHROME_TRACE  write a chrome://tracing JSON to this\n"
        "                      path\n";
}

/**
 * Standard command-line handling for the bench binaries.
 *
 * Each @p options line declares one argument by its first word: a
 * flag (`--smoke  reduced run`) or, in angle brackets, the bench's
 * one positional argument (`<trace.rtb>  trace file`). `--help` or
 * `-h` prints the usage block — the description, the option lines,
 * and the environment knobs every bench honours — to stdout and
 * exits 0. Any argument that is not declared prints the usage to
 * stderr and exits 2, before the bench simulates anything.
 */
inline BenchArgs
handleUsage(int argc, char **argv, const std::string &name,
            const std::string &description,
            const std::vector<std::string> &options = {})
{
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printUsage(std::cout, name, description, options);
            std::exit(0);
        }
    }

    bool takesPositional = false;
    std::vector<std::string> declared;
    for (const std::string &opt : options) {
        declared.push_back(opt.substr(0, opt.find(' ')));
        takesPositional = takesPositional || opt.starts_with('<');
    }

    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.starts_with('-')) {
            if (std::find(declared.begin(), declared.end(), arg) !=
                declared.end()) {
                args.flags.push_back(arg);
                continue;
            }
        } else if (takesPositional && args.positional.empty()) {
            args.positional = arg;
            continue;
        }
        std::cerr << name << ": unexpected argument '" << arg
                  << "'\n\n";
        printUsage(std::cerr, name, description, options);
        std::exit(2);
    }
    return args;
}

/** Tuples per benchmark table (override: RCNVM_TUPLES; malformed
 *  values are a fatal configuration error, not a silent 0). */
inline std::uint64_t
benchTuples(std::uint64_t fallback = 131072)
{
    return util::envUint64("RCNVM_TUPLES", fallback);
}

/** The four devices in the order the paper plots them. */
inline const std::vector<mem::DeviceKind> &
allDevices()
{
    static const std::vector<mem::DeviceKind> devices = {
        mem::DeviceKind::RcNvm,
        mem::DeviceKind::Rram,
        mem::DeviceKind::GsDram,
        mem::DeviceKind::Dram,
    };
    return devices;
}

/** The timed execution-time query set of Figures 18-21: the first
 *  workload::kTimedQueryCount entries of Table 2 (Q1-Q13). */
inline const std::vector<workload::QueryId> &
sqlQueries()
{
    static const std::vector<workload::QueryId> ids = [] {
        std::vector<workload::QueryId> v;
        v.reserve(workload::kTimedQueryCount);
        for (unsigned i = 0; i < workload::kTimedQueryCount; ++i)
            v.push_back(workload::allQueries()[i].id);
        return v;
    }();
    return ids;
}

/** "Q1-Q13"-style label of the timed suite, derived from the same
 *  constant the suite itself is built from. */
inline std::string
sqlSuiteLabel()
{
    return "Q1-Q" + std::to_string(workload::kTimedQueryCount);
}

/** Results of one query on every device. */
struct QueryRow {
    workload::QueryId id;
    std::vector<core::ExperimentResult> byDevice; // allDevices order
};

/**
 * Run the whole Q1-Q13 suite on all four devices and return the
 * grid of results (the shared input of Figures 18, 19, 20, 21).
 */
inline std::vector<QueryRow>
runSqlSuite(std::uint64_t tuples)
{
    util::setLogLevel(util::LogLevel::Quiet);
    const workload::TableSet tables =
        workload::TableSet::standard(tuples);
    const workload::QueryWorkload workload(tables);

    std::vector<QueryRow> rows;
    for (const auto id : sqlQueries()) {
        QueryRow row;
        row.id = id;
        for (const auto kind : allDevices()) {
            row.byDevice.push_back(
                core::runQuery(kind, workload, id));
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

/**
 * The OLXP service shape of ext_olxp_service and ext_hybrid_tier as a
 * serve-scheduler configuration. tenants[0] is the open-loop OLTP
 * tenant (callers set its oltpInterArrival per load point);
 * tenants[1], present when @p scans_in_flight > 0, is one shared
 * cursor keeping that many range scans of @p scan_tuples tuples over
 * the first @p scan_fields fields (0 = all) in flight. Pruning and
 * the SLO loop are off, so scans may take every core, but OLTP
 * requests still dispatch first.
 */
inline olxp::serve::ServeConfig
olxpServiceShape(unsigned scans_in_flight, std::uint64_t scan_tuples,
                 unsigned scan_fields, Tick horizon)
{
    olxp::serve::ServeConfig cfg;
    cfg.optimizer = false;
    cfg.slo = false;
    cfg.scanFields = scan_fields;
    cfg.horizon = horizon;
    cfg.runQueueCapacity = 64;

    olxp::serve::TenantConfig oltp;
    oltp.name = "oltp";
    oltp.cls = olxp::serve::TenantClass::OltpLatency;
    cfg.tenants.push_back(oltp);
    if (scans_in_flight > 0) {
        olxp::serve::TenantConfig olap;
        olap.name = "olap";
        olap.cls = olxp::serve::TenantClass::OlapThroughput;
        olap.streams = 1;
        olap.segmentParallelism = scans_in_flight;
        olap.segmentTuples = scan_tuples;
        cfg.tenants.push_back(olap);
    }
    return cfg;
}

/** One load point of a service sweep: the mean OLTP inter-arrival
 *  gap and the serve run at that load. */
struct ServicePoint {
    Tick interArrival{0};
    olxp::serve::ServeResult result;

    /** Offered load in requests per microsecond (1 us = 1e6 ticks). */
    double
    offered() const
    {
        return 1.0e6 / static_cast<double>(interArrival.value());
    }

    /** OLTP latency percentile @p pct (50/95/99) in ticks: the
     *  registered serve.oltpLatencyP<pct> log2-histogram formula,
     *  which knees and verdicts compare. */
    double
    oltpP(int pct) const
    {
        return result.run.stats.get("serve.oltpLatencyP" +
                                    std::to_string(pct));
    }
};

/** Saturation knee of @p sweep (lightest load first): the highest
 *  offered load whose OLTP p99 stays under twice the lightest load's
 *  p99 with no admission rejects; 0 when none does. */
inline double
serviceKnee(const std::vector<ServicePoint> &sweep)
{
    const double base = sweep.front().oltpP(99);
    double knee = 0;
    for (const ServicePoint &p : sweep) {
        if (p.oltpP(99) < 2.0 * base && p.result.oltpRejected == 0)
            knee = std::max(knee, p.offered());
    }
    return knee;
}

/** Shorthand for TablePrinter::num. */
inline std::string
num(double v, int precision = 2)
{
    return util::TablePrinter::num(v, precision);
}

} // namespace rcnvm::bench

#endif // RCNVM_BENCH_BENCH_COMMON_HH_
