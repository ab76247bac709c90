/**
 * @file
 * Figure 21 reproduction: the cache synonym and coherence overhead
 * that RC-NVM's dual addressing introduces, as a fraction of each
 * query's execution time.
 *
 * Paper anchor: 0.2% to 3.4% across Q1-Q13, ~1.06% on average.
 */

#include <iostream>

#include "bench_common.hh"

using namespace rcnvm;

int
main(int argc, char **argv)
{
    bench::handleUsage(
        argc, argv, "fig21_coherence",
        "Figure 21 reproduction: cache synonym and coherence overhead of\n"
        "RC-NVM's dual addressing, as a fraction of each query's time.");

    util::setLogLevel(util::LogLevel::Quiet);
    const workload::TableSet tables =
        workload::TableSet::standard(bench::benchTuples());
    const workload::QueryWorkload workload(tables);

    util::TablePrinter t(
        "Figure 21: cache synonym + coherence overhead ratio "
        "(RC-NVM)");
    t.addRow({"query", "overhead", "synonym probes",
              "crossed updates"});
    double sum = 0, max_ratio = 0, min_ratio = 1;
    for (const auto id : bench::sqlQueries()) {
        const auto r =
            core::runQuery(mem::DeviceKind::RcNvm, workload, id);
        const double ratio = r.coherenceOverheadRatio();
        sum += ratio;
        max_ratio = std::max(max_ratio, ratio);
        min_ratio = std::min(min_ratio, ratio);
        t.addRow({workload::querySpec(id).name,
                  bench::num(100.0 * ratio, 2) + "%",
                  bench::num(r.stats.at("cache.synonymProbes"), 0),
                  bench::num(r.stats.at("cache.synonymUpdates"),
                             0)});
    }
    t.print(std::cout);

    const double mean =
        sum / static_cast<double>(bench::sqlQueries().size());
    std::cout << "\nrange " << bench::num(100.0 * min_ratio, 2)
              << "% - " << bench::num(100.0 * max_ratio, 2)
              << "%, mean " << bench::num(100.0 * mean, 2)
              << "% (paper anchors: 0.2% - 3.4%, mean 1.06%).\n";
    return 0;
}
