/**
 * @file
 * Figure 20 reproduction: combined row-/column-buffer miss rate per
 * query on the four devices.
 *
 * Paper anchor: RC-NVM achieves a ~38% decline in total buffer miss
 * rate versus the baselines.
 */

#include <iostream>

#include "bench_common.hh"

using namespace rcnvm;

int
main(int argc, char **argv)
{
    bench::handleUsage(
        argc, argv, "fig20_buffer_miss",
        "Figure 20 reproduction: combined row-/column-buffer miss rate\n"
        "per query on RC-NVM, RRAM, GS-DRAM, and DRAM.");

    const auto rows = bench::runSqlSuite(bench::benchTuples());

    // The paper's Figure-20 axis extends past 100%, indicating the
    // per-query totals are normalised (we use DRAM = 100%); the raw
    // per-request rates are printed alongside.
    const auto misses = [](const core::ExperimentResult &r) {
        return r.stats.at("mem.bufferMisses") +
               r.stats.at("mem.bufferConflicts") +
               r.stats.at("mem.orientationSwitches");
    };

    util::TablePrinter t(
        "Figure 20: row-/column-buffer misses "
        "(normalised to DRAM; raw per-request rate in brackets)");
    t.addRow({"query", "RC-NVM", "RRAM", "GS-DRAM", "DRAM"});
    double rc_sum = 0, dram_sum = 0;
    for (const auto &row : rows) {
        const double dram_misses =
            std::max(1.0, misses(row.byDevice[3]));
        rc_sum += misses(row.byDevice[0]);
        dram_sum += dram_misses;
        std::vector<std::string> cells = {
            workload::querySpec(row.id).name};
        for (const auto &r : row.byDevice) {
            cells.push_back(
                bench::num(100.0 * misses(r) / dram_misses, 0) +
                "% (" +
                bench::num(100.0 * r.bufferMissRate(), 1) + "%)");
        }
        t.addRow(cells);
    }
    t.print(std::cout);

    std::cout << "\ntotal buffer misses: RC-NVM at "
              << bench::num(100.0 * rc_sum / dram_sum, 1)
              << "% of DRAM, a "
              << bench::num(100.0 * (1.0 - rc_sum / dram_sum), 1)
              << "% decline (paper anchor: ~38% decline).\n";
    return 0;
}
