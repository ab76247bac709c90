/**
 * @file
 * Figure 19 reproduction: number of memory accesses (LLC misses,
 * x10^3) per query on the four devices.
 *
 * Paper anchor: RC-NVM's LLC misses are less than a third of
 * DRAM's on average.
 */

#include <iostream>

#include "bench_common.hh"

using namespace rcnvm;

int
main(int argc, char **argv)
{
    bench::handleUsage(
        argc, argv, "fig19_llc_misses",
        "Figure 19 reproduction: memory accesses (LLC misses) per query\n"
        "on RC-NVM, RRAM, GS-DRAM, and DRAM.");

    const auto rows = bench::runSqlSuite(bench::benchTuples());

    util::TablePrinter t("Figure 19: LLC misses (x10^3)");
    t.addRow({"query", "RC-NVM", "RRAM", "GS-DRAM", "DRAM"});
    double rc_sum = 0, dram_sum = 0;
    for (const auto &row : rows) {
        rc_sum += row.byDevice[0].llcMisses();
        dram_sum += row.byDevice[3].llcMisses();
        std::vector<std::string> cells = {
            workload::querySpec(row.id).name};
        for (const auto &r : row.byDevice)
            cells.push_back(bench::num(r.llcMisses() / 1000.0, 1));
        t.addRow(cells);
    }
    t.print(std::cout);

    std::cout << "\nRC-NVM/DRAM LLC-miss ratio overall: "
              << bench::num(rc_sum / dram_sum, 3)
              << " (paper anchor: < 1/3 on average).\n";
    return 0;
}
