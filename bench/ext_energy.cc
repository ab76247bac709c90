/**
 * @file
 * Extension bench: memory energy per query. The paper evaluates
 * performance only; this harness applies representative
 * per-command energies (activations, bursts, cell write pulses) to
 * the timed Q1-Q13 suite (workload::kTimedQueryCount; the engine
 * compiles all of Q1-Q15, but Q14/Q15 are the group-caching
 * studies) and reports microjoules per query.
 *
 * Expectation: RC-NVM's access-count reduction translates into an
 * energy reduction on the scan-dominated queries despite the more
 * expensive NVM write pulses.
 */

#include <iostream>

#include "bench_common.hh"

using namespace rcnvm;

int
main(int argc, char **argv)
{
    bench::handleUsage(
        argc, argv, "ext_energy",
        "Extension bench: memory energy per query of the timed SQL suite\n"
        "on RC-NVM, RRAM, GS-DRAM, and DRAM, in microjoules.");

    const auto rows = bench::runSqlSuite(bench::benchTuples());

    util::TablePrinter t(
        "Extension: memory energy per query (uJ)");
    t.addRow({"query", "RC-NVM", "RRAM", "GS-DRAM", "DRAM",
              "DRAM/RC"});
    double rc_sum = 0, dram_sum = 0;
    for (const auto &row : rows) {
        std::vector<std::string> cells = {
            workload::querySpec(row.id).name};
        for (const auto &r : row.byDevice) {
            cells.push_back(bench::num(
                r.stats.at("mem.energyPJ") / 1.0e6, 2));
        }
        const double rc = row.byDevice[0].stats.at("mem.energyPJ");
        const double dram =
            row.byDevice[3].stats.at("mem.energyPJ");
        rc_sum += rc;
        dram_sum += dram;
        cells.push_back(bench::num(dram / rc, 2) + "x");
        t.addRow(cells);
    }
    t.print(std::cout);

    std::cout << "\ntotal: RC-NVM uses "
              << bench::num(100.0 * rc_sum / dram_sum, 1)
              << "% of DRAM's memory energy across "
              << bench::sqlSuiteLabel() << ".\n";
    return 0;
}
