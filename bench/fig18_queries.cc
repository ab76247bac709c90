/**
 * @file
 * Figure 18 reproduction: execution time of Q1-Q13 on RC-NVM,
 * RRAM, GS-DRAM, and DRAM.
 *
 * Paper anchors: RC-NVM reduces execution time by ~71% vs RRAM and
 * ~67% vs DRAM on average; best case Q6 (14.5x / 13.3x); Q3 is the
 * only query where DRAM wins; GS-DRAM only helps where power-of-2
 * gathers apply (Q1/Q4/Q6, table-a).
 */

#include <iostream>

#include "bench_common.hh"

using namespace rcnvm;

int
main(int argc, char **argv)
{
    bench::handleUsage(
        argc, argv, "fig18_queries",
        "Figure 18 reproduction: execution time of the Q1-Q13 "
        "SQL suite on\nRC-NVM, RRAM, GS-DRAM, and DRAM.");

    const auto rows = bench::runSqlSuite(bench::benchTuples());

    core::ArtifactWriter artifacts("fig18_queries");
    for (const auto &row : rows) {
        for (std::size_t d = 0; d < row.byDevice.size(); ++d) {
            artifacts.record(
                std::string(workload::querySpec(row.id).name) + "." +
                    mem::toString(bench::allDevices()[d]),
                row.byDevice[d]);
        }
    }

    util::TablePrinter t(
        "Figure 18: SQL benchmark execution time (Mcycles)");
    t.addRow({"query", "RC-NVM", "RRAM", "GS-DRAM", "DRAM",
              "RRAM/RC", "DRAM/RC"});
    double rc_sum = 0, rram_sum = 0, gs_sum = 0, dram_sum = 0;
    for (const auto &row : rows) {
        const double rc = row.byDevice[0].megacycles();
        const double rram = row.byDevice[1].megacycles();
        const double gs = row.byDevice[2].megacycles();
        const double dram = row.byDevice[3].megacycles();
        rc_sum += rc;
        rram_sum += rram;
        gs_sum += gs;
        dram_sum += dram;
        t.addRow({workload::querySpec(row.id).name, bench::num(rc),
                  bench::num(rram), bench::num(gs),
                  bench::num(dram), bench::num(rram / rc, 2) + "x",
                  bench::num(dram / rc, 2) + "x"});
    }
    t.addRow({"sum", bench::num(rc_sum), bench::num(rram_sum),
              bench::num(gs_sum), bench::num(dram_sum),
              bench::num(rram_sum / rc_sum, 2) + "x",
              bench::num(dram_sum / rc_sum, 2) + "x"});
    t.print(std::cout);

    std::cout << "\nmean execution-time reduction: "
              << bench::num(100.0 * (1.0 - rc_sum / rram_sum), 1)
              << "% vs RRAM, "
              << bench::num(100.0 * (1.0 - rc_sum / dram_sum), 1)
              << "% vs DRAM, "
              << bench::num(gs_sum / rc_sum, 2)
              << "x improvement over GS-DRAM overall.\n"
              << "paper anchors: 71% vs RRAM, 67% vs DRAM, up to "
                 "14.5x (Q6); 2.37x mean over GS-DRAM; DRAM wins "
                 "only Q3.\n";
    return 0;
}
