/**
 * @file
 * Figure 4 reproduction: area overhead of RC-DRAM over DRAM and of
 * RC-NVM over RRAM as a function of the word/bit line count in one
 * array.
 *
 * Paper anchors: RC-DRAM always above 200% and growing; RC-NVM
 * decreasing, below 20% at 512 lines.
 */

#include <iostream>

#include "bench_common.hh"
#include "circuit/area_model.hh"

using namespace rcnvm;

int
main(int argc, char **argv)
{
    bench::handleUsage(
        argc, argv, "fig04_area_overhead",
        "Figure 4 reproduction: area overhead of RC-DRAM over DRAM and of\n"
        "RC-NVM over RRAM versus the word/bit line count of one array.");

    circuit::AreaModel model;

    util::TablePrinter t(
        "Figure 4: area overhead vs WL & BL numbers");
    t.addRow({"WL&BL", "RC-DRAM over DRAM", "RC-NVM over RRAM"});
    for (const unsigned n : {16u, 32u, 64u, 128u, 256u, 512u,
                             1024u}) {
        t.addRow({std::to_string(n),
                  bench::num(100.0 * model.rcDramOverhead(n), 1) +
                      "%",
                  bench::num(100.0 * model.rcNvmOverhead(n), 1) +
                      "%"});
    }
    t.print(std::cout);

    std::cout << "\npaper anchors: RC-DRAM > 200% everywhere and "
                 "growing; RC-NVM < 20% at 512 (deployed mat size), "
                 "~15% area overhead overall.\n";
    return 0;
}
