/**
 * @file
 * Figure 5 reproduction: RC-NVM read-latency overhead versus the
 * word/bit line count of one array.
 *
 * Paper anchor: about 15% at 512 lines, moderate throughout.
 */

#include <iostream>

#include "bench_common.hh"
#include "circuit/latency_model.hh"

using namespace rcnvm;

int
main(int argc, char **argv)
{
    bench::handleUsage(
        argc, argv, "fig05_latency_overhead",
        "Figure 5 reproduction: RC-NVM read-latency overhead versus the\n"
        "word/bit line count of one array.");

    circuit::LatencyModel model;

    util::TablePrinter t(
        "Figure 5: RC-NVM latency overhead vs WL & BL numbers");
    t.addRow({"WL&BL", "baseline read (ns)", "RC-NVM read (ns)",
              "overhead"});
    for (unsigned n = 64; n <= 1200; n += 64) {
        t.addRow({std::to_string(n),
                  bench::num(model.baselineReadNs(n), 1),
                  bench::num(model.rcNvmReadNs(n), 1),
                  bench::num(100.0 * model.rcNvmOverhead(n), 1) +
                      "%"});
    }
    t.print(std::cout);

    std::cout << "\npaper anchor: ~15% at 512x512 arrays; Table-1 "
                 "read times 25 ns (RRAM) and 29 ns (RC-NVM).\n";
    return 0;
}
