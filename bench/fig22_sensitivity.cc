/**
 * @file
 * Figure 22 reproduction: sensitivity of the mean Q1-Q13 execution
 * time to the RRAM/RC-NVM cell latency, sweeping (read access
 * time, write pulse width) from (12.5 ns, 5 ns) to (200 ns, 80 ns),
 * with the fixed-latency DRAM result as the reference line.
 *
 * Paper anchor: RC-NVM still outperforms DRAM even at cell read
 * latencies of hundreds of cycles.
 */

#include <iostream>

#include "bench_common.hh"
#include "mem/memory_system.hh"

using namespace rcnvm;

namespace {

double
meanSuite(const workload::QueryWorkload &wl, mem::DeviceKind kind,
          const cpu::MachineConfig &config)
{
    mem::AddressMap map(mem::geometryFor(kind));
    const workload::PlacedDatabase pd = wl.place(kind, map);
    double sum = 0;
    for (const auto id : bench::sqlQueries()) {
        const auto q =
            wl.compile(id, pd, config.hierarchy.cores);
        sum += core::runCompiled(config, q).megacycles();
    }
    return sum / static_cast<double>(bench::sqlQueries().size());
}

} // namespace

int
main(int argc, char **argv)
{
    bench::handleUsage(
        argc, argv, "fig22_sensitivity",
        "Figure 22 reproduction: mean Q1-Q13 execution time versus the\n"
        "RRAM/RC-NVM cell read latency and write pulse width, with DRAM\n"
        "as the reference line.");

    util::setLogLevel(util::LogLevel::Quiet);
    // The sweep runs the full suite 11 times; default to a lighter
    // scale than the other benches.
    const workload::TableSet tables =
        workload::TableSet::standard(bench::benchTuples(65536));
    const workload::QueryWorkload wl(tables);

    const double dram_mean =
        meanSuite(wl, mem::DeviceKind::Dram,
                  core::table1Machine(mem::DeviceKind::Dram));

    util::TablePrinter t(
        "Figure 22: cell-latency sensitivity, mean Q1-Q13 "
        "execution time (Mcycles)");
    t.addRow({"(read, write-pulse)", "RC-NVM", "RRAM",
              "DRAM (fixed)"});
    const double points[][2] = {{12.5, 5.0},
                                {25.0, 10.0},
                                {50.0, 20.0},
                                {100.0, 40.0},
                                {200.0, 80.0}};
    for (const auto &p : points) {
        const double rc = meanSuite(
            wl, mem::DeviceKind::RcNvm,
            core::table1MachineWithCell(mem::DeviceKind::RcNvm,
                                        p[0], p[1]));
        const double rram = meanSuite(
            wl, mem::DeviceKind::Rram,
            core::table1MachineWithCell(mem::DeviceKind::Rram, p[0],
                                        p[1]));
        // Appended, not `"literal" + std::string&&`: GCC 12 flags
        // that form with a false-positive -Wrestrict.
        std::string cell = "(";
        cell += bench::num(p[0], 1);
        cell += " ns, ";
        cell += bench::num(p[1], 1);
        cell += " ns)";
        t.addRow({cell, bench::num(rc), bench::num(rram),
                  bench::num(dram_mean)});
    }
    t.print(std::cout);

    std::cout << "\npaper anchor: RC-NVM remains ahead of DRAM "
                 "even at (200 ns, 80 ns) cell latency.\n";
    return 0;
}
