/**
 * @file
 * Table 2 reproduction: the benchmark query set, with the per-query
 * plan sizes the compiler produces on RC-NVM.
 */

#include <iostream>

#include "bench_common.hh"
#include "mem/memory_system.hh"

using namespace rcnvm;

int
main(int argc, char **argv)
{
    bench::handleUsage(
        argc, argv, "tab02_queries",
        "Table 2 reproduction: the benchmark query set, with the plan\n"
        "sizes the compiler produces on RC-NVM.");

    util::setLogLevel(util::LogLevel::Quiet);
    const std::uint64_t tuples = bench::benchTuples(16384);
    const workload::TableSet tables =
        workload::TableSet::standard(tuples);
    const workload::QueryWorkload wl(tables);
    mem::AddressMap map(mem::geometryFor(mem::DeviceKind::RcNvm));
    const workload::PlacedDatabase pd =
        wl.place(mem::DeviceKind::RcNvm, map);

    util::TablePrinter t("Table 2: benchmark queries");
    t.addRow({"#", "category", "SQL statement", "phases",
              "ops (RC-NVM)"});
    for (const workload::QuerySpec &spec : workload::allQueries()) {
        const auto q = wl.compile(spec.id, pd);
        t.addRow({spec.name, spec.category, spec.sql,
                  std::to_string(q.phases.size()),
                  std::to_string(q.totalOps())});
    }
    t.print(std::cout);
    std::cout << "\n(tables with " << tuples << " tuples; "
              << "Q14/Q15 compiled at the default group-caching "
                 "size)\n";
    return 0;
}
