/**
 * @file
 * Figure 23 reproduction: the impact of the group-caching
 * optimisation on Q14 (wide-field aggregate) and Q15 (ordered
 * multi-field select), sweeping the number of cache lines filled
 * per column group.
 *
 * Paper anchors: larger groups perform better; ~15% improvement at
 * 128 lines; estimated LLC footprints 32 KB (Q14) and 24 KB (Q15).
 */

#include <iostream>

#include "bench_common.hh"

using namespace rcnvm;

int
main(int argc, char **argv)
{
    bench::handleUsage(
        argc, argv, "fig23_group_caching",
        "Figure 23 reproduction: the group-caching optimisation on Q14\n"
        "and Q15, sweeping the cache lines filled per column group.");

    util::setLogLevel(util::LogLevel::Quiet);
    const workload::TableSet tables =
        workload::TableSet::standard(bench::benchTuples());
    const workload::QueryWorkload workload(tables);

    const unsigned sizes[] = {0, 32, 64, 96, 128};
    const unsigned q14_columns = 4; // f2_wide spans four words
    const unsigned q15_columns = 3; // f3, f6, f10

    util::TablePrinter t(
        "Figure 23: group caching, execution time (Mcycles)");
    t.addRow({"query", "w/o pref.", "32", "64", "96", "128",
              "gain@128", "LLC@128"});
    for (const auto id :
         {workload::QueryId::Q14, workload::QueryId::Q15}) {
        std::vector<double> mcyc;
        for (const unsigned g : sizes) {
            mcyc.push_back(core::runQuery(mem::DeviceKind::RcNvm,
                                          workload, id, g)
                               .megacycles());
        }
        const unsigned cols = id == workload::QueryId::Q14
                                  ? q14_columns
                                  : q15_columns;
        t.addRow({workload::querySpec(id).name, bench::num(mcyc[0]),
                  bench::num(mcyc[1]), bench::num(mcyc[2]),
                  bench::num(mcyc[3]), bench::num(mcyc[4]),
                  bench::num(100.0 * (1.0 - mcyc[4] / mcyc[0]), 1) +
                      "%",
                  std::to_string(128 * 64 * cols / 1024) + " KB"});
    }
    t.print(std::cout);

    std::cout << "\npaper anchors: monotone improvement with group "
                 "size, ~15% at 128 lines; 32 KB / 24 KB of LLC "
                 "pinned for Q14 / Q15.\n";
    return 0;
}
