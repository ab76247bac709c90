/**
 * @file
 * Figure 17 reproduction: the eight micro-benchmarks - {row,col} x
 * {read,write} scans of a table stored in the row-oriented (L1) or
 * column-oriented (L2) layout - on RC-NVM, RRAM, and DRAM.
 *
 * Scans are single-stream (one core), matching the paper's
 * microbenchmark character. Paper anchors: RRAM ~35% slower than
 * DRAM on row scans; RC-NVM ~4% slower than RRAM; column scans cut
 * execution time by ~76% (L1) / 77% (L2) versus DRAM.
 */

#include <iostream>

#include "bench_common.hh"
#include "mem/memory_system.hh"

using namespace rcnvm;

namespace {

core::ExperimentResult
runOne(mem::DeviceKind kind, const workload::TableSet &tables,
       workload::MicroBench mb, imdb::ChunkLayout layout)
{
    const cpu::MachineConfig config = core::table1Machine(kind);
    mem::AddressMap map(mem::geometryFor(kind));
    imdb::Database db(kind, map);
    const auto tid = db.addTable(tables.micro.get(), layout);
    // Single-stream scan on core 0.
    const auto plans = workload::compileMicro(db, tid, mb, 1);
    return core::runPlans(config, plans);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::handleUsage(
        argc, argv, "fig17_micro",
        "Figure 17 reproduction: {row,col} x {read,write} scan "
        "micro-benchmarks\non RC-NVM, RRAM, and DRAM, for "
        "row-oriented (L1) and column-oriented\n(L2) layouts.");

    util::setLogLevel(util::LogLevel::Quiet);
    const std::uint64_t tuples = bench::benchTuples(32768);
    const workload::TableSet tables =
        workload::TableSet::standard(16384, tuples);

    const std::vector<mem::DeviceKind> devices = {
        mem::DeviceKind::RcNvm, mem::DeviceKind::Rram,
        mem::DeviceKind::Dram};

    core::ArtifactWriter artifacts("fig17_micro");

    util::TablePrinter t(
        "Figure 17: micro-benchmarks, execution time (Mcycles)");
    t.addRow({"benchmark", "RC-NVM", "RRAM", "DRAM",
              "RC-NVM vs DRAM"});
    for (const auto layout : {imdb::ChunkLayout::RowOriented,
                              imdb::ChunkLayout::ColumnOriented}) {
        const std::string suffix =
            layout == imdb::ChunkLayout::RowOriented ? "-L1" : "-L2";
        for (const auto mb :
             {workload::MicroBench::RowRead,
              workload::MicroBench::RowWrite,
              workload::MicroBench::ColRead,
              workload::MicroBench::ColWrite}) {
            std::vector<double> mcyc;
            for (const auto kind : devices) {
                const auto r = runOne(kind, tables, mb, layout);
                artifacts.record(std::string(toString(mb)) + suffix +
                                     "." + mem::toString(kind),
                                 r);
                mcyc.push_back(r.megacycles());
            }
            const double reduction =
                100.0 * (1.0 - mcyc[0] / mcyc[2]);
            // Appended, not `"literal" + std::string&&`: GCC 12 flags
            // that form with a false-positive -Wrestrict.
            std::string change = reduction >= 0 ? "-" : "+";
            change += bench::num(std::abs(reduction), 1);
            change += '%';
            t.addRow({std::string(toString(mb)) + suffix,
                      bench::num(mcyc[0]), bench::num(mcyc[1]),
                      bench::num(mcyc[2]), change});
        }
    }
    t.print(std::cout);

    std::cout << "\npaper anchors: row scans - DRAM fastest, RRAM "
                 "~35% slower, RC-NVM ~4% behind RRAM; column scans "
                 "- RC-NVM cuts execution time by ~76-77% vs "
                 "DRAM.\n";
    return 0;
}
