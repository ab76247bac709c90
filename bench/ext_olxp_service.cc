/**
 * @file
 * Extension bench: OLXP service saturation curves. Sweeps the
 * offered open-loop OLTP load (Poisson point lookups/updates on
 * table-a) against a fixed closed-loop OLAP scan background on all
 * four devices and reports OLTP p50/p95/p99 latency, completed and
 * rejected counts, completed scans with their p99, and each device's
 * saturation knee — the highest offered load whose p99 OLTP latency
 * stays under twice the device's own lightest-load p99. The service
 * runs on the serve scheduler (bench::olxpServiceShape).
 *
 * Expectation: RC-NVM's column scans touch ~8x fewer lines than the
 * strided scans a row-only device needs, so each scan segment
 * completes several times faster, and RC-NVM holds its OLTP tail
 * lower than DRAM under the same scan background. The full sweep
 * exits 1 unless RC-NVM's knee is above DRAM's; the knee ties at
 * most seeds (EXPERIMENTS.md records an 8-seed table).
 *
 * `--smoke` runs a reduced sweep (smaller tables, two load points)
 * for CI. RCNVM_SEED reseeds tables and generators; two runs with
 * the same seed produce identical statistics. The service shape is
 * overridable for exploration: RCNVM_OLXP_STREAMS,
 * RCNVM_OLXP_SCAN_TUPLES, RCNVM_OLXP_SCAN_FIELDS,
 * RCNVM_OLXP_UPDATE_PCT, RCNVM_OLXP_HORIZON.
 */

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace rcnvm;

namespace {

std::string
usLabel(double ticks)
{
    return bench::num(ticks / 1.0e6, 2);
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::handleUsage(
        argc, argv, "ext_olxp_service",
        "Extension bench: OLXP service saturation curves. Sweeps "
        "the offered\nopen-loop OLTP load against a fixed "
        "closed-loop OLAP scan background\non all four devices "
        "and reports per-class tail latency and each\ndevice's "
        "saturation knee.",
        {"--smoke  reduced sweep (smaller tables, fewer load "
         "points) for CI"});
    const bool smoke = args.has("--smoke");

    util::setLogLevel(util::LogLevel::Quiet);

    // Table-a must be several times the 8 MB LLC (tuples are 128 B)
    // or the scan background never reaches memory and the bench
    // measures nothing but core scheduling.
    const std::uint64_t tuples =
        bench::benchTuples(smoke ? 131072 : 262144);
    const std::uint64_t seed = util::envSeed(42);

    // Service shape, overridable for exploration (RCNVM_OLXP_*).
    // Strictly validated: a typo'd override must fail loudly, not
    // silently run a different service shape.
    const auto envU = [](const char *name,
                         std::uint64_t fallback) -> std::uint64_t {
        return util::envUint64(name, fallback);
    };
    const unsigned olap_streams =
        static_cast<unsigned>(envU("RCNVM_OLXP_STREAMS", 3));
    olxp::serve::ServeConfig service = bench::olxpServiceShape(
        olap_streams, envU("RCNVM_OLXP_SCAN_TUPLES", 512),
        static_cast<unsigned>(envU("RCNVM_OLXP_SCAN_FIELDS", 1)),
        static_cast<Tick>(envU("RCNVM_OLXP_HORIZON",
                               smoke ? 16000000 : 40000000)));
    service.tenants[0].oltpUpdateFraction =
        static_cast<double>(envU("RCNVM_OLXP_UPDATE_PCT", 20)) /
        100.0;

    // Mean inter-arrival sweep, heaviest last. Each halving doubles
    // the offered load; the lightest point is the per-device p99
    // baseline the knee is measured against.
    const std::vector<Tick> loads =
        smoke ? std::vector<Tick>{Tick{200000}, Tick{100000},
                                  Tick{50000}}
              : std::vector<Tick>{Tick{200000}, Tick{100000},
                                  Tick{50000}, Tick{25000},
                                  Tick{12500}, Tick{6250}};

    const workload::TableSet tables =
        workload::TableSet::standard(tuples, 1024, seed);
    const workload::QueryWorkload workload(tables);

    core::ArtifactWriter artifacts("ext_olxp_service");

    util::TablePrinter t(
        "Extension: OLXP service saturation (latency in us; offered "
        "load in OLTP req/us; OLAP background: " +
        std::to_string(olap_streams) + " scan stream(s))");
    t.addRow({"device", "offered", "oltp done", "rej", "p50", "p95",
              "p99", "olap done", "olap p99"});

    std::vector<std::vector<bench::ServicePoint>> sweeps;
    for (const auto kind : bench::allDevices()) {
        mem::AddressMap map(mem::geometryFor(kind));
        const workload::PlacedDatabase pd = workload.place(kind, map);

        std::vector<bench::ServicePoint> sweep;
        for (const Tick ia : loads) {
            cpu::MachineConfig config = core::table1Machine(kind);
            config.seed = seed;
            cpu::Machine machine(config);

            olxp::serve::ServeConfig cfg = service;
            cfg.tenants[0].oltpInterArrival = ia;
            olxp::serve::ServeScheduler scheduler(machine, pd, cfg);

            bench::ServicePoint point;
            point.interArrival = ia;
            point.result = scheduler.run();
            if (artifacts.enabled()) {
                artifacts.record(std::string(mem::toString(kind)) +
                                     "-ia" + std::to_string(ia.value()),
                                 point.result.run.stats,
                                 point.result.run.ticks);
            }

            const olxp::serve::ServeResult &r = point.result;
            t.addRow({mem::toString(kind),
                      bench::num(point.offered(), 2),
                      std::to_string(r.oltpCompleted),
                      std::to_string(r.oltpRejected),
                      usLabel(point.oltpP(50)),
                      usLabel(point.oltpP(95)),
                      usLabel(point.oltpP(99)),
                      std::to_string(r.segmentsCompleted),
                      usLabel(r.backfillP99)});
            sweep.push_back(std::move(point));
        }
        sweeps.push_back(std::move(sweep));
    }
    t.print(std::cout);

    std::cout << "\nsaturation knees (p99 < 2x own baseline, no "
                 "rejects):\n";
    std::vector<double> knees;
    for (std::size_t d = 0; d < sweeps.size(); ++d) {
        knees.push_back(bench::serviceKnee(sweeps[d]));
        std::cout << "  " << mem::toString(bench::allDevices()[d])
                  << ": " << bench::num(knees.back(), 2)
                  << " req/us (baseline p99 "
                  << usLabel(sweeps[d].front().oltpP(99)) << " us)\n";
    }

    // Headline: RC-NVM vs DRAM under the same concurrent scans.
    // allDevices() order is RC-NVM, RRAM, GS-DRAM, DRAM.
    const double rc_knee = knees[0], dram_knee = knees[3];
    const bench::ServicePoint &rc_heavy = sweeps[0].back();
    const bench::ServicePoint &dram_heavy = sweeps[3].back();
    std::cout << "\nheadline: under concurrent column scans, "
                 "RC-NVM sustains "
              << bench::num(dram_knee > 0 ? rc_knee / dram_knee : 0,
                            1)
              << "x DRAM's offered OLTP load before its p99 "
                 "doubles; at the heaviest point RC-NVM p99 = "
              << usLabel(rc_heavy.oltpP(99)) << " us vs DRAM p99 = "
              << usLabel(dram_heavy.oltpP(99)) << " us ("
              << dram_heavy.result.oltpRejected << " DRAM rejects, "
              << rc_heavy.result.oltpRejected << " RC-NVM rejects).\n";

    if (rc_knee <= dram_knee) {
        std::cout << "WARNING: expected RC-NVM knee > DRAM knee\n";
        // The smoke sweep has too few tail samples per point to pin
        // the knee down to a log2 bucket; it validates the service
        // pipeline, the full sweep enforces the result.
        return smoke ? 0 : 1;
    }
    return 0;
}
