/**
 * @file
 * Tests for the OLXP service shape on the serve scheduler: the OLTP
 * generator, the shared scan cursor, dispatch onto freed cores,
 * admission control, latency accounting, and end-to-end determinism
 * of a service run. The scheduler is configured exactly as the
 * ext_olxp_service and ext_hybrid_tier benches configure it
 * (bench::olxpServiceShape).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "bench_common.hh"
#include "olxp/serve/serve_scheduler.hh"
#include "util/stats_io.hh"
#include "workload/tables.hh"

namespace rcnvm::olxp {
namespace {

using serve::ServeConfig;
using serve::ServeResult;
using serve::ServeScheduler;

constexpr std::uint64_t kTuples = 4096;
constexpr std::uint64_t kSeed = 99;
constexpr unsigned kCores = 4;

/** One placed database shared by every test (placement is pure).
 *  The AddressMaps are static too: the placed Database keeps a
 *  pointer to its map for address encoding at plan-build time. */
const workload::PlacedDatabase &
placedDb(mem::DeviceKind kind = mem::DeviceKind::RcNvm)
{
    static const workload::TableSet tables =
        workload::TableSet::standard(kTuples, 256, kSeed);
    static const workload::QueryWorkload workload(tables);
    static const mem::AddressMap rcnvm_map(
        mem::geometryFor(mem::DeviceKind::RcNvm));
    static const mem::AddressMap dram_map(
        mem::geometryFor(mem::DeviceKind::Dram));
    static const workload::PlacedDatabase pd =
        workload.place(mem::DeviceKind::RcNvm, rcnvm_map);
    static const workload::PlacedDatabase pd_dram =
        workload.place(mem::DeviceKind::Dram, dram_map);
    return kind == mem::DeviceKind::Dram ? pd_dram : pd;
}

cpu::MachineConfig
serviceMachine(mem::DeviceKind kind = mem::DeviceKind::RcNvm)
{
    cpu::MachineConfig config;
    config.device = kind;
    config.seed = kSeed;
    return config;
}

/** Per-tenant counter @p counter of tenant @p tenant ("oltp" or
 *  "olap"), registered under the tenant's configured name. */
double
tenantStat(const util::StatsMap &s, const std::string &tenant,
           const std::string &counter)
{
    return s.get("serve." + tenant + "." + counter);
}

/** OLTP traffic against one 256-tuple scan in flight. */
ServeConfig
smallService()
{
    ServeConfig cfg = bench::olxpServiceShape(1, 256, 2, Tick{2000000});
    cfg.tenants[0].oltpInterArrival = Tick{20000};
    cfg.tenants[0].oltpUpdateFraction = 0.25;
    cfg.runQueueCapacity = 16;
    return cfg;
}

/**
 * OLTP only, arriving in a burst that ends long before the first
 * request can finish (one memory access alone takes thousands of
 * ticks): every admission decision sees all cores busy.
 */
ServeConfig
oltpBurst(unsigned queue_capacity, Tick inter_arrival)
{
    ServeConfig cfg = bench::olxpServiceShape(0, 0, 1, Tick{1000});
    cfg.tenants[0].oltpInterArrival = inter_arrival;
    cfg.tenants[0].oltpUpdateFraction = 0.0;
    cfg.runQueueCapacity = queue_capacity;
    return cfg;
}

TEST(GeneratorTest, OltpGapsAreExponentialAndPositive)
{
    OltpGenerator gen(placedDb(), Tick{1000}, 0.5, kSeed);
    double sum = 0;
    for (unsigned i = 0; i < 4096; ++i) {
        const Tick gap = gen.nextGap();
        EXPECT_GE(gap, Tick{1});
        sum += static_cast<double>(gap.value());
    }
    // The empirical mean of 4k draws sits near the configured mean.
    EXPECT_NEAR(sum / 4096.0, 1000.0, 100.0);
}

TEST(GeneratorTest, OltpRequestsTargetExistingTuples)
{
    OltpGenerator gen(placedDb(), Tick{1000}, 0.5, kSeed);
    for (unsigned i = 0; i < 32; ++i) {
        const Request r = gen.make(Tick{i});
        EXPECT_EQ(r.arrival, Tick{i});
        EXPECT_FALSE(r.plan.empty());
    }
}

TEST(GeneratorTest, OlapScansWalkTheTableRoundRobin)
{
    // 4096 tuples / 256 per segment = 16 segments per pass; the
    // 17th wraps the shared cursor to the start. A segment past the
    // table end would be a fatal plan-build error, so completing all
    // 17 shows the wrap.
    cpu::Machine machine(serviceMachine());
    ServeConfig cfg = bench::olxpServiceShape(2, 256, 1, Tick{1000000000});
    cfg.tenants.erase(cfg.tenants.begin()); // scans only
    cfg.maxSegmentsPerGroup = kTuples / 256 + 1;
    ServeScheduler sched(machine, placedDb(), cfg);
    const ServeResult r = sched.run();

    EXPECT_EQ(r.segmentsCompleted, cfg.maxSegmentsPerGroup);
    EXPECT_EQ(tenantStat(r.run.stats, "olap", "completed"),
              static_cast<double>(cfg.maxSegmentsPerGroup));
    // Every segment covers one 1024-tuple chunk: 17 chunk visits.
    EXPECT_EQ(r.chunksScanned, cfg.maxSegmentsPerGroup);
}

TEST(GeneratorTest, SameSeedSameRequestSequence)
{
    OltpGenerator a(placedDb(), Tick{1000}, 0.5, kSeed);
    OltpGenerator b(placedDb(), Tick{1000}, 0.5, kSeed);
    for (unsigned i = 0; i < 16; ++i) {
        EXPECT_EQ(a.nextGap(), b.nextGap());
        const Request ra = a.make(Tick{0});
        const Request rb = b.make(Tick{0});
        ASSERT_EQ(ra.plan.size(), rb.plan.size());
    }
}

TEST(SchedulerTest, SubmitDispatchesOntoIdleCoresThenQueues)
{
    cpu::Machine machine(serviceMachine());
    ASSERT_EQ(machine.coreCount(), kCores);
    ServeScheduler sched(machine, placedDb(), oltpBurst(2, Tick{10}));
    const ServeResult r = sched.run();

    // The first four arrivals land on the four idle cores, the next
    // two park in the bounded run queue, and admission control
    // rejects and counts everything after that.
    ASSERT_GT(r.oltpGenerated, kCores + 2u);
    EXPECT_EQ(r.oltpCompleted, kCores + 2u);
    EXPECT_EQ(r.oltpRejected, r.oltpGenerated - (kCores + 2u));
    const util::StatsMap &s = r.run.stats;
    EXPECT_EQ(tenantStat(s, "oltp", "admitted"), kCores + 2.0);
    EXPECT_EQ(tenantStat(s, "oltp", "denied"),
              static_cast<double>(r.oltpRejected));
}

TEST(SchedulerTest, QueuedRequestsRunWhenCoresFree)
{
    cpu::Machine machine(serviceMachine());
    const ServeConfig cfg = oltpBurst(16, Tick{100});
    ServeScheduler sched(machine, placedDb(), cfg);
    const ServeResult r = sched.run();

    // More arrivals than cores, all within the queue bound: each
    // completion pulls the next queued request in until none is
    // left, and nothing is rejected.
    ASSERT_GT(r.oltpGenerated, kCores);
    ASSERT_LE(r.oltpGenerated, kCores + cfg.runQueueCapacity);
    EXPECT_EQ(r.oltpCompleted, r.oltpGenerated);
    EXPECT_EQ(r.oltpRejected, 0u);
    // The queued half waited for a core to free, so the tail sits
    // above the median.
    EXPECT_GT(r.oltpP99, r.oltpP50);
}

TEST(SchedulerTest, LatencyHistogramCountsMatchCompletions)
{
    cpu::Machine machine(serviceMachine());
    ServeScheduler sched(machine, placedDb(), smallService());
    const ServeResult r = sched.run();
    const util::StatsMap &s = r.run.stats;

    EXPECT_GT(r.oltpCompleted, 0u);
    EXPECT_GT(r.segmentsCompleted, 0u);
    EXPECT_EQ(s.get("serve.oltpLatency.samples"),
              static_cast<double>(r.oltpCompleted));
    // Every generated request either completed or was rejected;
    // every admitted segment completed.
    EXPECT_EQ(r.oltpGenerated, r.oltpCompleted + r.oltpRejected);
    EXPECT_EQ(tenantStat(s, "olap", "admitted"),
              static_cast<double>(r.segmentsCompleted));
    EXPECT_EQ(tenantStat(s, "olap", "completed"),
              static_cast<double>(r.segmentsCompleted));
    // Percentiles are monotone and non-zero once samples exist.
    EXPECT_GT(r.oltpP50, 0.0);
    EXPECT_LE(r.oltpP50, r.oltpP95);
    EXPECT_LE(r.oltpP95, r.oltpP99);
    EXPECT_GT(s.get("serve.oltpLatencyP50"), 0.0);
    EXPECT_LE(s.get("serve.oltpLatencyP50"),
              s.get("serve.oltpLatencyP95"));
    EXPECT_LE(s.get("serve.oltpLatencyP95"),
              s.get("serve.oltpLatencyP99"));
    EXPECT_GT(r.backfillP99, 0.0);
}

TEST(SchedulerTest, ServiceStatsLandInTheMachineSnapshot)
{
    cpu::Machine machine(serviceMachine());
    ServeScheduler sched(machine, placedDb(), smallService());
    const ServeResult r = sched.run();

    const util::StatsMap &s = r.run.stats;
    EXPECT_EQ(s.get("serve.oltpGenerated"),
              static_cast<double>(r.oltpGenerated));
    EXPECT_EQ(s.get("serve.oltpCompleted"),
              static_cast<double>(r.oltpCompleted));
    EXPECT_EQ(s.get("serve.oltpRejected"),
              static_cast<double>(r.oltpRejected));
    EXPECT_EQ(s.get("serve.segmentsCompleted"),
              static_cast<double>(r.segmentsCompleted));
    EXPECT_EQ(s.get("serve.backfillDenied"),
              static_cast<double>(r.backfillDenied));
    // Pruning and the SLO loop are off in the service shape.
    EXPECT_EQ(s.get("serve.chunksPruned"), 0.0);
    EXPECT_EQ(s.get("serve.colsPruned"), 0.0);
    EXPECT_EQ(s.get("serve.sloBreaches"), 0.0);
    EXPECT_EQ(s.get("serve.backfillSlots"),
              static_cast<double>(kCores));
    // The histogram flattens into bucket entries with a total.
    EXPECT_EQ(s.get("serve.oltpLatency.samples"),
              static_cast<double>(r.oltpCompleted));
}

TEST(SchedulerTest, OverloadRejectsButNeverDropsOlap)
{
    cpu::MachineConfig config = serviceMachine();
    config.epochTicks = Tick{20000};
    cpu::Machine machine(config);
    ServeConfig cfg = smallService();
    cfg.tenants[0].oltpInterArrival = Tick{200}; // ~100x over capacity
    cfg.runQueueCapacity = 4;
    ServeScheduler sched(machine, placedDb(), cfg);
    const ServeResult r = sched.run();
    const util::StatsMap &s = r.run.stats;

    EXPECT_GT(r.oltpRejected, 0u);
    EXPECT_EQ(tenantStat(s, "olap", "admitted"),
              static_cast<double>(r.segmentsCompleted));
    // The run-queue bound held at every epoch sample: scan segments
    // go through admission and park when the queue is full, they do
    // not bypass the bound.
    const sim::EpochSeries &series = r.run.series;
    const auto col = std::find(series.names.begin(),
                               series.names.end(), "serve.queueDepth");
    ASSERT_NE(col, series.names.end());
    const std::size_t c =
        static_cast<std::size_t>(col - series.names.begin());
    ASSERT_FALSE(series.rows.empty());
    for (const std::vector<double> &row : series.rows)
        EXPECT_LE(row[c], static_cast<double>(cfg.runQueueCapacity));
    // Under this overload the bound actually bit: some segments were
    // denied admission (parked, retried later), and every one of
    // them still completed, per the admitted check above.
    EXPECT_GT(r.backfillDenied, 0u);
    EXPECT_EQ(tenantStat(s, "olap", "denied"),
              static_cast<double>(r.backfillDenied));
}

TEST(SchedulerTest, HorizonStopsTheOpenLoop)
{
    cpu::Machine machine(serviceMachine());
    const ServeConfig cfg = smallService();
    ServeScheduler sched(machine, placedDb(), cfg);
    const ServeResult r = sched.run();

    // The offered load stops at the horizon, so the generated count
    // stays near horizon / interArrival (Poisson, not unbounded).
    const double expected =
        static_cast<double>(cfg.horizon.value()) /
        static_cast<double>(cfg.tenants[0].oltpInterArrival.value());
    EXPECT_GT(static_cast<double>(r.oltpGenerated), expected * 0.5);
    EXPECT_LT(static_cast<double>(r.oltpGenerated), expected * 1.5);
    // And the machine drained everything that was admitted.
    EXPECT_GT(r.run.ticks, Tick{0});
    EXPECT_EQ(r.oltpCompleted + r.oltpRejected, r.oltpGenerated);
}

TEST(SchedulerTest, SameSeedServiceRunsAreByteIdentical)
{
    const auto runOnce = [] {
        cpu::Machine machine(serviceMachine());
        ServeScheduler sched(machine, placedDb(), smallService());
        const ServeResult r = sched.run();
        std::ostringstream os;
        util::writeStatsJson(os, r.run.stats, "svc", r.run.ticks);
        return os.str();
    };
    const std::string a = runOnce();
    const std::string b = runOnce();
    EXPECT_EQ(a, b);
}

TEST(SchedulerTest, DifferentSeedsProduceDifferentTraffic)
{
    const auto runWithSeed = [](std::uint64_t seed) {
        cpu::Machine machine(serviceMachine());
        ServeConfig cfg = smallService();
        cfg.seed = seed;
        ServeScheduler sched(machine, placedDb(), cfg);
        return sched.run();
    };
    const ServeResult a = runWithSeed(1);
    const ServeResult b = runWithSeed(2);
    // Arrival processes differ, so the run lengths practically
    // cannot coincide tick for tick.
    EXPECT_NE(a.run.ticks, b.run.ticks);
}

TEST(SchedulerTest, DevicesShareTheTrafficShape)
{
    // The same service config must run on a row-only device: OLTP
    // plans are row-oriented everywhere, and scan plans compile to
    // the device's supported orientation.
    cpu::Machine machine(serviceMachine(mem::DeviceKind::Dram));
    ServeScheduler sched(machine, placedDb(mem::DeviceKind::Dram),
                         smallService());
    const ServeResult r = sched.run();
    EXPECT_GT(r.oltpCompleted, 0u);
    EXPECT_GT(r.segmentsCompleted, 0u);
}

TEST(SchedulerDeathTest, StartOnBusyCoreIsFatal)
{
    cpu::Machine machine(serviceMachine());
    OltpGenerator gen(placedDb(), Tick{1000}, 0.0, kSeed);
    const Request a = gen.make(Tick{0});
    const Request b = gen.make(Tick{0});
    machine.startOnCore(0, a.plan, [](Tick) {});
    EXPECT_EXIT(machine.startOnCore(0, b.plan, [](Tick) {}),
                ::testing::ExitedWithCode(1), "busy");
}

} // namespace
} // namespace rcnvm::olxp
