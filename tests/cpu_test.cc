/**
 * @file
 * Tests for the trace-replay core and the machine assembly:
 * issue/window semantics, compute timing, fences, pin ops, and
 * multi-core runs.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "cpu/machine.hh"
#include "sim/epoch_sampler.hh"

namespace rcnvm::cpu {
namespace {

MachineConfig
smallMachine(mem::DeviceKind kind = mem::DeviceKind::RcNvm,
             unsigned window = 8)
{
    MachineConfig config;
    config.device = kind;
    config.window = window;
    return config;
}

TEST(MemOpTest, OrientationAndKindHelpers)
{
    EXPECT_EQ(MemOp::load(0).orientation(), Orientation::Row);
    EXPECT_EQ(MemOp::cload(0).orientation(), Orientation::Column);
    EXPECT_EQ(MemOp::cstore(0).orientation(), Orientation::Column);
    EXPECT_TRUE(MemOp::store(0).isWrite());
    EXPECT_TRUE(MemOp::cstore(0).isWrite());
    EXPECT_FALSE(MemOp::cload(0).isWrite());
    EXPECT_TRUE(MemOp::gload(0).isMemory());
    EXPECT_FALSE(MemOp::compute(5).isMemory());
    EXPECT_FALSE(MemOp::fence().isMemory());
    EXPECT_EQ(MemOp::pin(0, 64, Orientation::Row).orientation(),
              Orientation::Row);
}

TEST(MachineTest, EmptyPlanFinishesInstantly)
{
    Machine machine(smallMachine());
    const RunResult r = machine.run(AccessPlan{});
    EXPECT_EQ(r.ticks, Tick{0});
}

TEST(MachineTest, ComputeOnlyPlanTakesExactCycles)
{
    Machine machine(smallMachine());
    AccessPlan plan;
    plan.push_back(MemOp::compute(100));
    plan.push_back(MemOp::compute(23));
    const RunResult r = machine.run(plan);
    EXPECT_EQ(r.ticks, Tick{123u * 500u});
}

TEST(MachineTest, SingleLoadCompletes)
{
    Machine machine(smallMachine());
    AccessPlan plan{MemOp::load(0x1000)};
    const RunResult r = machine.run(plan);
    EXPECT_GT(r.ticks, Tick{0});
    EXPECT_DOUBLE_EQ(r.stats.get("cpu.memOps"), 1.0);
    EXPECT_DOUBLE_EQ(r.stats.get("cache.llcMisses"), 1.0);
    EXPECT_DOUBLE_EQ(r.stats.get("mem.reads"), 1.0);
}

TEST(MachineTest, CacheHitsAreFastOnRerun)
{
    Machine machine(smallMachine());
    AccessPlan plan;
    for (unsigned i = 0; i < 16; ++i)
        plan.push_back(MemOp::load(Addr{i} * 64));
    const RunResult cold = machine.run(plan);
    const RunResult warm = machine.run(plan);
    EXPECT_LT(warm.ticks, cold.ticks);
}

TEST(MachineTest, WindowLimitsOverlap)
{
    // With window 1 the loads serialise; with window 8 they overlap
    // across independent banks.
    AccessPlan plan;
    for (unsigned i = 0; i < 32; ++i)
        plan.push_back(MemOp::load(Addr{i} << 26)); // distinct banks
    Machine serial(smallMachine(mem::DeviceKind::RcNvm, 1));
    Machine overlapped(smallMachine(mem::DeviceKind::RcNvm, 8));
    const Tick t_serial = serial.run(plan).ticks;
    const Tick t_overlap = overlapped.run(plan).ticks;
    EXPECT_LT(t_overlap, t_serial);
    EXPECT_LT(t_overlap * 2, t_serial); // substantial overlap
}

TEST(MachineTest, FenceDrainsBeforeCompute)
{
    // load(miss) ; fence ; compute -- total must exceed the miss
    // latency plus the compute, not overlap them.
    Machine no_fence(smallMachine());
    Machine with_fence(smallMachine());
    AccessPlan a{MemOp::load(0x4000), MemOp::compute(400)};
    AccessPlan b{MemOp::load(0x4000), MemOp::fence(),
                 MemOp::compute(400)};
    const Tick ta = no_fence.run(a).ticks;
    const Tick tb = with_fence.run(b).ticks;
    EXPECT_GT(tb, ta); // fence forbids overlapping the compute
    EXPECT_GE(tb, Tick{400u * 500u});
}

TEST(MachineTest, StoresAreCountedAsWritesOnWriteback)
{
    Machine machine(smallMachine());
    AccessPlan plan{MemOp::store(0x100, 8)};
    const RunResult r = machine.run(plan);
    // Write-allocate: the store triggers a read fill.
    EXPECT_DOUBLE_EQ(r.stats.get("mem.reads"), 1.0);
    EXPECT_DOUBLE_EQ(r.stats.get("cpu.memOps"), 1.0);
}

TEST(MachineTest, MultiCorePlansRunConcurrently)
{
    Machine machine(smallMachine());
    AccessPlan per_core;
    for (unsigned i = 0; i < 64; ++i)
        per_core.push_back(MemOp::compute(1000));
    // One core alone vs four cores with the same per-core work:
    // wall clock should be similar (compute is fully parallel).
    Machine solo(smallMachine());
    const Tick t1 = solo.run(per_core).ticks;
    const Tick t4 =
        machine.run(std::vector<AccessPlan>{per_core, per_core,
                                            per_core, per_core})
            .ticks;
    EXPECT_NEAR(static_cast<double>(t4.value()),
                static_cast<double>(t1.value()),
                static_cast<double>(t1.value()) * 0.01);
}

TEST(MachineTest, CLoadUsesColumnPath)
{
    Machine machine(smallMachine());
    AccessPlan plan{MemOp::cload(0x0)};
    const RunResult r = machine.run(plan);
    EXPECT_DOUBLE_EQ(r.stats.get("mem.colAccesses"), 1.0);
}

TEST(MachineTest, PinUnpinOpsExecute)
{
    Machine machine(smallMachine());
    AccessPlan plan{MemOp::cload(0x0), MemOp::fence(),
                    MemOp::pin(0x0, 64), MemOp::unpin(0x0, 64)};
    const RunResult r = machine.run(plan);
    EXPECT_DOUBLE_EQ(r.stats.get("cache.pinOps"), 2.0);
}

TEST(MachineTest, GatherPlanOnGsDram)
{
    Machine machine(smallMachine(mem::DeviceKind::GsDram));
    AccessPlan plan{MemOp::gload(0x0), MemOp::gload(0x40)};
    const RunResult r = machine.run(plan);
    EXPECT_DOUBLE_EQ(r.stats.get("mem.gathered"), 2.0);
    EXPECT_DOUBLE_EQ(r.stats.get("cache.bypasses"), 2.0);
}

TEST(MachineTest, DeterministicAcrossIdenticalRuns)
{
    AccessPlan plan;
    for (unsigned i = 0; i < 100; ++i) {
        plan.push_back(MemOp::load(Addr{i % 7} * 4096));
        plan.push_back(MemOp::compute(3));
    }
    Machine a(smallMachine()), b(smallMachine());
    EXPECT_EQ(a.run(plan).ticks, b.run(plan).ticks);
}

TEST(MachineTest, ResetRestoresColdCaches)
{
    Machine machine(smallMachine());
    AccessPlan plan{MemOp::load(0x1000)};
    const Tick cold = machine.run(plan).ticks;
    const Tick warm = machine.run(plan).ticks;
    machine.reset();
    const Tick cold_again = machine.run(plan).ticks;
    EXPECT_LT(warm, cold);
    EXPECT_EQ(cold_again, cold);
}

TEST(MachineTest, SequentialLoadTraceGolden)
{
    // End-to-end deterministic-trace regression: the exact finish
    // tick of a 4096-load streaming plan on the RC-NVM machine,
    // recorded from the post-bugfix scheduler. Any change to cache,
    // controller, or bus timing outcomes moves this number.
    MachineConfig config;
    config.device = mem::DeviceKind::RcNvm;
    AccessPlan plan;
    for (unsigned i = 0; i < 4096; ++i)
        plan.push_back(MemOp::load((Addr{i} * 64) & 0xffffffff));
    Machine machine(config);
    const RunResult r = machine.run(plan);
    EXPECT_EQ(r.ticks, Tick{42041500});
    EXPECT_EQ(r.stats.get("mem.requests"), 4096.0);
    // The derived bus-utilization stat is exported and meaningful:
    // a bus-saturated stream keeps the loaded channel mostly busy.
    EXPECT_GT(r.stats.get("mem.busUtilization"), 0.0);
    EXPECT_LE(r.stats.get("mem.busUtilization"), 1.0);
    // One scheduler wakeup per bus slot, none duplicated.
    EXPECT_EQ(r.stats.get("mem.wakeups"), 4095.0);
}

TEST(MachineTest, ZeroPlansRunsToCompletion)
{
    Machine machine(smallMachine());
    const RunResult r =
        machine.run(std::vector<AccessPlan>{});
    EXPECT_EQ(r.ticks, Tick{0});
}

TEST(MachineTest, FewerPlansThanCoresLeavesTheRestIdle)
{
    Machine machine(smallMachine());
    AccessPlan plan{MemOp::compute(100)};
    // Two plans on a four-core machine: idle cores contribute no
    // time and no operations.
    const RunResult r =
        machine.run(std::vector<AccessPlan>{plan, plan});
    EXPECT_EQ(r.ticks, Tick{100u * 500u});
    EXPECT_DOUBLE_EQ(r.stats.get("cpu.memOps"), 0.0);
}

TEST(MachineTest, BackToBackRunsNeedNoReset)
{
    Machine machine(smallMachine());
    AccessPlan plan{MemOp::load(0x4000), MemOp::compute(10)};
    const RunResult first = machine.run(plan);
    // A second run on the same machine starts immediately; its
    // counters continue accumulating (no implicit reset).
    const RunResult second = machine.run(plan);
    EXPECT_GT(first.ticks, Tick{0});
    EXPECT_GT(second.ticks, Tick{0});
    EXPECT_DOUBLE_EQ(second.stats.get("cpu.memOps"), 2.0);
    // Warm caches make the replay no slower than the cold run.
    EXPECT_LE(second.ticks, first.ticks);
}

TEST(MachineTest, ServeWithNoTrafficReturnsImmediately)
{
    Machine machine(smallMachine());
    const RunResult r = machine.serve();
    EXPECT_EQ(r.ticks, Tick{0});
}

TEST(MachineTest, StartOnCoreRunsUnderServe)
{
    Machine machine(smallMachine());
    AccessPlan plan{MemOp::compute(100)};
    Tick finished{0};
    machine.startOnCore(2, plan,
                        [&finished](Tick t) { finished = t; });
    EXPECT_FALSE(machine.coreIdle(2));
    EXPECT_TRUE(machine.coreIdle(0));
    const RunResult r = machine.serve();
    EXPECT_EQ(finished, Tick{100u * 500u});
    EXPECT_EQ(r.ticks, Tick{100u * 500u});
    EXPECT_TRUE(machine.coreIdle(2));
}

TEST(MachineTest, QueueWaitTailIsExported)
{
    Machine machine(smallMachine());
    AccessPlan plan;
    for (unsigned i = 0; i < 64; ++i)
        plan.push_back(MemOp::load(Addr{i} * 64));
    const RunResult r = machine.run(plan);
    // The p99 controller queue-wait formula rides in the snapshot:
    // an inclusive log2-bucket right edge, so zero or one below a
    // power of two.
    ASSERT_TRUE(r.stats.contains("mem.queueWaitP99"));
    const double p99 = r.stats.get("mem.queueWaitP99");
    EXPECT_GE(p99, 0.0);
    if (p99 > 0.0) {
        const double l = std::log2(p99 + 1.0);
        EXPECT_DOUBLE_EQ(l, std::floor(l));
    }
}

// A core whose window is full before its next memory op parks
// instead of scheduling an advance event that would only mark the
// stall. These cases pin the exact finish tick, stall ticks and
// event count of a window-1 core whose completion lands before, at
// (on either side of the skipped event's queue position), and after
// its ready tick. Finish and stall ticks are those of the unparked
// core; the skipped event appears only when it would have mattered.

/** One window-1 core; L1 hits take @p l1 CPU cycles. */
MachineConfig
parkingMachine(unsigned l1)
{
    MachineConfig config = smallMachine(mem::DeviceKind::RcNvm, 1);
    config.hierarchy.cores = 1;
    config.hierarchy.l1Latency = CpuCycles{l1};
    return config;
}

struct ParkRun {
    Tick ticks;
    double stallTicks;
    std::uint64_t events;
};

ParkRun
parkRun(const MachineConfig &config, const AccessPlan &plan)
{
    Machine machine(config);
    const RunResult r = machine.run(plan);
    return {r.ticks, r.stats.get("cpu.stallTicks"),
            machine.eventQueue().executed()};
}

constexpr Addr kParkAddr = 0x1000;
constexpr Tick kCycle{500};

/** One cold load: it parks nothing (no memory op follows). Its
 *  events are the start, an idle advance one cycle later, and the
 *  miss path ending in the completion. */
ParkRun
coldLoad(unsigned l1)
{
    return parkRun(parkingMachine(l1), AccessPlan{MemOp::load(kParkAddr)});
}

/** Three loads of one line: a cold miss, then two L1 hits, each
 *  issued while the previous access holds the only window slot. The
 *  cold miss completes long after its ready tick, so the event that
 *  would have marked its stall is skipped for good. */
ParkRun
threeLoads(unsigned l1)
{
    return parkRun(parkingMachine(l1),
                   AccessPlan{MemOp::load(kParkAddr),
                              MemOp::load(kParkAddr),
                              MemOp::load(kParkAddr)});
}

TEST(CoreParking, CompletionBeforeReadyTick)
{
    // The second load's hit completes in the cycle it issued: the
    // skipped advance event is scheduled after all and issues the
    // third load at the ready tick; nothing more stalls.
    const ParkRun miss = coldLoad(0);
    const ParkRun r = threeLoads(0);
    EXPECT_EQ(r.ticks, miss.ticks + kCycle * 2u);
    EXPECT_EQ(r.stallTicks,
              static_cast<double>((miss.ticks - kCycle).value()));
    // Two hits, the scheduled advance and the final advance, less
    // the cold load's idle advance.
    EXPECT_EQ(r.events, miss.events + 3u);
}

TEST(CoreParking, CompletionAtReadyTickBeforeTheSkippedEvent)
{
    // A one-cycle hit completes at the ready tick, from an event
    // queued before the skipped one: the core issues at once, and
    // the skipped event still runs at its own queue position.
    const ParkRun miss = coldLoad(1);
    const ParkRun r = threeLoads(1);
    EXPECT_EQ(r.ticks, miss.ticks + kCycle * 2u);
    EXPECT_EQ(r.stallTicks,
              static_cast<double>((miss.ticks - kCycle).value()));
    EXPECT_EQ(r.events, miss.events + 3u);
}

TEST(CoreParking, CompletionAtReadyTickAfterTheSkippedEvent)
{
    // A compute gap puts the ready tick exactly on the miss's
    // completion, whose event is queued long after the core parked:
    // the skipped event would have run first, so the stall starts
    // and ends on the same tick and the event never runs.
    const MachineConfig config = parkingMachine(4);
    const ParkRun miss = coldLoad(4);
    ASSERT_EQ(miss.ticks.value() % kCycle.value(), 0u);
    const std::uint64_t gap =
        (miss.ticks - kCycle).value() / kCycle.value();
    const ParkRun r = parkRun(
        config, AccessPlan{MemOp::load(kParkAddr), MemOp::compute(gap),
                           MemOp::load(kParkAddr)});
    EXPECT_EQ(r.ticks, miss.ticks + kCycle * 4u);
    EXPECT_EQ(r.stallTicks, 0.0);
    // The hit and the final advance; the idle advance became the
    // compute op's.
    EXPECT_EQ(r.events, miss.events + 2u);
}

TEST(CoreParking, CompletionAfterReadyTick)
{
    // A two-cycle hit completes one cycle after the ready tick: that
    // cycle is a window-full stall, as is the cold miss's wait, and
    // neither skipped event runs.
    const ParkRun miss = coldLoad(2);
    const ParkRun r = threeLoads(2);
    EXPECT_EQ(r.ticks, miss.ticks + kCycle * 4u);
    EXPECT_EQ(r.stallTicks, static_cast<double>(miss.ticks.value()));
    EXPECT_EQ(r.events, miss.events + 2u);
}

TEST(CoreParking, ParkedCoreAlwaysLeavesAnEventPending)
{
    // The epoch sampler stops at the first epoch with nothing else
    // queued. A parked core has no advance event queued, so its
    // outstanding access must keep one pending (its send, completion
    // or a controller wakeup). Sample every cycle and check.
    sim::EventQueue eq;
    mem::MemorySystem memory(mem::DeviceKind::RcNvm, eq);
    cache::HierarchyConfig hcfg;
    hcfg.cores = 1;
    cache::Hierarchy hierarchy(hcfg, eq, memory);
    Core core(0, eq, hierarchy, 2);
    AccessPlan plan;
    for (unsigned i = 0; i < 64; ++i)
        plan.push_back(MemOp::load(Addr{i} * 64));
    std::uint64_t parked = 0;
    std::uint64_t parked_alone = 0;
    sim::EpochSampler sampler(eq);
    sampler.addGauge("parked", [&] {
        if (core.parked()) {
            ++parked;
            parked_alone += eq.pending() == 0;
        }
        return 0.0;
    });
    sampler.start(kCycle);
    Tick finish{0};
    core.start(plan, [&finish](Tick t) { finish = t; });
    eq.run();
    ASSERT_TRUE(core.finished());
    EXPECT_GT(parked, 0u);
    EXPECT_EQ(parked_alone, 0u);
    // Sampling covered the whole run.
    ASSERT_FALSE(sampler.series().empty());
    EXPECT_GE(sampler.series().ticks.back(), finish);
}

TEST(MachineDeathTest, TooManyPlansIsFatal)
{
    Machine machine(smallMachine());
    const std::vector<AccessPlan> plans(
        5, AccessPlan{MemOp::compute(1)});
    EXPECT_EXIT(machine.run(plans), ::testing::ExitedWithCode(1),
                "more plans");
}

} // namespace
} // namespace rcnvm::cpu
