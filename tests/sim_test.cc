/**
 * @file
 * Unit tests for the simulation kernel: event ordering, time
 * advancement, and clock-domain conversions.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "sim/clock_domain.hh"
#include "sim/event_queue.hh"

namespace rcnvm::sim {
namespace {

TEST(EventQueue, RunsEventsInTickOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(Tick{30}, [&] { order.push_back(3); });
    eq.schedule(Tick{10}, [&] { order.push_back(1); });
    eq.schedule(Tick{20}, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), Tick{30});
}

TEST(EventQueue, TieBreaksByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(Tick{5}, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CallbacksMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(Tick{1}, [&] {
        ++fired;
        eq.schedule(Tick{2}, [&] {
            ++fired;
            eq.schedule(Tick{3}, [&] { ++fired; });
        });
    });
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), Tick{3});
}

TEST(EventQueue, ScheduleAfterIsRelative)
{
    EventQueue eq;
    Tick seen;
    eq.schedule(Tick{100}, [&] {
        eq.scheduleAfter(Tick{50}, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, Tick{150});
}

TEST(EventQueue, RunUntilLeavesLaterEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(Tick{10}, [&] { ++fired; });
    eq.schedule(Tick{20}, [&] { ++fired; });
    eq.runUntil(Tick{15});
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), Tick{15});
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(Tick{static_cast<std::uint64_t>(i)}, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 5u);
}

TEST(EventQueue, EmptyRunIsNoop)
{
    EventQueue eq;
    eq.run();
    EXPECT_EQ(eq.now(), Tick{0});
    EXPECT_EQ(eq.executed(), 0u);
}

TEST(EventQueueDeathTest, PanicsOnPastEvent)
{
    EventQueue eq;
    eq.schedule(Tick{10}, [&] {
        eq.schedule(Tick{5}, [] {}); // in the past
    });
    EXPECT_DEATH(eq.run(), "scheduled in the past");
}

TEST(EventQueue, ResetRewindsADrainedQueue)
{
    EventQueue eq;
    eq.schedule(Tick{10}, [] {});
    eq.run();
    eq.reset();
    EXPECT_EQ(eq.now(), Tick{0});
    EXPECT_EQ(eq.executed(), 0u);
    // Time starts over: tick 5 is no longer in the past.
    bool ran = false;
    eq.schedule(Tick{5}, [&ran] { ran = true; });
    eq.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueueDeathTest, ResetWithPendingEventsPanics)
{
    EventQueue eq;
    eq.schedule(Tick{10}, [] {});
    EXPECT_DEATH(eq.reset(), "events pending");
}

TEST(EventQueue, CallbackSchedulingManyChunksKeepsItsOwnCapture)
{
    // The running callback's slot must stay put while it schedules
    // several chunks' worth of events (the slot list grows under
    // it), and each new event gets intact storage of its own.
    EventQueue eq;
    std::vector<int> order;
    std::array<int, 32> mine{};
    for (int i = 0; i < 32; ++i)
        mine[static_cast<std::size_t>(i)] = 1000 + i;
    bool own_capture_intact = false;
    eq.schedule(Tick{1}, [&eq, &order, &own_capture_intact, mine] {
        for (int i = 0; i < 1000; ++i) {
            std::array<int, 32> payload{};
            payload.fill(i);
            eq.schedule(Tick{2}, [&order, payload] {
                order.push_back(payload[31]);
            });
        }
        own_capture_intact = true;
        for (int i = 0; i < 32; ++i)
            own_capture_intact &=
                mine[static_cast<std::size_t>(i)] == 1000 + i;
    });
    eq.run();
    EXPECT_TRUE(own_capture_intact);
    ASSERT_EQ(order.size(), 1000u);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(eq.executed(), 1001u);
}

TEST(EventQueue, DestroyingAQueueDestroysPendingCallbacks)
{
    // Pending callbacks own their captures: both an inline capture
    // and one too large for a slot (heap-held) must be released when
    // the queue is destroyed unrun. Under ASan a leak fails the run.
    auto token = std::make_shared<int>(7);
    {
        EventQueue eq;
        eq.schedule(Tick{5}, [t = token] { (void)t; });
        std::array<char, 4 * EventQueue::kInlineBytes> big{};
        eq.schedule(Tick{6}, [t = token, big] {
            (void)t;
            (void)big;
        });
        eq.schedule(Tick{7}, [v = std::vector<int>(1000, 1)] {
            (void)v;
        });
        EXPECT_EQ(token.use_count(), 3);
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, RunCallbacksAreDestroyedAfterRunning)
{
    auto token = std::make_shared<int>(7);
    EventQueue eq;
    eq.schedule(Tick{5}, [t = token] { (void)t; });
    std::array<char, 4 * EventQueue::kInlineBytes> big{};
    eq.schedule(Tick{6}, [t = token, big] {
        (void)t;
        (void)big;
    });
    eq.run();
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, ReservedSeqRunsBeforeLaterSameTickEvents)
{
    EventQueue eq;
    std::vector<char> order;
    eq.schedule(Tick{10}, [&order] { order.push_back('a'); });
    const EventQueue::Seq seq = eq.reserveSeq();
    eq.schedule(Tick{10}, [&order] { order.push_back('b'); });
    // Placed later in real time, it still takes the reserved slot
    // in the (tick, seq) order: after 'a', before 'b'.
    eq.schedule(Tick{5}, [&eq, &order, seq] {
        eq.scheduleReserved(Tick{10}, seq, [&eq, &order, seq] {
            order.push_back('r');
            EXPECT_EQ(eq.currentSeq(), seq);
        });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<char>{'a', 'r', 'b'}));
}

TEST(EventQueueDeathTest, ReservedEventInThePastPanics)
{
    EventQueue eq;
    const EventQueue::Seq seq = eq.reserveSeq();
    eq.schedule(Tick{10}, [&eq, seq] {
        eq.scheduleReserved(Tick{5}, seq, [] {});
    });
    EXPECT_DEATH(eq.run(), "scheduled in the past");
}

TEST(ClockDomain, CycleTickConversions)
{
    ClockDomain<MemClk> clk(Tick{2500});
    EXPECT_EQ(clk.period(), Tick{2500});
    EXPECT_EQ(clk.cyclesToTicks(MemCycles{4}), Tick{10000});
    EXPECT_EQ(clk.ticksToCycles(Tick{10000}), MemCycles{4});
    EXPECT_EQ(clk.ticksToCycles(Tick{10001}), MemCycles{5}); // rounds up
}

TEST(ClockDomain, NextEdge)
{
    ClockDomain<MemClk> clk(Tick{750});
    EXPECT_EQ(clk.nextEdgeAt(Tick{0}), Tick{0});
    EXPECT_EQ(clk.nextEdgeAt(Tick{1}), Tick{750});
    EXPECT_EQ(clk.nextEdgeAt(Tick{750}), Tick{750});
    EXPECT_EQ(clk.nextEdgeAt(Tick{751}), Tick{1500});
}

TEST(ClockDomain, CpuClockIs2GHz)
{
    EXPECT_EQ(cpuClock().period(), Tick{500});
}

} // namespace
} // namespace rcnvm::sim
