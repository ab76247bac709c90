/**
 * @file
 * Tests for the cache hierarchy: level latencies, MESI coherence
 * actions, the synonym engine (crossing bits, write propagation,
 * eviction clean-up), pinning, gather bypass, and the L3 sharer
 * masks.
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "mem/memory_system.hh"
#include "sim/event_queue.hh"
#include "util/random.hh"

namespace rcnvm::cache {
namespace {

struct Fixture {
    sim::EventQueue eq;
    mem::MemorySystem memory{mem::DeviceKind::RcNvm, eq};
    HierarchyConfig config;
    Hierarchy hierarchy{config, eq, memory};

    /** Blocking access helper: returns the completion tick. */
    Tick
    access(unsigned core, Addr addr, Orientation o, bool write,
           unsigned bytes = 64)
    {
        Tick done{0};
        CacheAccess a;
        a.addr = addr;
        a.orient = o;
        a.isWrite = write;
        a.bytes = bytes;
        const Tick start = eq.now();
        EXPECT_TRUE(hierarchy.access(core, a,
                                     [&](Tick t) { done = t - start; }));
        eq.run();
        return done;
    }

    Addr
    rowAddr(unsigned row, unsigned col, unsigned bank = 0)
    {
        mem::DecodedAddr d;
        d.bank = bank;
        d.row = row;
        d.col = col;
        return memory.map().encode(d, Orientation::Row);
    }

    Addr
    colAddr(unsigned row, unsigned col, unsigned bank = 0)
    {
        mem::DecodedAddr d;
        d.bank = bank;
        d.row = row;
        d.col = col;
        return memory.map().encode(d, Orientation::Column);
    }
};

TEST(HierarchyTest, MissThenL1Hit)
{
    Fixture f;
    const Tick miss = f.access(0, f.rowAddr(5, 0), Orientation::Row,
                               false);
    const Tick hit = f.access(0, f.rowAddr(5, 0), Orientation::Row,
                              false);
    EXPECT_GT(miss, hit);
    EXPECT_EQ(hit, f.config.cyc(f.config.l1Latency));
    EXPECT_DOUBLE_EQ(f.hierarchy.stats().get("cache.llcMisses"), 1.0);
    EXPECT_DOUBLE_EQ(f.hierarchy.stats().get("cache.l1Hits"), 1.0);
}

TEST(HierarchyTest, SameLineDifferentWordHitsL1)
{
    Fixture f;
    f.access(0, f.rowAddr(5, 0), Orientation::Row, false);
    const Tick hit = f.access(0, f.rowAddr(5, 3), Orientation::Row,
                              false, 8);
    EXPECT_EQ(hit, f.config.cyc(f.config.l1Latency));
}

TEST(HierarchyTest, MissLatencyIncludesMemory)
{
    Fixture f;
    const Tick miss = f.access(0, f.rowAddr(5, 0), Orientation::Row,
                               false);
    const Tick path =
        f.config.cyc(f.config.l1Latency + f.config.l2Latency +
         f.config.l3Latency);
    EXPECT_GT(miss, path);
}

TEST(HierarchyTest, CrossCoreReadHitsL3)
{
    Fixture f;
    f.access(0, f.rowAddr(5, 0), Orientation::Row, false);
    const Tick other = f.access(1, f.rowAddr(5, 0), Orientation::Row,
                                false);
    const Tick l3 = f.config.cyc(f.config.l1Latency + f.config.l2Latency +
                     f.config.l3Latency);
    EXPECT_EQ(other, l3);
    EXPECT_DOUBLE_EQ(f.hierarchy.stats().get("cache.llcMisses"), 1.0);
    EXPECT_DOUBLE_EQ(f.hierarchy.stats().get("cache.l3Hits"), 1.0);
}

TEST(HierarchyTest, RemoteDirtyFetchPaysPenalty)
{
    Fixture f;
    f.access(0, f.rowAddr(5, 0), Orientation::Row, true); // dirty@0
    const Tick other = f.access(1, f.rowAddr(5, 0), Orientation::Row,
                                false);
    const Tick l3 = f.config.cyc(f.config.l1Latency + f.config.l2Latency +
                     f.config.l3Latency);
    EXPECT_EQ(other,
              l3 + f.config.cyc(f.config.remoteFetchPenalty));
    EXPECT_DOUBLE_EQ(
        f.hierarchy.stats().get("cache.cohRemoteFetches"), 1.0);
}

TEST(HierarchyTest, WriteInvalidatesOtherCores)
{
    Fixture f;
    f.access(0, f.rowAddr(5, 0), Orientation::Row, false);
    f.access(1, f.rowAddr(5, 0), Orientation::Row, false);
    // Core 1 writes: core 0's copy must be invalidated.
    f.access(1, f.rowAddr(5, 0), Orientation::Row, true, 8);
    EXPECT_GE(f.hierarchy.stats().get("cache.cohInvalidations"), 1.0);
    // Core 0 reads again: not an L1 hit (copy was invalidated), and
    // it must pay the remote-dirty penalty.
    const Tick again = f.access(0, f.rowAddr(5, 0), Orientation::Row,
                                false);
    EXPECT_GT(again, f.config.cyc(f.config.l1Latency));
}

TEST(HierarchyTest, SynonymCrossingBitsSetOnFill)
{
    Fixture f;
    // Load a column line, then a crossing row line: the fill must
    // detect the crossing.
    f.access(0, f.colAddr(437, 182), Orientation::Column, false);
    f.access(0, f.rowAddr(437, 176), Orientation::Row, false);
    EXPECT_GE(f.hierarchy.stats().get("cache.crossingsFound"), 1.0);
    EXPECT_GT(f.hierarchy.stats().get("cache.synonymProbes"), 0.0);
}

TEST(HierarchyTest, NoCrossingProbesWhenSingleOrientation)
{
    Fixture f;
    for (unsigned r = 0; r < 16; ++r)
        f.access(0, f.rowAddr(r, 0), Orientation::Row, false);
    // Only row lines cached: the orientation filter skips probes.
    EXPECT_DOUBLE_EQ(f.hierarchy.stats().get("cache.synonymProbes"),
                     0.0);
}

TEST(HierarchyTest, WriteToCrossedWordPropagates)
{
    Fixture f;
    f.access(0, f.colAddr(437, 182), Orientation::Column, false);
    f.access(0, f.rowAddr(437, 176), Orientation::Row, false);
    // Word 6 of the row line (col 176+6 = 182) crosses the cached
    // column line; writing it must update the partner.
    f.access(0, f.rowAddr(437, 182), Orientation::Row, true, 8);
    EXPECT_GE(f.hierarchy.stats().get("cache.synonymUpdates"), 1.0);
    EXPECT_GT(f.hierarchy.stats().get("cache.synonymTicks"), 0.0);
}

TEST(HierarchyTest, WriteToUncrossedWordDoesNotPropagate)
{
    Fixture f;
    f.access(0, f.colAddr(437, 182), Orientation::Column, false);
    f.access(0, f.rowAddr(437, 176), Orientation::Row, false);
    // Word 0 (col 176) does not cross the cached column line 182.
    f.access(0, f.rowAddr(437, 176), Orientation::Row, true, 8);
    EXPECT_DOUBLE_EQ(f.hierarchy.stats().get("cache.synonymUpdates"),
                     0.0);
}

TEST(HierarchyTest, SynonymDisabledOnRowOnlyDevices)
{
    sim::EventQueue eq;
    mem::MemorySystem memory(mem::DeviceKind::Dram, eq);
    HierarchyConfig config;
    Hierarchy hierarchy(config, eq, memory);
    CacheAccess a;
    a.addr = 0x1000;
    EXPECT_TRUE(hierarchy.access(0, a, [](Tick) {}));
    eq.run();
    EXPECT_DOUBLE_EQ(hierarchy.stats().get("cache.synonymProbes"),
                     0.0);
}

TEST(HierarchyTest, PinRangeProtectsLinesInL3)
{
    Fixture f;
    const Addr base = f.colAddr(0, 7);
    f.access(0, base, Orientation::Column, false);
    EXPECT_EQ(f.hierarchy.pinRange(base, Orientation::Column, 64,
                                   true),
              1u);
    EXPECT_EQ(f.hierarchy.pinRange(base, Orientation::Column, 64,
                                   false),
              1u);
    // Pinning a range that is not cached changes nothing.
    EXPECT_EQ(f.hierarchy.pinRange(f.colAddr(512, 99),
                                   Orientation::Column, 128, true),
              0u);
}

TEST(HierarchyTest, GatherBypassSkipsCaches)
{
    sim::EventQueue eq;
    mem::MemorySystem memory(mem::DeviceKind::GsDram, eq);
    HierarchyConfig config;
    Hierarchy hierarchy(config, eq, memory);
    CacheAccess a;
    a.addr = 0x2000;
    a.bypass = true;
    Tick done{0};
    EXPECT_TRUE(hierarchy.access(0, a, [&](Tick t) { done = t; }));
    eq.run();
    EXPECT_GT(done, Tick{0});
    EXPECT_DOUBLE_EQ(hierarchy.stats().get("cache.bypasses"), 1.0);
    EXPECT_DOUBLE_EQ(hierarchy.stats().get("cache.llcMisses"), 1.0);
    // A second identical gather still goes to memory.
    EXPECT_TRUE(hierarchy.access(0, a, [&](Tick t) { done = t; }));
    eq.run();
    EXPECT_DOUBLE_EQ(hierarchy.stats().get("cache.llcMisses"), 2.0);
}

TEST(HierarchyTest, DirtyEvictionWritesBack)
{
    Fixture f;
    // Dirty many distinct L3 sets is hard at 8 MB; instead shrink
    // the hierarchy so eviction happens quickly.
    HierarchyConfig small;
    small.l1 = CacheConfig{"L1", 512, 64, 2};
    small.l2 = CacheConfig{"L2", 1024, 64, 2};
    small.l3 = CacheConfig{"L3", 2048, 64, 2};
    sim::EventQueue eq;
    mem::MemorySystem memory(mem::DeviceKind::RcNvm, eq);
    Hierarchy hierarchy(small, eq, memory);
    // Write lines mapping to one L3 set until it spills.
    for (unsigned i = 0; i < 8; ++i) {
        mem::DecodedAddr d;
        d.row = i;
        CacheAccess a;
        a.addr = memory.map().encode(d, Orientation::Row);
        a.isWrite = true;
        a.bytes = 8;
        EXPECT_TRUE(hierarchy.access(0, a, [](Tick) {}));
        eq.run();
    }
    EXPECT_GT(hierarchy.stats().get("cache.writebacks"), 0.0);
    EXPECT_GT(memory.stats().get("mem.writes"), 0.0);
}

/** Count privately cached lines that break the directory invariant:
 *  each must be in the L3 (inclusion) with its core's sharer bit
 *  set, so that probing only the set bits reaches every copy a
 *  broadcast to all cores would. */
unsigned
directoryViolations(const Hierarchy &h)
{
    unsigned bad = 0;
    for (unsigned core = 0; core < h.config().cores; ++core) {
        const auto check = [&](const LineKey &key, const CacheLine &) {
            const CacheLine *home = h.l3().probe(key);
            if (!home) {
                ADD_FAILURE() << "core " << core << " holds line "
                              << key.addr << " absent from the L3";
                ++bad;
            } else if (!((h.l3().sharers(*home) >> core) & 1u)) {
                ADD_FAILURE() << "core " << core << " holds line "
                              << key.addr << " without its sharer bit";
                ++bad;
            }
        };
        h.l1(core).forEachLine(check);
        h.l2(core).forEachLine(check);
    }
    return bad;
}

TEST(HierarchyTest, SharerMasksCoverEveryPrivateCopy)
{
    sim::EventQueue eq;
    mem::MemorySystem memory{mem::DeviceKind::RcNvm, eq};
    HierarchyConfig config;
    config.cores = 16;
    // Tiny levels, so that L1, L2 and L3 evictions are all frequent.
    config.l1 = CacheConfig{"L1", 512, 64, 2};
    config.l2 = CacheConfig{"L2", 2 * 1024, 64, 4};
    config.l3 = CacheConfig{"L3", 8 * 1024, 64, 8};
    Hierarchy h{config, eq, memory};

    // A 32 x 32-word corner of one subarray: 128 row lines and 128
    // column lines, each crossing eight of the other orientation.
    util::Random rng(1202);
    const auto randomAccess = [&] {
        mem::DecodedAddr d;
        d.row = static_cast<unsigned>(rng.nextBounded(32));
        d.col = static_cast<unsigned>(rng.nextBounded(32));
        CacheAccess a;
        a.orient =
            rng.nextBool(0.5) ? Orientation::Row : Orientation::Column;
        a.addr = memory.map().encode(d, a.orient);
        a.isWrite = rng.nextBool(0.4);
        a.bytes = 8;
        return a;
    };

    unsigned bad = 0;
    for (unsigned step = 0; step < 4000 && bad == 0; ++step) {
        // Up to three cores at once, so fills coalesce and complete
        // between each other's accesses; the invariant is checked as
        // each access completes.
        const unsigned batch = 1 + rng.nextBounded(3);
        for (unsigned i = 0; i < batch; ++i) {
            const unsigned core =
                static_cast<unsigned>(rng.nextBounded(config.cores));
            ASSERT_TRUE(h.access(core, randomAccess(), [&](Tick) {
                bad += directoryViolations(h);
            }));
        }
        eq.run();
    }
    EXPECT_EQ(bad, 0u);

    // The run reached every path that reads or writes the masks.
    const auto stats = h.stats();
    EXPECT_GT(stats.get("cache.cohInvalidations"), 0.0);
    EXPECT_GT(stats.get("cache.cohRemoteFetches"), 0.0);
    EXPECT_GT(stats.get("cache.synonymUpdates"), 0.0);
    EXPECT_GT(stats.get("cache.writebacks"), 0.0);
    EXPECT_GT(stats.get("cache.mshrCoalesced"), 0.0);
}

TEST(HierarchyTest, MoreCoresThanSharerBitsIsFatal)
{
    sim::EventQueue eq;
    mem::MemorySystem memory{mem::DeviceKind::RcNvm, eq};
    HierarchyConfig config;
    config.cores = Hierarchy::kMaxCores + 1;
    EXPECT_EXIT(Hierarchy(config, eq, memory),
                ::testing::ExitedWithCode(1), "sharer mask holds");
}

TEST(HierarchyTest, StatsResetClearsEverything)
{
    Fixture f;
    f.access(0, f.rowAddr(1, 0), Orientation::Row, true);
    f.hierarchy.reset();
    const auto stats = f.hierarchy.stats();
    EXPECT_DOUBLE_EQ(stats.get("cache.accesses"), 0.0);
    EXPECT_DOUBLE_EQ(stats.get("cache.llcMisses"), 0.0);
    // And the data is gone: the next access misses again.
    const Tick miss = f.access(0, f.rowAddr(1, 0), Orientation::Row,
                               false);
    EXPECT_GT(miss, f.config.cyc(f.config.l1Latency));
}

} // namespace
} // namespace rcnvm::cache
