/**
 * @file
 * Tests for the set-associative cache: orientation-aware tag match,
 * LRU replacement, pinning, crossing-bit storage, sharer masks, a
 * differential check against a naive reference cache (including the
 * LRU-clock renumbering), and the synonym crossing geometry of
 * Figure 8.
 */

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

#include "cache/cache.hh"
#include "cache/synonym.hh"
#include "mem/geometry.hh"
#include "util/random.hh"

namespace rcnvm::cache {

/** Test access to a cache's LRU clock, to reach its 32-bit wrap
 *  without four billion operations. */
struct CacheTestPeer {
    static std::uint32_t clock(const Cache &c) { return c.lruClock_; }
    static void setClock(Cache &c, std::uint32_t v) { c.lruClock_ = v; }
};

namespace {

CacheConfig
tinyConfig()
{
    CacheConfig cfg;
    cfg.name = "tiny";
    cfg.sizeBytes = 2 * 1024; // 4 sets x 8 ways x 64 B
    cfg.ways = 8;
    return cfg;
}

TEST(CacheTest, MissThenHit)
{
    Cache cache(tinyConfig());
    const LineKey key{0x1000, Orientation::Row};
    EXPECT_EQ(cache.find(key), nullptr);
    cache.insert(key, MesiState::Exclusive);
    ASSERT_NE(cache.find(key), nullptr);
    EXPECT_EQ(cache.find(key)->state, MesiState::Exclusive);
}

TEST(CacheTest, OrientationDistinguishesLines)
{
    // The orientation bit is part of the line identity (Sec. 4.3.1).
    Cache cache(tinyConfig());
    cache.insert(LineKey{0x1000, Orientation::Row},
                 MesiState::Modified);
    EXPECT_EQ(cache.find(LineKey{0x1000, Orientation::Column}),
              nullptr);
    cache.insert(LineKey{0x1000, Orientation::Column},
                 MesiState::Shared);
    EXPECT_EQ(cache.find(LineKey{0x1000, Orientation::Row})->state,
              MesiState::Modified);
    EXPECT_EQ(
        cache.find(LineKey{0x1000, Orientation::Column})->state,
        MesiState::Shared);
    EXPECT_EQ(cache.rowLines(), 1u);
    EXPECT_EQ(cache.columnLines(), 1u);
}

TEST(CacheTest, ReinsertUpdatesStateWithoutVictim)
{
    Cache cache(tinyConfig());
    const LineKey key{0x40, Orientation::Row};
    cache.insert(key, MesiState::Shared);
    const auto victim = cache.insert(key, MesiState::Modified);
    EXPECT_FALSE(victim.has_value());
    EXPECT_EQ(cache.find(key)->state, MesiState::Modified);
    EXPECT_EQ(cache.rowLines(), 1u);
}

TEST(CacheTest, LruEvictionPicksOldest)
{
    Cache cache(tinyConfig()); // 4 sets, 8 ways
    // Fill one set (set 0: addresses multiple of 4*64=256).
    for (unsigned i = 0; i < 8; ++i) {
        cache.insert(LineKey{Addr{i} * 256, Orientation::Row},
                     MesiState::Shared);
    }
    // Touch line 0 so line 1 becomes LRU.
    cache.find(LineKey{0, Orientation::Row});
    const auto victim = cache.insert(LineKey{8 * 256,
                                             Orientation::Row},
                                     MesiState::Shared);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->key.addr, 256u);
}

TEST(CacheTest, EvictionReportsStateAndCrossing)
{
    Cache cache(tinyConfig());
    for (unsigned i = 0; i < 8; ++i) {
        cache.insert(LineKey{Addr{i} * 256, Orientation::Row},
                     MesiState::Shared);
    }
    CacheLine *line = cache.find(LineKey{0, Orientation::Row});
    line->state = MesiState::Modified;
    line->crossing = 0xa5;
    // Evict everything else first so line 0 stays, then force a
    // conflict eviction of the oldest line (line 1 after touch).
    for (unsigned i = 1; i < 8; ++i)
        cache.find(LineKey{Addr{i} * 256, Orientation::Row});
    const auto victim = cache.insert(LineKey{8 * 256,
                                             Orientation::Row},
                                     MesiState::Shared);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->key.addr, 0u);
    EXPECT_EQ(victim->state, MesiState::Modified);
    EXPECT_EQ(victim->crossing, 0xa5);
}

TEST(CacheTest, PinnedLinesSurviveEviction)
{
    Cache cache(tinyConfig());
    cache.insert(LineKey{0, Orientation::Row}, MesiState::Shared);
    EXPECT_TRUE(cache.setPinned(LineKey{0, Orientation::Row}, true));
    for (unsigned i = 1; i <= 16; ++i) {
        cache.insert(LineKey{Addr{i} * 256, Orientation::Row},
                     MesiState::Shared);
    }
    EXPECT_NE(cache.find(LineKey{0, Orientation::Row}), nullptr);
    EXPECT_EQ(cache.pinnedEvictions(), 0u);
}

TEST(CacheTest, FullyPinnedSetFallsBackAndCounts)
{
    Cache cache(tinyConfig());
    for (unsigned i = 0; i < 8; ++i) {
        const LineKey key{Addr{i} * 256, Orientation::Row};
        cache.insert(key, MesiState::Shared);
        cache.setPinned(key, true);
    }
    const auto victim = cache.insert(LineKey{8 * 256,
                                             Orientation::Row},
                                     MesiState::Shared);
    EXPECT_TRUE(victim.has_value());
    EXPECT_EQ(cache.pinnedEvictions(), 1u);
}

TEST(CacheTest, UnpinAllowsEviction)
{
    Cache cache(tinyConfig());
    const LineKey key{0, Orientation::Row};
    cache.insert(key, MesiState::Shared);
    cache.setPinned(key, true);
    cache.setPinned(key, false);
    for (unsigned i = 1; i <= 8; ++i) {
        cache.insert(LineKey{Addr{i} * 256, Orientation::Row},
                     MesiState::Shared);
    }
    EXPECT_EQ(cache.find(key), nullptr);
}

TEST(CacheTest, SetPinnedOnMissingLineFails)
{
    Cache cache(tinyConfig());
    EXPECT_FALSE(
        cache.setPinned(LineKey{0x40, Orientation::Row}, true));
}

TEST(CacheTest, InvalidateRemovesAndReports)
{
    Cache cache(tinyConfig());
    const LineKey key{0x80, Orientation::Column};
    cache.insert(key, MesiState::Modified);
    const auto victim = cache.invalidate(key);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->state, MesiState::Modified);
    EXPECT_EQ(cache.find(key), nullptr);
    EXPECT_EQ(cache.columnLines(), 0u);
    EXPECT_FALSE(cache.invalidate(key).has_value());
}

TEST(CacheTest, ProbeDoesNotTouchLru)
{
    Cache cache(tinyConfig());
    for (unsigned i = 0; i < 8; ++i) {
        cache.insert(LineKey{Addr{i} * 256, Orientation::Row},
                     MesiState::Shared);
    }
    // Probing line 0 must NOT protect it from LRU eviction.
    EXPECT_NE(cache.probe(LineKey{0, Orientation::Row}), nullptr);
    const auto victim = cache.insert(LineKey{8 * 256,
                                             Orientation::Row},
                                     MesiState::Shared);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->key.addr, 0u);
}

TEST(CacheTest, ResetDropsEverything)
{
    Cache cache(tinyConfig());
    cache.insert(LineKey{0x40, Orientation::Row}, MesiState::Shared);
    cache.insert(LineKey{0x80, Orientation::Column},
                 MesiState::Shared);
    cache.reset();
    EXPECT_EQ(cache.find(LineKey{0x40, Orientation::Row}), nullptr);
    EXPECT_EQ(cache.rowLines(), 0u);
    EXPECT_EQ(cache.columnLines(), 0u);
}

TEST(CacheTest, SharerMaskTravelsWithTheVictim)
{
    Cache cache(tinyConfig(), /*sharerMasks=*/true);
    const LineKey key{0x40, Orientation::Row};
    cache.insert(key, MesiState::Shared);
    CacheLine *line = cache.find(key);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(cache.sharers(*line), 0u); // a new line has no sharers
    cache.sharers(*line) = 0b1010;

    // A re-insert of a present line keeps its mask.
    CacheLine *placed = nullptr;
    EXPECT_FALSE(cache.insert(key, MesiState::Modified, &placed));
    EXPECT_EQ(placed, line);
    EXPECT_EQ(cache.sharers(*line), 0b1010u);

    const auto gone = cache.invalidate(key);
    ASSERT_TRUE(gone.has_value());
    EXPECT_EQ(gone->sharers, 0b1010u);

    // Refill the freed way, then evict it: the mask started at 0 and
    // leaves with whatever was set since.
    cache.insert(key, MesiState::Shared, &placed);
    EXPECT_EQ(cache.sharers(*placed), 0u);
    cache.sharers(*placed) = 0b1;
    for (unsigned i = 1; i < 8; ++i) {
        cache.insert(LineKey{0x40 + Addr{i} * 256, Orientation::Row},
                     MesiState::Shared);
    }
    const auto victim = cache.insert(
        LineKey{0x40 + 8 * 256, Orientation::Row}, MesiState::Shared,
        &placed);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->key, key);
    EXPECT_EQ(victim->sharers, 0b1u);
    EXPECT_EQ(cache.sharers(*placed), 0u);
}

TEST(CacheTest, MissedLookupsLeaveReplacementOrderAlone)
{
    // The L3 sharer masks may name cores that no longer hold a line;
    // probing them is safe only because a missed find() or
    // invalidate() changes nothing.
    Cache cache(tinyConfig());
    for (unsigned i = 0; i < 8; ++i) {
        cache.insert(LineKey{Addr{i} * 256, Orientation::Row},
                     MesiState::Shared);
    }
    const LineKey absent{0, Orientation::Column};
    EXPECT_EQ(cache.find(absent), nullptr);
    EXPECT_FALSE(cache.invalidate(absent).has_value());
    const auto victim = cache.insert(LineKey{8 * 256, Orientation::Row},
                                     MesiState::Shared);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->key.addr, 0u);
}

TEST(CacheDeathTest, LinesBelowFourBytesAreFatal)
{
    // The key word keeps the orientation and live bits in the two low
    // bits of the line address.
    EXPECT_DEATH(Cache(CacheConfig{"tiny", 64, 2, 8}), "at least 4 bytes");
}

// ---------------------------------------------------------------
// Differential check against a naive reference cache.
// ---------------------------------------------------------------

/** The behaviour Cache must have, written as plainly as possible:
 *  each set is a list of its live lines with 64-bit stamps, and a
 *  full set evicts its oldest unpinned line (else its oldest). */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &config)
        : config_(config), sets_(config.numSets())
    {
    }

    /** Hit state and crossing bits, or nullopt on a miss. */
    std::optional<std::pair<MesiState, std::uint8_t>>
    find(const LineKey &key)
    {
        Line *line = lookup(key);
        if (!line)
            return std::nullopt;
        line->stamp = ++clock_;
        return std::make_pair(line->state, line->crossing);
    }

    void
    setCrossing(const LineKey &key, std::uint8_t bits)
    {
        lookup(key)->crossing = bits;
    }

    std::optional<Cache::Victim>
    insert(const LineKey &key, MesiState state)
    {
        if (Line *line = lookup(key)) {
            line->state = state;
            line->stamp = ++clock_;
            return std::nullopt;
        }
        std::vector<Line> &set = setOf(key);
        std::optional<Cache::Victim> victim;
        if (set.size() == config_.ways) {
            auto oldest = set.end();
            for (auto it = set.begin(); it != set.end(); ++it) {
                if (!it->pinned &&
                    (oldest == set.end() || it->stamp < oldest->stamp))
                    oldest = it;
            }
            if (oldest == set.end()) {
                ++pinnedEvictions_;
                oldest = set.begin();
                for (auto it = set.begin(); it != set.end(); ++it) {
                    if (it->stamp < oldest->stamp)
                        oldest = it;
                }
            }
            victim = Cache::Victim{oldest->key, oldest->state,
                                   oldest->crossing, 0};
            set.erase(oldest);
        }
        set.push_back(Line{key, state, 0, false, ++clock_});
        return victim;
    }

    std::optional<Cache::Victim>
    invalidate(const LineKey &key)
    {
        std::vector<Line> &set = setOf(key);
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->key == key) {
                const Cache::Victim v{it->key, it->state, it->crossing,
                                      0};
                set.erase(it);
                return v;
            }
        }
        return std::nullopt;
    }

    bool
    setPinned(const LineKey &key, bool pinned)
    {
        Line *line = lookup(key);
        if (!line)
            return false;
        line->stamp = ++clock_;
        line->pinned = pinned;
        return true;
    }

    void
    reset()
    {
        for (auto &set : sets_)
            set.clear();
        pinnedEvictions_ = 0;
    }

    std::uint64_t
    lines(Orientation o) const
    {
        std::uint64_t n = 0;
        for (const auto &set : sets_) {
            for (const Line &line : set)
                n += line.key.orient == o;
        }
        return n;
    }

    std::uint64_t pinnedEvictions() const { return pinnedEvictions_; }

  private:
    struct Line {
        LineKey key;
        MesiState state;
        std::uint8_t crossing;
        bool pinned;
        std::uint64_t stamp;
    };

    std::vector<Line> &
    setOf(const LineKey &key)
    {
        return sets_[(key.addr / config_.lineBytes) % sets_.size()];
    }

    Line *
    lookup(const LineKey &key)
    {
        for (Line &line : setOf(key)) {
            if (line.key == key)
                return &line;
        }
        return nullptr;
    }

    CacheConfig config_;
    std::vector<std::vector<Line>> sets_;
    std::uint64_t clock_ = 0;
    std::uint64_t pinnedEvictions_ = 0;
};

void
expectSameVictim(const std::optional<Cache::Victim> &got,
                 const std::optional<Cache::Victim> &want,
                 unsigned step)
{
    ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
    if (!got)
        return;
    EXPECT_EQ(got->key, want->key) << "step " << step;
    EXPECT_EQ(got->state, want->state) << "step " << step;
    EXPECT_EQ(got->crossing, want->crossing) << "step " << step;
}

/**
 * Drive @p cache and a ReferenceCache with the same seeded random
 * finds, inserts, invalidates, pins, crossing updates and resets over
 * a small pool of row and column lines, asserting identical hits,
 * victims and per-orientation line counts after every step. When
 * @p wrapEvery is non-zero, the cache's LRU clock is pushed to a few
 * stamps below its 32-bit wrap every @p wrapEvery steps.
 *
 * @return evictions seen (the caller checks the run had some)
 */
unsigned
runDifferential(Cache &cache, std::uint64_t seed, unsigned steps,
                unsigned wrapEvery = 0)
{
    const CacheConfig &config = cache.config();
    ReferenceCache ref(config);
    util::Random rng(seed);
    // Four lines per way and set, in both orientations: sets
    // overflow constantly.
    const std::uint64_t pool = std::uint64_t{config.numSets()} *
                               config.ways * 4;
    unsigned evictions = 0;
    for (unsigned step = 0; step < steps; ++step) {
        if (wrapEvery != 0 && step % wrapEvery == wrapEvery / 2) {
            CacheTestPeer::setClock(
                cache, ~std::uint32_t{0} -
                           static_cast<std::uint32_t>(rng.nextBounded(8)));
        }
        const LineKey key{rng.nextBounded(pool) * config.lineBytes,
                          rng.nextBool(0.5) ? Orientation::Row
                                            : Orientation::Column};
        const std::uint64_t op = rng.nextBounded(100);
        if (op < 40) {
            CacheLine *line = cache.find(key);
            const auto want = ref.find(key);
            EXPECT_EQ(line != nullptr, want.has_value())
                << "step " << step;
            if (line && want) {
                EXPECT_EQ(line->state, want->first) << "step " << step;
                EXPECT_EQ(line->crossing, want->second)
                    << "step " << step;
                if (rng.nextBool(0.3)) {
                    const auto bits =
                        static_cast<std::uint8_t>(rng.nextBounded(256));
                    line->crossing = bits;
                    ref.setCrossing(key, bits);
                }
            }
        } else if (op < 75) {
            const auto state =
                static_cast<MesiState>(1 + rng.nextBounded(3));
            const auto got = cache.insert(key, state);
            const auto want = ref.insert(key, state);
            expectSameVictim(got, want, step);
            evictions += got.has_value();
        } else if (op < 87) {
            expectSameVictim(cache.invalidate(key), ref.invalidate(key),
                             step);
        } else if (op < 99) {
            const bool pinned = rng.nextBool(0.7);
            EXPECT_EQ(cache.setPinned(key, pinned),
                      ref.setPinned(key, pinned))
                << "step " << step;
        } else if (rng.nextBool(0.2)) {
            cache.reset();
            ref.reset();
        }
        EXPECT_EQ(cache.rowLines(), ref.lines(Orientation::Row))
            << "step " << step;
        EXPECT_EQ(cache.columnLines(), ref.lines(Orientation::Column))
            << "step " << step;
        EXPECT_EQ(cache.pinnedEvictions(), ref.pinnedEvictions())
            << "step " << step;
        if (::testing::Test::HasFailure())
            break;
    }
    return evictions;
}

TEST(CacheDifferentialTest, MatchesANaiveReferenceCache)
{
    const CacheConfig configs[] = {
        tinyConfig(),
        CacheConfig{"two-way", 512, 64, 2},
        CacheConfig{"sixteen-way", 8 * 1024, 64, 16},
    };
    for (const CacheConfig &config : configs) {
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            SCOPED_TRACE(config.name + " seed " + std::to_string(seed));
            Cache cache(config);
            EXPECT_GT(runDifferential(cache, seed, 20000), 1000u);
        }
    }
}

TEST(CacheDifferentialTest, LruRenumberingKeepsTheEvictionOrder)
{
    // The clock is pushed to just below its wrap every 500 steps, so
    // full sets with interleaved stamps are renumbered dozens of
    // times; hits and victims must still match the 64-bit reference.
    Cache cache(tinyConfig());
    EXPECT_GT(runDifferential(cache, 7, 20000, 500), 1000u);
    EXPECT_LT(CacheTestPeer::clock(cache), 1000u);
}

TEST(CacheConfigTest, SetCountArithmetic)
{
    CacheConfig l1{"L1", 32 * 1024, 64, 8};
    EXPECT_EQ(l1.numSets(), 64u);
    CacheConfig l3{"L3", 8 * 1024 * 1024, 64, 8};
    EXPECT_EQ(l3.numSets(), 16384u);
}

// ---------------------------------------------------------------
// Synonym crossing geometry.
// ---------------------------------------------------------------

class SynonymFixture : public ::testing::Test
{
  protected:
    mem::AddressMap map_{mem::Geometry::rcNvm()};
    SynonymMapper synonym_{map_};
};

TEST_F(SynonymFixture, RowLineHasEightColumnPartners)
{
    mem::DecodedAddr d;
    d.row = 437;
    d.col = 176; // line-aligned (176 % 8 == 0)
    const LineKey key{map_.encode(d, Orientation::Row),
                      Orientation::Row};
    const auto crossings = synonym_.crossings(key);
    std::set<Addr> partners;
    for (const Crossing &c : crossings) {
        EXPECT_EQ(c.partner.orient, Orientation::Column);
        partners.insert(c.partner.addr);
        // The partner word index is the row within the partner's
        // 8-row span.
        EXPECT_EQ(c.partnerWord, 437u % 8);
    }
    EXPECT_EQ(partners.size(), 8u); // all distinct columns
}

TEST_F(SynonymFixture, CrossingIsSymmetric)
{
    mem::DecodedAddr d;
    d.row = 100;
    d.col = 40;
    const LineKey row_line{map_.encode(d, Orientation::Row) & ~63ull,
                           Orientation::Row};
    for (unsigned w = 0; w < 8; ++w) {
        const Crossing c = synonym_.crossingOfWord(row_line, w);
        // Crossing back from the partner at partnerWord must return
        // the original line and word.
        const Crossing back =
            synonym_.crossingOfWord(c.partner, c.partnerWord);
        EXPECT_EQ(back.partner, row_line);
        EXPECT_EQ(back.partnerWord, w);
    }
}

TEST_F(SynonymFixture, PartnersShareBankAndSubarray)
{
    mem::DecodedAddr d;
    d.channel = 1;
    d.rank = 2;
    d.bank = 4;
    d.subarray = 3;
    d.row = 99;
    d.col = 8;
    const LineKey key{map_.encode(d, Orientation::Row),
                      Orientation::Row};
    for (const Crossing &c : synonym_.crossings(key)) {
        const mem::DecodedAddr p =
            map_.decode(c.partner.addr, Orientation::Column);
        EXPECT_EQ(p.channel, d.channel);
        EXPECT_EQ(p.rank, d.rank);
        EXPECT_EQ(p.bank, d.bank);
        EXPECT_EQ(p.subarray, d.subarray);
    }
}

TEST_F(SynonymFixture, ColumnLinePartnersAreRowLines)
{
    mem::DecodedAddr d;
    d.row = 24; // aligned
    d.col = 7;
    const LineKey key{map_.encode(d, Orientation::Column),
                      Orientation::Column};
    const auto crossings = synonym_.crossings(key);
    for (unsigned w = 0; w < 8; ++w) {
        EXPECT_EQ(crossings[w].partner.orient, Orientation::Row);
        EXPECT_EQ(crossings[w].selfWord, w);
        // Partner word = our column within the row line's span.
        EXPECT_EQ(crossings[w].partnerWord, 7u % 8);
    }
}

TEST_F(SynonymFixture, StridedCrossingsMatchPerWordCrossings)
{
    util::Random rng(1201);
    const Addr lines = map_.geometry().capacityBytes() / 64;
    for (unsigned i = 0; i < 2000; ++i) {
        const Orientation o =
            rng.nextBool(0.5) ? Orientation::Row : Orientation::Column;
        const LineKey key{rng.nextBounded(lines) * 64, o};
        const auto crossings = synonym_.crossings(key);
        for (unsigned w = 0; w < SynonymMapper::wordsPerLine; ++w) {
            const Crossing one = synonym_.crossingOfWord(key, w);
            EXPECT_EQ(crossings[w].partner, one.partner)
                << "line " << key.addr << " word " << w;
            EXPECT_EQ(crossings[w].selfWord, one.selfWord);
            EXPECT_EQ(crossings[w].partnerWord, one.partnerWord);
        }
    }
}

TEST(SynonymMapperTest, ProbingNeedsSquareSubarrays)
{
    const mem::AddressMap dram{mem::Geometry::dram()};
    const SynonymMapper inert(dram, /*probing=*/false);
    (void)inert;
    EXPECT_EXIT(SynonymMapper(dram, /*probing=*/true),
                ::testing::ExitedWithCode(1), "square subarrays");
}

TEST_F(SynonymFixture, PartnerAddressesAreLineAligned)
{
    mem::DecodedAddr d;
    d.row = 1023;
    d.col = 1016;
    const LineKey key{map_.encode(d, Orientation::Row),
                      Orientation::Row};
    for (const Crossing &c : synonym_.crossings(key))
        EXPECT_EQ(c.partner.addr % 64, 0u);
}

} // namespace
} // namespace rcnvm::cache
