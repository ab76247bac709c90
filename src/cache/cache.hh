/**
 * @file
 * A single set-associative cache level with LRU replacement,
 * orientation-aware tags, crossing-bit storage, pinning, and (for the
 * shared L3) a core-sharer mask per line.
 *
 * The tag array is split in two. A key array holds one 64-bit word
 * per way (line address, orientation bit, live bit), so an 8-way set
 * scan reads 64 contiguous bytes instead of 192; a payload array
 * holds the 8-byte CacheLine (LRU stamp, MESI state, crossing and pin
 * bits) of each way, read only for the matched way or on eviction.
 */

#ifndef RCNVM_CACHE_CACHE_HH_
#define RCNVM_CACHE_CACHE_HH_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/line.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace rcnvm::cache {

/** Static configuration of one cache level. */
struct CacheConfig {
    std::string name = "cache";
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t lineBytes = 64;
    std::uint32_t ways = 8;

    std::uint32_t numSets() const
    {
        return sizeBytes / (lineBytes * ways);
    }
};

/** One bit per core: which private caches may hold an L3 line. */
using SharerMask = std::uint32_t;

/**
 * The tag/state array of one cache. Timing lives in the hierarchy;
 * this class is purely functional state.
 *
 * Row- and column-oriented lines share the sets (indexed by their
 * own addresses) and are distinguished by the orientation bit during
 * tag match, exactly as described in Sec. 4.3.1.
 *
 * Keys are line addresses, so their two low bits are free (the
 * constructor demands lineBytes >= 4): bit 1 is the orientation and
 * bit 0 is set on every live key, making 0 the free-way marker.
 * reset() clears the key array.
 *
 * LRU stamps are 32 bits wide. When the clock would wrap, every
 * set's live stamps are renumbered 1..ways in their existing order;
 * stamps are compared only within a set, so every replacement
 * decision is unchanged.
 *
 * A cache built with sharer masks keeps one SharerMask per line in an
 * array beside the payloads, so CacheLine (shared by every level)
 * does not grow. A freshly placed line starts with an empty mask; the
 * hierarchy sets and clears bits through sharers().
 */
class Cache
{
  public:
    /** Description of a line evicted by insert() or invalidate(). */
    struct Victim {
        LineKey key;
        MesiState state = MesiState::Invalid;
        std::uint8_t crossing = 0;
        SharerMask sharers = 0; //!< 0 without sharer masks
    };

    /** Build the cache; a set count or line size that is not a power
     *  of two, or a line smaller than 4 bytes, is fatal. */
    explicit Cache(const CacheConfig &config, bool sharerMasks = false);

    /** The configuration this cache was built with. */
    const CacheConfig &config() const { return config_; }

    // find/probe/insert are defined inline below: the hierarchy runs
    // several of them per simulated access, and the set scans are
    // small enough that call overhead would dominate them.

    /** Hint the host to pull this key's set into its cache. The tag
     *  arrays are megabytes, so a set scan is usually a host-memory
     *  miss; issuing the prefetch a few hundred instructions before
     *  the scan hides most of that latency. An 8-way set is 64 bytes
     *  of keys, 64 of payloads and 32 of sharer masks. */
    void
    prefetchSet(const LineKey &key) const
    {
        const std::size_t base = setBase(key);
        prefetchSpan(&keys_[base], sizeof(std::uint64_t) * config_.ways);
        prefetchSpan(&lines_[base], sizeof(CacheLine) * config_.ways);
        if (!sharers_.empty())
            prefetchSpan(&sharers_[base],
                         sizeof(SharerMask) * config_.ways);
    }

    /** Look up a line; returns nullptr on miss. Updates LRU on hit. */
    CacheLine *
    find(const LineKey &key)
    {
        const std::size_t i = match(key);
        if (i == kNoWay)
            return nullptr;
        CacheLine &line = lines_[i];
        line.lru = nextStamp();
        return &line;
    }

    /** Look up without disturbing replacement state. */
    const CacheLine *
    probe(const LineKey &key) const
    {
        const std::size_t i = match(key);
        return i == kNoWay ? nullptr : &lines_[i];
    }

    /**
     * Insert a line, evicting the LRU non-pinned way if the set is
     * full. If every way is pinned, the LRU pinned line is unpinned
     * and evicted (counted in the pinnedEvictions statistic).
     *
     * @param placed when non-null, receives the line now holding
     *   @p key (the re-used line on a match)
     * @return the evicted victim, if any
     */
    std::optional<Victim>
    insert(const LineKey &key, MesiState state,
           CacheLine **placed = nullptr)
    {
        const std::size_t base = setBase(key);
        const std::uint64_t want = packKey(key);

        // Scan the set's keys for a match and the first free way;
        // payloads are read only to pick a victim in a full set.
        std::size_t target = kNoWay;
        for (std::size_t i = base; i < base + config_.ways; ++i) {
            if (keys_[i] == want) {
                CacheLine &line = lines_[i];
                line.state = state;
                line.lru = nextStamp();
                if (placed)
                    *placed = &line;
                return std::nullopt;
            }
            if (keys_[i] == 0 && target == kNoWay)
                target = i;
        }

        std::optional<Victim> victim;
        if (target == kNoWay) {
            // Evict the LRU non-pinned way; fall back to the LRU
            // pinned way if the whole set is pinned (group
            // over-subscription).
            target = victimWay(base);
            const CacheLine &old = lines_[target];
            victim = Victim{unpackKey(keys_[target]), old.state,
                            old.crossing, 0};
            if (victim->key.orient == Orientation::Row)
                --rowLines_;
            else
                --columnLines_;
        }

        keys_[target] = want;
        CacheLine &line = lines_[target];
        line = CacheLine{nextStamp(), state, 0, false};
        if (key.orient == Orientation::Row)
            ++rowLines_;
        else
            ++columnLines_;
        if (!sharers_.empty()) {
            // A placed line starts with no sharers; only a displaced
            // live line hands its mask over (a free way's slot may be
            // stale).
            SharerMask &mask = sharers_[target];
            if (victim)
                victim->sharers = mask;
            mask = 0;
        }
        if (placed)
            *placed = &line;
        return victim;
    }

    /** Remove a line if present; returns its pre-invalidation copy. */
    std::optional<Victim> invalidate(const LineKey &key);

    /** Pin or unpin a line; returns false when absent. */
    bool setPinned(const LineKey &key, bool pinned);

    /** Sharer mask of @p line, a line of this cache (caches built
     *  with sharer masks only). */
    SharerMask &
    sharers(const CacheLine &line)
    {
        return sharers_[static_cast<std::size_t>(&line - lines_.data())];
    }

    /** Read-only form of sharers(). */
    SharerMask
    sharers(const CacheLine &line) const
    {
        return sharers_[static_cast<std::size_t>(&line - lines_.data())];
    }

    /** Call @p fn(key, line) with every valid line (invariant
     *  checks). */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            if (keys_[i] != 0)
                fn(unpackKey(keys_[i]), lines_[i]);
        }
    }

    /** Number of valid column-oriented lines (probe filtering). */
    std::uint64_t columnLines() const { return columnLines_; }

    /** Number of valid row-oriented lines. */
    std::uint64_t rowLines() const { return rowLines_; }

    /** Count of valid lines with the given orientation. */
    std::uint64_t
    linesWithOrientation(Orientation o) const
    {
        return o == Orientation::Row ? rowLines_ : columnLines_;
    }

    /** Forced evictions of pinned lines (should stay zero). */
    std::uint64_t pinnedEvictions() const { return pinnedEvictions_; }

    /** Drop all lines and statistics. */
    void reset();

  private:
    friend struct CacheTestPeer; //!< forces the LRU-renumbering path

    /** match() result when no way holds the key. */
    static constexpr std::size_t kNoWay = ~std::size_t{0};

    /** Key word of @p key: the line address with the orientation in
     *  bit 1 and the live bit in bit 0. */
    static std::uint64_t
    packKey(const LineKey &key)
    {
        assert((key.addr & 3) == 0 && "line addresses keep 2 low bits free");
        return key.addr |
               (std::uint64_t{static_cast<std::uint8_t>(key.orient)} << 1) |
               1u;
    }

    /** Inverse of packKey() for a live key word. */
    static LineKey
    unpackKey(std::uint64_t word)
    {
        return LineKey{word & ~Addr{3}, (word & 2u) ? Orientation::Column
                                                    : Orientation::Row};
    }

    /** Prefetch every host cache line of [p, p + bytes); the arrays
     *  are not line-aligned, so the last byte may start one more. */
    static void
    prefetchSpan(const void *p, std::size_t bytes)
    {
        const auto *c = static_cast<const char *>(p);
        for (std::size_t off = 0; off < bytes; off += 64)
            __builtin_prefetch(c + off);
        __builtin_prefetch(c + bytes - 1);
    }

    /** Index of the first way of @p key's set. */
    std::size_t
    setBase(const LineKey &key) const
    {
        return std::size_t{setIndex(key)} * config_.ways;
    }

    /** Index of the way holding @p key, or kNoWay. Reads only the
     *  key array and touches no replacement state. */
    std::size_t
    match(const LineKey &key) const
    {
        const std::size_t base = setBase(key);
        const std::uint64_t want = packKey(key);
        for (std::size_t i = base; i < base + config_.ways; ++i) {
            if (keys_[i] == want)
                return i;
        }
        return kNoWay;
    }

    /** The way a full set starting at @p base gives up: its LRU
     *  unpinned way, else (counted) its LRU pinned way. */
    std::size_t
    victimWay(std::size_t base)
    {
        std::size_t lru_unpinned = kNoWay;
        std::size_t lru_any = base;
        for (std::size_t i = base; i < base + config_.ways; ++i) {
            const CacheLine &line = lines_[i];
            if (line.lru < lines_[lru_any].lru)
                lru_any = i;
            if (!line.pinned &&
                (lru_unpinned == kNoWay ||
                 line.lru < lines_[lru_unpinned].lru)) {
                lru_unpinned = i;
            }
        }
        if (lru_unpinned != kNoWay)
            return lru_unpinned;
        ++pinnedEvictions_;
        return lru_any;
    }

    /** The next LRU stamp, renumbering first when the clock is
     *  about to wrap. */
    std::uint32_t
    nextStamp()
    {
        if (lruClock_ == kMaxStamp) [[unlikely]]
            renumberStamps();
        return ++lruClock_;
    }

    /** Rewrite every set's live stamps as 1..n in their LRU order
     *  and restart the clock above them. */
    void renumberStamps();

    /** Shift/mask rather than divide/modulo: the constructor demands
     *  power-of-two line size and set count, and two runtime integer
     *  divisions here would otherwise lead every set scan. */
    unsigned
    setIndex(const LineKey &key) const
    {
        return static_cast<unsigned>((key.addr >> lineShift_) &
                                     setMask_);
    }

    static constexpr std::uint32_t kMaxStamp = ~std::uint32_t{0};

    CacheConfig config_;
    std::uint32_t numSets_;
    std::uint32_t lineShift_ = 0; //!< log2(lineBytes)
    std::uint32_t setMask_ = 0;   //!< numSets - 1
    // Plain vectors: aligning the arrays to host lines showed no gain
    // in interleaved runs, and glibc's aligned allocations left free
    // fragments that raised a 52-machine sweep's peak RSS by 5 MB.
    /** numSets_ x ways key words, row-major; 0 marks a free way. */
    std::vector<std::uint64_t> keys_;
    std::vector<CacheLine> lines_;      //!< payload per way
    std::vector<SharerMask> sharers_;   //!< per way, or empty
    std::uint32_t lruClock_ = 0;
    std::uint64_t rowLines_ = 0;
    std::uint64_t columnLines_ = 0;
    std::uint64_t pinnedEvictions_ = 0;
};

} // namespace rcnvm::cache

#endif // RCNVM_CACHE_CACHE_HH_
