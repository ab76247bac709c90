/**
 * @file
 * Crossing-line geometry for the cache synonym problem (Sec. 4.3).
 *
 * A 64-byte row-oriented line holds 8 consecutive words of one
 * physical row; each of those words also belongs to exactly one
 * column-oriented line (8 consecutive words of one physical column),
 * and vice versa. These helpers enumerate the 8 potential crossing
 * lines of a given line and locate the shared word in each.
 *
 * A line's eight words sit in consecutive slots of its B field (see
 * mem::AddressMap), so their partners differ only in the other
 * orientation's A field: the partners of words 1..7 are the partner
 * of word 0 plus a fixed stride, and all eight share one partner
 * word. The stride is the same for both orientations only when the
 * subarrays are square (as many rows as columns), which is what a
 * dual-addressable device has.
 */

#ifndef RCNVM_CACHE_SYNONYM_HH_
#define RCNVM_CACHE_SYNONYM_HH_

#include <array>

#include "cache/line.hh"
#include "mem/geometry.hh"
#include "util/types.hh"

namespace rcnvm::cache {

/** One crossing relationship between two lines. */
struct Crossing {
    LineKey partner;      //!< the crossing line in the other space
    unsigned selfWord;    //!< shared word's index within this line
    unsigned partnerWord; //!< shared word's index within the partner
};

/**
 * Computes crossing sets using a device's address map. Only valid
 * for dual-addressable (square-subarray) geometries.
 */
class SynonymMapper
{
  public:
    /** Words per cache line (64 B / 8 B). */
    static constexpr unsigned wordsPerLine = 8;

    /**
     * Build a mapper over @p map. With @p probing set, a map whose
     * subarrays are not square is a fatal configuration error;
     * without it the mapper is inert and crossings() must not be
     * called.
     */
    explicit SynonymMapper(const mem::AddressMap &map,
                           bool probing = true);

    /**
     * Enumerate the 8 lines of the opposite orientation that share a
     * word with @p key.
     */
    std::array<Crossing, wordsPerLine>
    crossings(const LineKey &key) const;

    /**
     * The crossing line containing word @p word_index of @p key,
     * without enumerating all eight.
     */
    Crossing crossingOfWord(const LineKey &key,
                            unsigned word_index) const;

  private:
    const mem::AddressMap *map_;
    Addr stride_ = 0; //!< partner distance between adjacent words
};

} // namespace rcnvm::cache

#endif // RCNVM_CACHE_SYNONYM_HH_
