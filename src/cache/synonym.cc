#include "cache/synonym.hh"

#include "util/logging.hh"

namespace rcnvm::cache {

SynonymMapper::SynonymMapper(const mem::AddressMap &map, bool probing)
    : map_(&map)
{
    // Measure the stride on the map itself, once per orientation:
    // the partner of word 1 minus the partner of word 0 of line 0.
    const auto strideOf = [this](Orientation o) {
        const LineKey line{0, o};
        return crossingOfWord(line, 1).partner.addr -
               crossingOfWord(line, 0).partner.addr;
    };
    stride_ = strideOf(Orientation::Row);
    if (probing && strideOf(Orientation::Column) != stride_) {
        rcnvm_fatal("synonym probing needs square subarrays, not ",
                    map.geometry().rowsPerSubarray, " rows x ",
                    map.geometry().colsPerSubarray, " columns");
    }
}

Crossing
SynonymMapper::crossingOfWord(const LineKey &key,
                              unsigned word_index) const
{
    // Decode the word's location, then express it in the other
    // orientation and align to that orientation's line.
    const Addr word_addr = key.addr + Addr{word_index} * 8;
    mem::DecodedAddr d = map_->decode(word_addr, key.orient);
    d.offset = 0;

    const Orientation other = flip(key.orient);
    const Addr other_word = map_->encode(d, other);
    const Addr other_line = other_word & ~Addr{63};

    Crossing c;
    c.partner = LineKey{other_line, other};
    c.selfWord = word_index;
    c.partnerWord = static_cast<unsigned>((other_word - other_line) / 8);
    return c;
}

std::array<Crossing, SynonymMapper::wordsPerLine>
SynonymMapper::crossings(const LineKey &key) const
{
    // One decode/encode for word 0; the rest follow by the stride.
    const Crossing first = crossingOfWord(key, 0);
    std::array<Crossing, wordsPerLine> out;
    for (unsigned w = 0; w < wordsPerLine; ++w) {
        out[w] = Crossing{
            LineKey{first.partner.addr + w * stride_,
                    first.partner.orient},
            w, first.partnerWord};
    }
    return out;
}

} // namespace rcnvm::cache
