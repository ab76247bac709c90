#include "cache/cache.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/bitfield.hh"
#include "util/logging.hh"

namespace rcnvm::cache {

Cache::Cache(const CacheConfig &config, bool sharerMasks)
    : config_(config), numSets_(config.numSets())
{
    if (!util::isPowerOfTwo(numSets_))
        rcnvm_fatal(config_.name, ": set count must be a power of two");
    if (!util::isPowerOfTwo(config_.lineBytes))
        rcnvm_fatal(config_.name, ": line size must be a power of two");
    if (config_.lineBytes < 4) {
        // The key word keeps the orientation and live bits in the
        // two low bits of the line address.
        rcnvm_fatal(config_.name, ": line size must be at least 4 bytes");
    }
    lineShift_ = static_cast<std::uint32_t>(
        std::countr_zero(config_.lineBytes));
    setMask_ = numSets_ - 1;
    keys_.resize(std::size_t{numSets_} * config_.ways);
    lines_.resize(keys_.size());
    if (sharerMasks)
        sharers_.resize(keys_.size());
}

std::optional<Cache::Victim>
Cache::invalidate(const LineKey &key)
{
    // No LRU stamp: the line is about to be dropped.
    const std::size_t i = match(key);
    if (i == kNoWay)
        return std::nullopt;
    const CacheLine &line = lines_[i];
    Victim v{key, line.state, line.crossing,
             sharers_.empty() ? SharerMask{0} : sharers_[i]};
    if (key.orient == Orientation::Row)
        --rowLines_;
    else
        --columnLines_;
    keys_[i] = 0;
    return v;
}

bool
Cache::setPinned(const LineKey &key, bool pinned)
{
    CacheLine *line = find(key);
    if (!line)
        return false;
    line->pinned = pinned;
    return true;
}

void
Cache::renumberStamps()
{
    std::vector<std::pair<std::uint32_t, std::size_t>> order;
    order.reserve(config_.ways);
    for (std::size_t base = 0; base < keys_.size(); base += config_.ways) {
        order.clear();
        for (std::size_t i = base; i < base + config_.ways; ++i) {
            if (keys_[i] != 0)
                order.emplace_back(lines_[i].lru, i);
        }
        std::sort(order.begin(), order.end());
        std::uint32_t stamp = 0;
        for (const auto &entry : order)
            lines_[entry.second].lru = ++stamp;
    }
    lruClock_ = config_.ways;
}

void
Cache::reset()
{
    std::fill(keys_.begin(), keys_.end(), std::uint64_t{0});
    lruClock_ = 0;
    rowLines_ = 0;
    columnLines_ = 0;
    pinnedEvictions_ = 0;
}

} // namespace rcnvm::cache
