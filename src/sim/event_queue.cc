#include "sim/event_queue.hh"

#include <algorithm>

#include "util/logging.hh"

namespace rcnvm::sim {

EventQueue::~EventQueue()
{
    // Callbacks still pending own their captures.
    for (const Entry &e : heap_) {
        Slot &s = slotAt(e.slot);
        s.drop(s.buf);
    }
}

void
EventQueue::panicPastEvent(Tick when) const
{
    rcnvm_panic("event scheduled in the past: ", when, " < ", now_);
}

void
EventQueue::reset()
{
    if (!heap_.empty())
        rcnvm_panic("event queue reset with ", heap_.size(),
                    " events pending");
    // Every slot is free again; the chunks are kept for reuse.
    free_.clear();
    fresh_ = 0;
    now_ = Tick{0};
    nextSeq_ = 0;
    currentSeq_ = 0;
    executed_ = 0;
}

EventQueue::Entry
EventQueue::popTop()
{
    const Entry top = heap_.front();
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
        // Sift the displaced last entry down from the root.
        std::size_t i = 0;
        for (;;) {
            const std::size_t first = kHeapArity * i + 1;
            if (first >= n)
                break;
            std::size_t best = first;
            const std::size_t end = std::min(first + kHeapArity, n);
            for (std::size_t c = first + 1; c < end; ++c) {
                if (earlier(heap_[c], heap_[best]))
                    best = c;
            }
            if (!earlier(heap_[best], last))
                break;
            heap_[i] = heap_[best];
            i = best;
        }
        heap_[i] = last;
    }
    return top;
}

void
EventQueue::runTop()
{
    const Entry entry = popTop();
    now_ = entry.when;
    currentSeq_ = entry.seq;
    ++executed_;
    // The callback may schedule events (growing the chunk list);
    // its own slot stays put because chunks never move.
    Slot &s = slotAt(entry.slot);
    s.run(s.buf);
    free_.push_back(entry.slot);
}

void
EventQueue::run()
{
    while (!heap_.empty())
        runTop();
}

void
EventQueue::runUntil(Tick limit)
{
    while (!heap_.empty() && heap_.front().when <= limit)
        runTop();
    if (now_ < limit)
        now_ = limit;
}

} // namespace rcnvm::sim
