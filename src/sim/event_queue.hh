/**
 * @file
 * Discrete-event simulation kernel.
 *
 * Components schedule callbacks at absolute ticks (1 tick = 1 ps);
 * the queue executes them in tick order, breaking ties by insertion
 * order so simulations are fully deterministic.
 */

#ifndef RCNVM_SIM_EVENT_QUEUE_HH_
#define RCNVM_SIM_EVENT_QUEUE_HH_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/types.hh"

namespace rcnvm::sim {

/**
 * A deterministic tick-ordered event queue.
 *
 * Events are arbitrary callables. The queue owns no component state;
 * everything interesting happens inside the callbacks. Internally a
 * heap of small POD entries ordered by (tick, seq), where seq is the
 * insertion order. Each callable is constructed straight into a slot
 * of fixed-size chunks that never move, run there and destroyed
 * there: heap sifts move small PODs, and a callback is never
 * relocated between scheduling and running.
 */
class EventQueue
{
  public:
    /** Insertion-order stamp of an event (same-tick tie-break). */
    using Seq = std::uint64_t;

    /** Captures up to this size live in the slot itself; larger
     *  callables are heap-allocated. Sized for the largest hot-path
     *  capture: a `this` pointer plus a moved-in MemPacket carrying
     *  its completion continuation. */
    static constexpr std::size_t kInlineBytes = 160;

    EventQueue() { heap_.reserve(64); }
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Schedule @p f to run at absolute tick @p when.
     *  @pre when >= now()
     *  Defined inline: this runs several times per simulated access,
     *  and inlining lets the caller's lambda be built directly in
     *  its slot. */
    template <typename F>
    void
    schedule(Tick when, F &&f)
    {
        if (when < now_)
            panicPastEvent(when);
        pushEntry(Entry{when, nextSeq_++, store(std::forward<F>(f))});
    }

    /** Schedule @p f to run @p delay ticks from now. */
    template <typename F>
    void
    scheduleAfter(Tick delay, F &&f)
    {
        schedule(now_ + delay, std::forward<F>(f));
    }

    /** Take the next insertion-order stamp without scheduling
     *  anything: the caller may later place an event at exactly the
     *  position a schedule() call made now would have had. */
    Seq reserveSeq() { return nextSeq_++; }

    /** Schedule @p f at (@p when, @p seq), where @p seq came from
     *  reserveSeq(). It runs before every same-tick event scheduled
     *  after the reservation.
     *  @pre (when, seq) is not earlier than the running event */
    template <typename F>
    void
    scheduleReserved(Tick when, Seq seq, F &&f)
    {
        if (when < now_)
            panicPastEvent(when);
        pushEntry(Entry{when, seq, store(std::forward<F>(f))});
    }

    /** Run events until the queue is empty. */
    void run();

    /** Run events with tick <= @p limit; later events stay queued
     *  and now() advances to @p limit. */
    void runUntil(Tick limit);

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Insertion-order stamp of the running (or last run) event;
     *  with now() it places the running event in the total order. */
    Seq currentSeq() const { return currentSeq_; }

    /** Number of pending events. */
    std::size_t pending() const { return heap_.size(); }

    /** Heap arity: a 4-ary heap halves the sift depth of a binary
     *  one and its four-child scans read one contiguous 96-byte run
     *  of 24-byte entries, which measurably speeds up the
     *  simulator's hottest loop. */
    static constexpr std::size_t kHeapArity = 4;

    /** Total number of events executed since construction or the
     *  last reset(). */
    std::uint64_t executed() const { return executed_; }

    /** Rewind a drained queue to the state of a newly built one:
     *  tick 0, insertion order and executed count restarted. Pending
     *  events are a simulator bug (panic). */
    void reset();

  private:
    /** Out-of-line cold path of schedule()'s precondition check. */
    [[noreturn]] void panicPastEvent(Tick when) const;

    struct Entry {
        Tick when;
        Seq seq; //!< insertion order (same-tick tie-break)
        std::uint32_t slot;
    };

    /** Strict ordering of the min-heap: tick, then insertion order. */
    static bool
    earlier(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }
    static_assert(sizeof(Entry) == 24, "heap entries stay 24 bytes");

    /** Storage of one pending callable: @c run invokes and then
     *  destroys it, @c drop only destroys it (queue teardown). */
    struct Slot {
        alignas(std::max_align_t) unsigned char buf[kInlineBytes];
        void (*run)(void *);
        void (*drop)(void *);
    };

    /** Slots per chunk (a power of two: slot ids split by shift).
     *  Kept small: 256-slot (45 KB) chunks fragmented the heap enough
     *  to raise the peak RSS of the Table-2 sweep by 5 MB. */
    static constexpr unsigned kChunkShift = 6;
    static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;

    Slot &
    slotAt(std::uint32_t id)
    {
        return chunks_[id >> kChunkShift][id & (kChunkSlots - 1)];
    }

    /** A recycled slot, or the next fresh one (growing by a chunk
     *  when all are in use; existing chunks never move). */
    std::uint32_t
    acquireSlot()
    {
        if (!free_.empty()) {
            const std::uint32_t id = free_.back();
            free_.pop_back();
            return id;
        }
        if (fresh_ == chunks_.size() * kChunkSlots)
            chunks_.emplace_back(new Slot[kChunkSlots]());
        return fresh_++;
    }

    /** Construct @p f in a slot and return the slot id. */
    template <typename F>
    std::uint32_t
    store(F &&f)
    {
        using Fn = std::decay_t<F>;
        const std::uint32_t id = acquireSlot();
        Slot &s = slotAt(id);
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(s.buf)) Fn(std::forward<F>(f));
            s.run = [](void *b) {
                Fn *fn = std::launder(static_cast<Fn *>(b));
                (*fn)();
                fn->~Fn();
            };
            s.drop = [](void *b) {
                std::launder(static_cast<Fn *>(b))->~Fn();
            };
        } else {
            ::new (static_cast<void *>(s.buf))
                Fn *(new Fn(std::forward<F>(f)));
            s.run = [](void *b) {
                Fn *fn = *std::launder(static_cast<Fn **>(b));
                (*fn)();
                delete fn;
            };
            s.drop = [](void *b) {
                delete *std::launder(static_cast<Fn **>(b));
            };
        }
        return id;
    }

    /** Sift @p e up into the 4-ary min-heap. */
    void
    pushEntry(Entry e)
    {
        std::size_t i = heap_.size();
        heap_.push_back(e);
        while (i > 0) {
            const std::size_t parent = (i - 1) / kHeapArity;
            if (!earlier(e, heap_[parent]))
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = e;
    }

    /** Remove and return the earliest entry of the 4-ary min-heap. */
    Entry popTop();

    /** Pop the earliest event, run its callback in place, then
     *  recycle its slot (only after the callback is destroyed, so
     *  events it schedules never land in its own storage). */
    void runTop();

    std::vector<Entry> heap_;
    std::vector<std::unique_ptr<Slot[]>> chunks_;
    std::vector<std::uint32_t> free_; //!< recycled slot ids
    std::uint32_t fresh_ = 0;         //!< slots ever handed out
    Tick now_{0};
    Seq nextSeq_ = 0;
    Seq currentSeq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace rcnvm::sim

#endif // RCNVM_SIM_EVENT_QUEUE_HH_
