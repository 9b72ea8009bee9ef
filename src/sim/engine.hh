/**
 * @file
 * Discrete-event simulation engine.
 *
 * The event queue is one binary min-heap of 24-byte POD entries
 * `{tick, seq, slot, generation}`, ordered by `(tick, seq)`. `seq` is
 * the schedule counter, so events scheduled for the same tick fire in
 * scheduling order (FIFO) and every run is fully deterministic.
 * Scheduled events can be cancelled, which is the mechanism behind
 * keep-alive TTL renewal: a container cancels its pending timeout when
 * it is reused and schedules a fresh one when it goes idle again.
 *
 * Layout:
 *  - callbacks are `InplaceCallback`s (48-byte small-buffer storage,
 *    no per-event heap allocation) living in a stable slot table, and
 *    each slot carries a generation counter, so an `EventId` is
 *    `(generation << 32 | slot + 1)` and stale handles are harmless
 *    no-ops;
 *  - cancel() is generation-lazy: it frees the slot and its callback
 *    at once and bumps the generation, which turns the heap entry
 *    stale; stale entries are dropped when they reach the front. The
 *    heap itself is never searched, and pendingEvents() counts live
 *    events exactly.
 *
 * Why a plain heap: simulated traffic rarely shares a tick. The
 * eight-hour sweep mix averages ~1.17 events per distinct tick, and
 * on such streams an earlier tick-bucketed 4-ary heap (tick -> bucket
 * hash map plus per-tick FIFO lists) ran at 0.6-0.75x of a plain
 * `(tick, seq)` priority queue; it won only when ~20 events shared
 * every tick. DESIGN.md §7.1 has the numbers.
 */

#ifndef RC_SIM_ENGINE_HH_
#define RC_SIM_ENGINE_HH_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/inplace_callback.hh"
#include "sim/time.hh"

namespace rc::sim {

/** Opaque handle to a scheduled event; 0 is never a valid id. */
using EventId = std::uint64_t;

/** Sentinel id meaning "no event". */
inline constexpr EventId kNoEvent = 0;

/**
 * Deterministic discrete-event engine.
 *
 * Not thread-safe by design: a simulation run is a single logical
 * timeline, and determinism (same seed, same schedule, same results)
 * is a hard requirement of the experiment harness. Parallel sweeps
 * (`rc::exp::ParallelRunner`) give each run its own Engine.
 */
class Engine
{
  public:
    using Callback = InplaceCallback;

    Engine() = default;
    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    /**
     * Schedule @p cb to run at absolute time @p when.
     *
     * @param when  Absolute tick; must be >= now().
     * @param cb    Callback invoked when simulated time reaches @p when.
     * @return Handle usable with cancel().
     */
    EventId schedule(Tick when, Callback cb);

    /** Schedule @p cb to run @p delay ticks after the current time. */
    EventId scheduleAfter(Tick delay, Callback cb);

    /**
     * Cancel a pending event.
     *
     * Cancelling an id that already fired or was already cancelled is
     * a harmless no-op so callers do not need to track firing order.
     *
     * @return true if the event was pending and is now cancelled.
     */
    bool cancel(EventId id);

    /** @return true if @p id refers to a still-pending event. */
    bool pending(EventId id) const;

    /** Run until the event queue drains. */
    void run();

    /**
     * Run until the queue drains or simulated time would pass
     * @p horizon. Events at exactly @p horizon still fire; the clock
     * never exceeds the horizon.
     */
    void runUntil(Tick horizon);

    /** Execute at most one event. @return false if the queue is empty. */
    bool step();

    /** Current simulated time. */
    Tick now() const { return _now; }

    /** Number of events executed since construction. */
    std::uint64_t executedEvents() const { return _executed; }

    /** Number of schedule() calls since construction. */
    std::uint64_t scheduledEvents() const { return _scheduled; }

    /** Number of successful cancels since construction. */
    std::uint64_t cancelledEvents() const { return _cancelled; }

    /** Number of live (scheduled, non-cancelled) events. */
    std::size_t pendingEvents() const { return _live; }

    /**
     * Earliest pending tick, or Tick's max when the queue is empty.
     * Conservative: the front entry may belong to a cancelled event,
     * so the returned tick can be earlier than the next event that
     * will actually fire — callers may poll too early, never too
     * late. The sharded cluster core uses this to skip idle nodes in
     * a barrier window without touching the heap.
     */
    Tick
    nextEventAt() const
    {
        return _heap.empty() ? std::numeric_limits<Tick>::max()
                             : _heap.front().when;
    }

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    /** Heap entry; stale once its slot's generation has moved on. */
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t generation;
    };

    /** Heap comparator: true if @p a fires after @p b. */
    static bool
    later(const Entry& a, const Entry& b)
    {
        return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }

    static EventId
    makeId(std::uint32_t slot, std::uint32_t generation)
    {
        // Low word: slot + 1, so id 0 is never produced. High word:
        // generation, so slot reuse invalidates old handles.
        return (static_cast<EventId>(generation) << 32) |
               static_cast<EventId>(slot + 1);
    }

    /** @return slot index for @p id, or kNil if not pending. */
    std::uint32_t decodeLive(EventId id) const;

    /** Drop the callback and retire the slot's current generation. */
    void releaseSlot(std::uint32_t slot);

    /** Remove the heap front, keeping heap order. */
    void popFront();

    /** Drop stale (cancelled) entries sitting at the heap front. */
    void pruneFront();

    /**
     * Pop and run the front event; precondition: pruneFront() has
     * run and the heap is not empty.
     */
    void dispatchFront();

    Tick _now = 0;
    std::uint64_t _executed = 0;
    std::uint64_t _scheduled = 0;
    std::uint64_t _cancelled = 0;
    std::size_t _live = 0;
    std::vector<Entry> _heap;
    // Per-slot state. A free slot's generation has never been handed
    // out, so a slot is live iff an id's generation matches it.
    std::vector<InplaceCallback> _cbs;
    std::vector<std::uint32_t> _generations;
    std::vector<std::uint32_t> _freeSlots;
};

} // namespace rc::sim

#endif // RC_SIM_ENGINE_HH_
