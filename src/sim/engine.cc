#include "sim/engine.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace rc::sim {

void
Engine::releaseSlot(std::uint32_t slot)
{
    _cbs[slot].reset();
    ++_generations[slot];
    _freeSlots.push_back(slot);
}

void
Engine::popFront()
{
    std::pop_heap(_heap.begin(), _heap.end(), later);
    _heap.pop_back();
}

EventId
Engine::schedule(Tick when, Callback cb)
{
    if (when < _now) {
        throw std::invalid_argument(
            "Engine::schedule: event time is in the past");
    }
    std::uint32_t slot;
    if (_freeSlots.empty()) {
        slot = static_cast<std::uint32_t>(_cbs.size());
        _cbs.push_back(std::move(cb));
        _generations.push_back(1);
    } else {
        slot = _freeSlots.back();
        _freeSlots.pop_back();
        _cbs[slot] = std::move(cb);
    }
    const std::uint32_t generation = _generations[slot];
    // The schedule counter doubles as the FIFO tie-break.
    _heap.push_back(Entry{when, _scheduled, slot, generation});
    std::push_heap(_heap.begin(), _heap.end(), later);
    ++_live;
    ++_scheduled;
    return makeId(slot, generation);
}

EventId
Engine::scheduleAfter(Tick delay, Callback cb)
{
    if (delay < 0)
        throw std::invalid_argument("Engine::scheduleAfter: negative delay");
    return schedule(_now + delay, std::move(cb));
}

std::uint32_t
Engine::decodeLive(EventId id) const
{
    const std::uint64_t low = id & 0xffffffffu;
    if (low == 0 || low > _generations.size())
        return kNil;
    const auto slot = static_cast<std::uint32_t>(low - 1);
    if (_generations[slot] != static_cast<std::uint32_t>(id >> 32))
        return kNil;
    return slot;
}

bool
Engine::cancel(EventId id)
{
    const std::uint32_t slot = decodeLive(id);
    if (slot == kNil)
        return false;
    // The heap entry stays behind, stale; pruneFront() drops it when
    // it surfaces. Cancel itself never touches the heap — the
    // keep-alive renewal pattern cancels and reschedules constantly.
    releaseSlot(slot);
    --_live;
    ++_cancelled;
    return true;
}

bool
Engine::pending(EventId id) const
{
    return decodeLive(id) != kNil;
}

void
Engine::pruneFront()
{
    while (!_heap.empty() &&
           _heap.front().generation != _generations[_heap.front().slot])
        popFront();
}

void
Engine::dispatchFront()
{
    const Entry front = _heap.front();
    assert(front.when >= _now && "event queue must be monotonic");
    popFront();

    // Move the callback out and retire the event *before* invoking,
    // so the callback may freely schedule or cancel other events
    // (including re-entrant patterns).
    InplaceCallback cb = std::move(_cbs[front.slot]);
    releaseSlot(front.slot);
    --_live;

    _now = front.when;
    ++_executed;
    cb();
}

bool
Engine::step()
{
    pruneFront();
    if (_heap.empty())
        return false;
    dispatchFront();
    return true;
}

void
Engine::run()
{
    while (step()) {
    }
}

void
Engine::runUntil(Tick horizon)
{
    for (;;) {
        pruneFront();
        if (_heap.empty() || _heap.front().when > horizon)
            break;
        dispatchFront();
    }
    if (_now < horizon)
        _now = horizon;
}

} // namespace rc::sim
