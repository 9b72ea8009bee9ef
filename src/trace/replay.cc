#include "trace/replay.hh"

#include <algorithm>

#include "stats/accumulator.hh"

namespace rc::trace {

std::vector<Arrival>
expandArrivals(const TraceSet& set)
{
    // Arrivals never leave their minute, so place them by minute (a
    // counting sort) and sort each minute's slice: the same order as
    // one global sort, with small cache-resident sorts. Every trace is
    // padded to the horizon (TraceSet::add).
    const std::size_t minutes = set.durationMinutes();
    std::vector<std::size_t> begin(minutes + 1, 0);
    for (const auto& trace : set.traces()) {
        for (std::size_t minute = 0; minute < trace.perMinute.size();
             ++minute)
            begin[minute + 1] += trace.perMinute[minute];
    }
    for (std::size_t minute = 0; minute < minutes; ++minute)
        begin[minute + 1] += begin[minute];

    std::vector<Arrival> arrivals(begin[minutes]);
    std::vector<std::size_t> cursor(begin.begin(), begin.end() - 1);
    for (const auto& trace : set.traces()) {
        for (std::size_t minute = 0; minute < trace.perMinute.size();
             ++minute) {
            const std::uint32_t count = trace.perMinute[minute];
            if (count == 0)
                continue;
            const sim::Tick minuteStart =
                static_cast<sim::Tick>(minute) * sim::kMinute;
            // Evenly distribute: invocation i at start + i * (60s / count).
            const sim::Tick step = sim::kMinute / static_cast<sim::Tick>(count);
            for (std::uint32_t i = 0; i < count; ++i) {
                arrivals[cursor[minute]++] = Arrival{
                    minuteStart + static_cast<sim::Tick>(i) * step,
                    trace.function};
            }
        }
    }
    const auto first = arrivals.begin();
    for (std::size_t minute = 0; minute < minutes; ++minute)
        std::sort(first + begin[minute], first + begin[minute + 1]);
    return arrivals;
}

double
iatCv(const std::vector<Arrival>& arrivals)
{
    if (arrivals.size() < 3)
        return 0.0;
    stats::Accumulator acc;
    for (std::size_t i = 1; i < arrivals.size(); ++i) {
        acc.add(static_cast<double>(arrivals[i].time - arrivals[i - 1].time));
    }
    return acc.cv();
}

sim::Tick
meanIat(const std::vector<Arrival>& arrivals)
{
    if (arrivals.size() < 2)
        return 0;
    const sim::Tick span = arrivals.back().time - arrivals.front().time;
    return span / static_cast<sim::Tick>(arrivals.size() - 1);
}

} // namespace rc::trace
