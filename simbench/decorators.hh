/**
 * @file
 * Outside-in timing decorators for the simulator benchmark.
 *
 * The benchmark measures the simulator without tracing inside it: the
 * traced run hands the library wrapped objects instead of the real
 * ones, and each wrapper times the calls the library makes into it.
 *
 *   TimedPolicy   forwards every virtual policy::Policy hook to the
 *                 wrapped policy and charges the five decision hooks
 *                 (calls + wall ns) to a PolicyLedger;
 *   TimedSource   forwards a trace::ArrivalSource and charges pop()
 *                 (the pull that advances the k-way merge).
 *
 * One PolicyLedger per node: a node's policy runs on whichever shard
 * thread steps that node, so ledgers are never shared between threads
 * and are summed only after the run has joined (mergeLedgers).
 *
 * Policy::setObserver and Policy::setPressureLevel are non-virtual, so
 * the wrapper cannot forward them. The platform installs the observer
 * on the wrapper only; TimedPolicy therefore takes the observer at
 * construction and installs it on the wrapped policy itself. Pressure
 * levels are pushed only by an rc::admission controller, and the
 * benchmark's workloads run without an admission plan, so the level
 * stays 0 on both objects.
 */

#ifndef SIMBENCH_DECORATORS_HH_
#define SIMBENCH_DECORATORS_HH_

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "platform/startup_type.hh"
#include "policy/policy.hh"
#include "trace/arrival_source.hh"

namespace simbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t
nsSince(Clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
}

/** The policy hooks whose host time the ledger attributes. */
enum Hook : std::size_t
{
    OnArrival,
    OnStartupResolved,
    KeepAliveTtl,
    OnIdleExpired,
    RankEvictionVictims,
    kHookCount,
};

/** Metric-name stems of the hooks, in Hook order. */
inline constexpr std::array<const char*, kHookCount> kHookNames = {
    "on_arrival", "on_startup_resolved", "keep_alive_ttl",
    "on_idle_expired", "rank_eviction_victims",
};

struct HookStat
{
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
};

/** One node's policy-side host time and startup outcomes. */
struct PolicyLedger
{
    std::array<HookStat, kHookCount> hooks{};
    /** Resolved invocations per platform::StartupType. */
    std::array<std::uint64_t, rc::platform::kStartupTypeCount> startups{};

    std::uint64_t
    totalNs() const
    {
        std::uint64_t ns = 0;
        for (const auto& h : hooks)
            ns += h.ns;
        return ns;
    }
};

/** Sum per-node ledgers (call only after the run has joined). */
inline PolicyLedger
mergeLedgers(const std::deque<PolicyLedger>& ledgers)
{
    PolicyLedger sum;
    for (const auto& ledger : ledgers) {
        for (std::size_t h = 0; h < kHookCount; ++h) {
            sum.hooks[h].calls += ledger.hooks[h].calls;
            sum.hooks[h].ns += ledger.hooks[h].ns;
        }
        for (std::size_t t = 0; t < sum.startups.size(); ++t)
            sum.startups[t] += ledger.startups[t];
    }
    return sum;
}

/** Charges one hook call to a ledger for the scope's lifetime. */
class HookTimer
{
  public:
    HookTimer(PolicyLedger& ledger, Hook hook)
        : _stat(ledger.hooks[hook]), _start(Clock::now())
    {}
    ~HookTimer()
    {
        ++_stat.calls;
        _stat.ns += nsSince(_start);
    }

    HookTimer(const HookTimer&) = delete;
    HookTimer& operator=(const HookTimer&) = delete;

  private:
    HookStat& _stat;
    Clock::time_point _start;
};

/** Forwards every virtual Policy hook; times the decision hooks. */
class TimedPolicy final : public rc::policy::Policy
{
  public:
    TimedPolicy(std::unique_ptr<rc::policy::Policy> inner,
                PolicyLedger& ledger, rc::obs::Observer* observer)
        : _inner(std::move(inner)), _ledger(ledger)
    {
        _inner->setObserver(observer);
    }

    std::string name() const override { return _inner->name(); }

    void
    attach(rc::policy::PlatformView& view) override
    {
        Policy::attach(view);
        _inner->attach(view);
    }

    void
    onArrival(rc::workload::FunctionId function) override
    {
        const HookTimer timer(_ledger, OnArrival);
        _inner->onArrival(function);
    }

    void
    onStartupResolved(const rc::policy::StartupObservation& obs) override
    {
        ++_ledger.startups[static_cast<std::size_t>(obs.type)];
        const HookTimer timer(_ledger, OnStartupResolved);
        _inner->onStartupResolved(obs);
    }

    void
    onContainerFailed(const rc::container::Container& c) override
    {
        _inner->onContainerFailed(c);
    }

    void
    onNodeDown(rc::sim::Tick downtime) override
    {
        _inner->onNodeDown(downtime);
    }

    rc::sim::Tick
    keepAliveTtl(const rc::container::Container& c) override
    {
        const HookTimer timer(_ledger, KeepAliveTtl);
        return _inner->keepAliveTtl(c);
    }

    rc::policy::IdleDecision
    onIdleExpired(const rc::container::Container& c) override
    {
        const HookTimer timer(_ledger, OnIdleExpired);
        return _inner->onIdleExpired(c);
    }

    bool
    layerSharingEnabled() const override
    {
        return _inner->layerSharingEnabled();
    }

    bool
    acceptsRecoveryPrewarm(rc::workload::Layer layer) const override
    {
        return _inner->acceptsRecoveryPrewarm(layer);
    }

    bool
    allowForeignUserContainer(const rc::container::Container& c,
                              rc::workload::FunctionId function) const override
    {
        return _inner->allowForeignUserContainer(c, function);
    }

    std::vector<rc::container::ContainerId>
    rankEvictionVictims(
        const std::vector<const rc::container::Container*>& idle) override
    {
        const HookTimer timer(_ledger, RankEvictionVictims);
        return _inner->rankEvictionVictims(idle);
    }

    double
    partialStartLatencyFactor() const override
    {
        return _inner->partialStartLatencyFactor();
    }

    rc::sim::Tick
    partialStartLatencyBias() const override
    {
        return _inner->partialStartLatencyBias();
    }

    rc::sim::Tick
    foreignUserStartupLatency(const rc::container::Container& c,
                              rc::workload::FunctionId function) const override
    {
        return _inner->foreignUserStartupLatency(c, function);
    }

    bool
    forkSharedLayers() const override
    {
        return _inner->forkSharedLayers();
    }

    rc::sim::Tick
    forkLatency() const override
    {
        return _inner->forkLatency();
    }

    double
    coldStartFactor() const override
    {
        return _inner->coldStartFactor();
    }

    double
    auxiliaryMemoryMb(
        const rc::workload::FunctionProfile& profile) const override
    {
        return _inner->auxiliaryMemoryMb(profile);
    }

  private:
    std::unique_ptr<rc::policy::Policy> _inner;
    PolicyLedger& _ledger;
};

/** Forwards an ArrivalSource; times and counts the pulls. */
class TimedSource final : public rc::trace::ArrivalSource
{
  public:
    explicit TimedSource(rc::trace::ArrivalSource& inner) : _inner(inner) {}

    rc::sim::Tick horizon() const override { return _inner.horizon(); }
    std::uint64_t total() const override { return _inner.total(); }
    bool done() const override { return _inner.done(); }
    const rc::trace::Arrival& peek() const override { return _inner.peek(); }

    void
    pop() override
    {
        const auto start = Clock::now();
        _inner.pop();
        _pull.ns += nsSince(start);
        ++_pull.calls;
    }

    const HookStat& pulls() const { return _pull; }

  private:
    rc::trace::ArrivalSource& _inner;
    HookStat _pull;
};

} // namespace simbench

#endif // SIMBENCH_DECORATORS_HH_
