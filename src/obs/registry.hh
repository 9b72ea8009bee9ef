/**
 * @file
 * Counter/gauge registry with interval snapshots.
 *
 * Counters are a fixed enum indexed into a flat uint64 array: a bump
 * is one branch on the Observer pointer plus an increment, cheap
 * enough for per-invocation paths. A simulation run is single-
 * threaded (see rc::sim::Engine), so no atomics are needed — one
 * Registry belongs to exactly one run.
 *
 * Besides the running totals, every bump lands in a per-counter
 * stats::TimeSeries bucketed by a configurable interval (default
 * 60 s), which is what the per-interval counter timelines in the run
 * report are built from. Gauges track high-water marks (admission
 * queue depth, pool memory) instead of sums.
 */

#ifndef RC_OBS_REGISTRY_HH_
#define RC_OBS_REGISTRY_HH_

#include <array>
#include <cstdint>

#include "sim/time.hh"
#include "stats/time_series.hh"

namespace rc::obs {

/** All counters the platform maintains. */
enum class Counter : std::uint8_t
{
    // Lookup-ladder outcomes (pool hits per layer level).
    HitUser,          //!< idle User container reuse (warm)
    HitLoad,          //!< latched onto an in-flight init
    HitForeignUser,   //!< Pagurus zygote specialization
    HitLang,          //!< idle Lang container (partial warm)
    HitBare,          //!< idle Bare container (partial warm)
    ColdStart,        //!< new container from nothing

    // Evictions by cause (KillCause order).
    KillUnknown,
    KillTtlExpired,
    KillBareExpired,
    KillMemoryPressure,
    KillPoolSaturated,
    KillRepackFailed,
    KillFinalize,
    KillInitFault,
    KillExecFault,
    KillWedgeTimeout,
    KillNodeCrash,

    // Queueing.
    Queued,           //!< invocations parked for memory
    FinalizeDrained,  //!< still queued at end of run, force-drained

    // Pre-warming.
    PrewarmScheduled,
    PrewarmFired,
    PrewarmSkipped,
    PrewarmShed,      //!< pre-warm evicted to admit queued user work

    // Fault injection and recovery (rc::fault).
    FaultInjected,
    RetryScheduled,
    RetryExhausted,   //!< invocation failed after max retries
    NodeCrashes,
    FailoverRouted,

    // Engine (recorded once per run from Engine's own totals).
    EngineExecuted,
    EngineScheduled,
    EngineCancelled,

    // Overload control (rc::admission; appended after EngineCancelled
    // so pre-admission reports keep their counter order).
    AdmissionRejected, //!< arrivals turned away at the door
    ShedDeadline,      //!< queued work dropped at deadline expiry
    ShedPressure,      //!< work shed at critical pressure level
    BreakerOpenTotal,  //!< circuit-breaker closed/half-open -> open
    DegradedKeepalives, //!< keep-alive TTLs shrunk by the ladder

    // Dispatch hot path (appended after DegradedKeepalives so older
    // reports keep their counter order).
    DispatchLookups, //!< pool index lookups run by tryDispatch

    // Buffer health (appended after DispatchLookups so older reports
    // keep their counter order).
    TraceDropped, //!< events/spans dropped by the buffer caps

    // Gray-failure network model + tail-tolerant dispatch (appended
    // after TraceDropped so older reports keep their counter order).
    HedgesLaunched,   //!< speculative second attempts dispatched
    HedgesWon,        //!< hedge completed before its primary
    HedgesCancelled,  //!< losing attempts cancelled in time
    HedgesLost,       //!< losers that finished anyway (duplicates)
    NodeQuarantines,  //!< latency-keyed quarantine entries
    NodeProbes,       //!< probe dispatches to probation nodes
    NodeReadmits,     //!< probation passed, node healthy again
    MsgsDelayed,      //!< messages that drew a nonzero link delay
    MsgsDropped,      //!< messages that needed >= 1 retransmit
    PartitionsStarted, //!< scheduled partitions that opened
    KillHedgeCancel,  //!< containers killed by hedge cancellation
                      //!< (out-of-block home for KillCause::HedgeCancel)

    // Correlated failure domains + recovery orchestration (appended
    // after KillHedgeCancel so older reports keep their counter
    // order).
    DomainOutages,    //!< correlated outage waves that struck
    NodesDrained,     //!< planned drains that ended (graceful or kill)
    NodesRejoined,    //!< readmission tokens granted
    RecoveryPrewarms, //!< census layers prewarmed on rejoining nodes
    RecoveryRetries,  //!< client feedback re-submissions
};

/** Number of counters. */
inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::RecoveryRetries) + 1;

/** Gauges tracked as high-water marks. */
enum class Gauge : std::uint8_t
{
    QueueDepth,   //!< admission-queue length
    PoolMemoryMb, //!< pool resident memory
    LiveContainers,
    PressureLevel, //!< degradation-ladder level (rc::admission)

    // Coordinator phase timing, sharded core (appended after
    // PressureLevel so older reports keep their gauge order). These
    // are run totals in wall-clock ns, set once at end of run and
    // only when cluster::ClusterConfig::phaseTimings is on.
    CoordinatorDrainNs, //!< single-threaded coordinator time
    RouteNs,            //!< routing drain + bin distribution subset
    SummaryCaptureNs,   //!< summary delta merge subset
};

/** Number of gauges. */
inline constexpr std::size_t kGaugeCount =
    static_cast<std::size_t>(Gauge::SummaryCaptureNs) + 1;

/** Stable snake_case names (report keys; see docs/OBSERVABILITY.md). */
const char* toString(Counter counter);
const char* toString(Gauge gauge);

/** Per-run counter/gauge store. */
class Registry
{
  public:
    /** @param interval  Snapshot bucket width; must be positive. */
    explicit Registry(sim::Tick interval = 60 * sim::kSecond);

    /** Bucket width of the snapshot series. */
    sim::Tick interval() const { return _interval; }

    /** Add @p amount to @p counter at simulated time @p when. */
    void bump(Counter counter, sim::Tick when, std::uint64_t amount = 1)
    {
        _totals[index(counter)] += amount;
        // TimeSeries buckets are minutes; scale so one "minute" is
        // one obs interval (intervalSeries() documents this).
        _series[index(counter)].add(scaled(when),
                                    static_cast<double>(amount));
    }

    /** Raise @p gauge's high-water mark to @p value if larger. */
    void gaugeMax(Gauge gauge, double value)
    {
        auto& hw = _gauges[static_cast<std::size_t>(gauge)];
        if (value > hw)
            hw = value;
    }

    /** Running total of @p counter. */
    std::uint64_t total(Counter counter) const
    {
        return _totals[index(counter)];
    }

    /** High-water mark of @p gauge (0 if never touched). */
    double highWater(Gauge gauge) const
    {
        return _gauges[static_cast<std::size_t>(gauge)];
    }

    /**
     * Per-interval series of @p counter: bucket i covers simulated
     * time [i * interval(), (i + 1) * interval()).
     */
    const stats::TimeSeries& intervalSeries(Counter counter) const
    {
        return _series[index(counter)];
    }

  private:
    static constexpr std::size_t
    index(Counter counter)
    {
        return static_cast<std::size_t>(counter);
    }

    /** Map @p when onto the minute grid TimeSeries buckets by. */
    sim::Tick
    scaled(sim::Tick when) const
    {
        return (when / _interval) * sim::kMinute;
    }

    sim::Tick _interval;
    std::array<std::uint64_t, kCounterCount> _totals{};
    std::array<double, kGaugeCount> _gauges{};
    std::array<stats::TimeSeries, kCounterCount> _series;
};

/** Counter corresponding to a KillCause (KillUnknown + cause index). */
Counter killCounter(std::uint8_t cause);

} // namespace rc::obs

#endif // RC_OBS_REGISTRY_HH_
