/**
 * @file
 * The structured event vocabulary of the observability layer.
 *
 * A TraceEvent is a 40-byte POD: the emitting site pays one branch on
 * a null Observer pointer plus, when enabled, a bounds-checked append
 * into a flat buffer. Categories partition the simulator's layers
 * (engine, container FSM, pool, invoker, policy, cluster); types name
 * the specific occurrence. Small enum-like arguments (layer, startup
 * type, decision action, kill cause) travel in two uint8 slots and
 * two doubles carry quantitative payload (memory MB, TTL seconds,
 * latencies), so no event ever allocates. Node indices never travel
 * in a uint8 slot: a node-scoped cluster event has no container, so
 * its node rides in the 64-bit container slot, and a second node or
 * a count travels in an exact double.
 *
 * The taxonomy deliberately mirrors the paper's Fig. 5 container
 * state machine: every container transition the FSM permits has
 * exactly one event type, which is what lets the exporter rebuild
 * per-container lifecycle tracks and the tests assert transition
 * legality (docs/OBSERVABILITY.md maps types to Fig. 5 edges).
 */

#ifndef RC_OBS_TRACE_EVENT_HH_
#define RC_OBS_TRACE_EVENT_HH_

#include <cstdint>

#include "sim/time.hh"

namespace rc::obs {

/** Simulator layer an event originates from. */
enum class Category : std::uint8_t
{
    Engine,    //!< event-queue statistics
    Container, //!< Fig. 5 FSM transitions
    Pool,      //!< admissions, evictions, memory accounting
    Invoker,   //!< arrival-to-completion orchestration
    Policy,    //!< keep-alive / pre-warm / eviction decisions
    Cluster,   //!< inter-node routing
    Fault,     //!< injected failures and recovery actions
    Admission, //!< overload control and graceful degradation
};

/** Number of categories (for mask bits and name tables). */
inline constexpr std::size_t kCategoryCount = 8;

/** What happened. Grouped by the Category it belongs to. */
enum class EventType : std::uint8_t
{
    // Container (Fig. 5): a = layer reached / target, b = extra.
    ContainerCreated,     //!< None -> Initializing (arg0 = memory MB)
    ContainerInitDone,    //!< Initializing -> Idle at layer a
    ContainerUpgrade,     //!< Idle -> Initializing toward layer a
    ContainerRepurpose,   //!< Idle(User, foreign) -> Initializing (Pagurus)
    ContainerExecBegin,   //!< Idle -> Busy
    ContainerExecEnd,     //!< Busy -> Idle
    ContainerDowngraded,  //!< layer peeled; a = new layer (arg0 = MB after)
    ContainerKilled,      //!< any -> Dead; b = KillCause (arg0 = MB freed)
    ContainerSharedHit,   //!< idle template forked/shared without consuming

    // Invoker: a = StartupType where meaningful.
    InvocationArrived,    //!< arrival entered the lookup ladder
    InvocationQueued,     //!< no memory; parked in the admission queue
    InvocationDispatched, //!< bound to container; a = StartupType
    InvocationCompleted,  //!< a = StartupType; arg0/arg1 = startup/e2e s

    // Policy decisions.
    KeepAliveSet,         //!< TTL granted to a fresh idle container
                          //!< (arg0 = TTL s; negative: keep forever)
    IdleExpired,          //!< TTL fired; a = IdleDecision action,
                          //!< b = layer; arg0 = next TTL s
    PrewarmScheduled,     //!< Algorithm 1 armed (arg0 = delay s)
    PrewarmFired,         //!< pre-warm created a container
    PrewarmSkipped,       //!< Available() or memory vetoed it
    PolicyDecision,       //!< policy-specific audit record (RainbowCake:
                          //!< a = layer, arg0 = TTL s, arg1 = IAT/beta s)

    // Pool.
    EvictionForMemory,    //!< policy-ranked victim killed to fit a cold
                          //!< start (arg0 = MB freed)

    // Cluster: container = node index picked.
    ClusterRouted,

    // Engine (snapshot at end of run via Observer::recordEngineStats).
    EngineStats,          //!< arg0 = executed, arg1 = cancelled

    // Fault injection and recovery (rc::fault; appended after
    // EngineStats so pre-fault traces keep their numeric type ids).
    FaultInjected,        //!< a = FaultKind, b = layer/stage where apt
    RetryScheduled,       //!< a = attempt number; arg0 = backoff s
    InvocationFailed,     //!< retries exhausted; a = attempts used
    ExecTimeoutKill,      //!< watchdog killed a wedged container
    NodeCrashed,          //!< full pool loss; container = node,
                          //!< arg0 = downtime s,
                          //!< arg1 = invocations sent to retry
    NodeRestarted,        //!< node back up after its downtime
    FailoverRouted,       //!< container = new node;
                          //!< arg0 = crashed node

    // Overload control (rc::admission; appended after FailoverRouted
    // so pre-admission traces keep their numeric type ids).
    AdmissionRejected,    //!< turned away at the door; a = reason
                          //!< (0 = rate limit, 1 = queue full)
    InvocationShed,       //!< queued/admitted work dropped; a = cause
                          //!< (0 = deadline expired, 1 = pressure)
    PressureLevel,        //!< ladder level changed; a = new, b = old,
                          //!< arg0 = smoothed, arg1 = raw pressure
    BreakerStateChanged,  //!< a = new state, b = old state
                          //!< (CircuitBreaker::State), arg0 = node

    // Gray-failure network model + tail-tolerant dispatch (appended
    // after BreakerStateChanged so earlier traces keep their ids).
    HedgeLaunched,        //!< container = hedge node, arg0 = primary's
                          //!< wait so far (s), arg1 = primary node
    // The hedge outcomes carry the primary's root span in container
    // and the node in arg0.
    HedgeWon,             //!< hedge completed first; arg0 = hedge node
    HedgeCancelled,       //!< loser cancelled; arg0 = its node
    HedgeLost,            //!< loser finished anyway (duplicate work);
                          //!< arg0 = its node
    NodeQuarantined,      //!< container = arg0 = node, b = old state,
                          //!< arg1 = its EWMA latency (s)
    NodeProbed,           //!< probe routed to a probation node;
                          //!< container = node
    NodeReadmitted,       //!< probation passed; container = arg0 = node
    PartitionStart,       //!< arg0 = duration (s),
                          //!< arg1 = severed-node count
    PartitionEnd,         //!< arg1 = restored-node count
    MsgDelayed,           //!< container = target node; arg0 = delay (s)
    MsgDropped,           //!< container = target node,
                          //!< b = retransmit count (capped at 255)
    NodeDegraded,         //!< gray window opened; container = node,
                          //!< arg0 = duration (s),
                          //!< arg1 = exec slowdown factor

    // Correlated failure domains + recovery orchestration (appended
    // after NodeDegraded so earlier traces keep their ids).
    DomainOutage,         //!< correlated outage struck;
                          //!< arg0 = downtime (s), arg1 = node count
    NodeDrainStarted,     //!< planned upgrade: dispatch stopped;
                          //!< container = node, arg0 = downtime (s)
    NodeDrained,          //!< drain ended; container = node, a = 1
                          //!< when the timeout killed it, 0 graceful
    NodeRejoinGranted,    //!< readmission token granted;
                          //!< container = node, arg0 = rejoin wait (s)
    NodeWarmupDone,       //!< census warm-up finished; container =
                          //!< node, arg0 = layers prewarmed
    RecoveryRetry,        //!< client feedback re-submitted a failed /
                          //!< shed request; container = target node,
                          //!< b = attempt number (capped at 255)
};

/** Number of event types (for name tables). */
inline constexpr std::size_t kEventTypeCount =
    static_cast<std::size_t>(EventType::RecoveryRetry) + 1;

/** Why a container was terminated (travels in TraceEvent::b). */
enum class KillCause : std::uint8_t
{
    Unknown,        //!< direct kill with no recorded reason
    TtlExpired,     //!< policy decided Kill on idle expiry
    BareExpired,    //!< Bare container timed out (nothing left to peel)
    MemoryPressure, //!< evicted to fit an incoming cold start
    PoolSaturated,  //!< would downgrade into a full shared pool
    RepackFailed,   //!< Pagurus re-pack had no memory / wrong layer
    Finalize,       //!< end-of-run flush of survivors
    InitFault,      //!< injected stage-install failure (rc::fault)
    ExecFault,      //!< injected mid-execution crash (rc::fault)
    WedgeTimeout,   //!< execution watchdog killed a wedged container
    NodeCrash,      //!< whole-node failure took the pool down
    HedgeCancel,    //!< losing hedge attempt cancelled mid-flight
                    //!< (appended after NodeCrash; killCounter maps
                    //!< it out-of-block to Counter::KillHedgeCancel)
};

/** Number of kill causes (for counter arrays and name tables). */
inline constexpr std::size_t kKillCauseCount =
    static_cast<std::size_t>(KillCause::HedgeCancel) + 1;

/** One structured trace record; POD, fixed size, no ownership. */
struct TraceEvent
{
    sim::Tick tick = 0;            //!< simulated time (microseconds)
    std::uint64_t container = 0;   //!< container id; 0 = none. Node-
                                   //!< scoped cluster events: node index
    std::uint32_t function = 0xffffffffU; //!< FunctionId; ~0 = none
    Category category = Category::Engine;
    EventType type = EventType::EngineStats;
    std::uint8_t a = 0;            //!< small arg (layer/type/action)
    std::uint8_t b = 0;            //!< small arg (cause/layer)
    double arg0 = 0.0;             //!< payload (MB, seconds, counts)
    double arg1 = 0.0;             //!< payload
};

static_assert(sizeof(TraceEvent) == 40, "TraceEvent must stay compact");

/** Stable name tables (used by both exporters and the parser). */
const char* toString(Category category);
const char* toString(EventType type);
const char* toString(KillCause cause);

/** Reverse lookups; return false when @p name is unknown. */
bool categoryFromString(const char* name, Category& out);
bool eventTypeFromString(const char* name, EventType& out);

/** Category an event type belongs to. */
Category categoryOf(EventType type);

} // namespace rc::obs

#endif // RC_OBS_TRACE_EVENT_HH_
