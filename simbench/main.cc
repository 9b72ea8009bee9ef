/**
 * @file
 * The simulator benchmark: host throughput, memory and the paper's
 * simulated outcomes of RainbowCake on three workloads.
 *
 *   simbench --workload <node_dense|node_sparse_fleet|cluster_sharded>
 *            --seed N --seconds S --trace <0|1> [--scale F]
 *   simbench --self-test
 *
 * A run sets its inputs up several times (setup_s is the median) and
 * replays the same trace through exp::runExperiment (node_*) or
 * exp::runCluster (cluster_sharded) until S seconds of wall were spent
 * in those repetitions, and reports medians over them; end-to-end
 * host times are scaled to a reference host speed (HostProbe). --trace 0
 * prints the end-to-end metrics from untraced repetitions only;
 * --trace 1 alternates untraced and traced repetitions and prints the
 * per-layer ledger (decorators.hh wraps the policy and the arrival
 * source; the node's obs::Profiler and the cluster's phase timings are
 * read as the library exposes them).
 *
 * Every repetition is checked: conservation identities, a digest of
 * the exp CSV writers' bytes equal across repetitions, and (traced)
 * equal to the untraced digest. The last stdout line is one JSON
 * object {correct, attempted, failed, metrics}; the line before it
 * stamps the host, build and workload shape. Exit 1 on any failed
 * check, 2 on bad arguments or a non-optimised build.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/conservation.hh"
#include "core/ablations.hh"
#include "decorators.hh"
#include "exp/cluster_run.hh"
#include "exp/csv.hh"
#include "exp/experiment.hh"
#include "obs/observer.hh"
#include "sim/rng.hh"
#include "stats/percentile.hh"
#include "trace/arrival_source.hh"
#include "trace/generator.hh"
#include "trace/replay.hh"
#include "workload/catalog.hh"

namespace {

using namespace rc;
using simbench::Clock;
using simbench::HookStat;
using simbench::PolicyLedger;

#ifdef __OPTIMIZE__
constexpr bool kOptimised = true;
#else
constexpr bool kOptimised = false;
#endif

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Cpu
{
    double user = 0.0;
    double sys = 0.0;
};

Cpu
cpuNow()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return {secs(usage.ru_utime), secs(usage.ru_stime)};
}

double
peakRssBytes()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) * 1024.0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** FNV-1a over the bytes of @p text. */
std::uint64_t
fnv1a(const std::string& text)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::size_t
hostCores()
{
    return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/**
 * A fixed probe of the host's speed: a small discrete-event loop in
 * standard containers (a binary heap of timed events, a hash map of
 * per-key state and a log of 48-byte records), the kinds of work the
 * simulator does, in the benchmark's own code so that no change to the
 * simulator changes it. On a shared host the simulator's speed moves
 * in phases, by up to 3x over minutes, with the other tenants' use of
 * the caches and memory the cores share; the probe moves with it
 * (NOTES.md, "Host speed"). A run probes before every timed
 * repetition, and the end-to-end host times are reported at the speed
 * on which the probe takes kReferenceProbeS.
 */
class HostProbe
{
  public:
    /** Seconds one probe took. */
    double
    run() const
    {
        using Event = std::pair<std::uint64_t, std::uint32_t>;
        const auto start = Clock::now();
        std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
        std::unordered_map<std::uint32_t, std::uint64_t> state;
        std::vector<std::array<std::uint64_t, 6>> log;
        std::uint64_t x = 88172645463325252ULL;
        std::uint64_t now = 0;
        for (std::uint64_t i = 0; i < kEvents; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            heap.emplace(now + (x & 0xffff),
                         static_cast<std::uint32_t>((x >> 40) % kKeys));
            if (heap.size() <= kPending)
                continue;
            const auto [at, key] = heap.top();
            heap.pop();
            now = at;
            auto& total = state[key];
            total += at;
            log.push_back({at, key, total, x, now, i});
        }
        volatile std::size_t sink = log.size() + state.size();
        (void)sink;
        return secondsSince(start);
    }

  private:
    static constexpr std::uint64_t kEvents = 150'000;
    static constexpr std::size_t kPending = 4096;
    static constexpr std::uint32_t kKeys = 20'000;
};

/** About the probe's time on a quiet stretch of the baseline host; it
 *  fixes the unit of the scaled host times. */
constexpr double kReferenceProbeS = 0.020;

// ---- workloads ---------------------------------------------------------

struct Spec
{
    std::string name;
    bool cluster = false;
    /** 0 selects Catalog::standard20(), else syntheticFleet(n). */
    std::size_t fleetFunctions = 0;
    std::size_t minutes = 0;
    std::uint64_t targetInvocations = 0;
    double nodeMemoryMb = 0.0;
    std::size_t nodes = 1;
    std::size_t shards = 1;
    std::size_t threads = 1;
    double nodeMtbfSeconds = 0.0;
};

bool
makeSpec(const std::string& name, double scale, Spec& spec)
{
    // Each workload replays in about a second, so the median is taken
    // over dozens of repetitions spread across the run: a shared
    // host's speed moves in phases of a few seconds (see NOTES.md).
    spec.name = name;
    if (name == "node_dense") {
        spec.minutes = 120;
        spec.targetInvocations = 300'000;
        spec.nodeMemoryMb = 240.0 * 1024.0;
    } else if (name == "node_sparse_fleet") {
        spec.fleetFunctions = 4000;
        spec.minutes = 360;
        spec.targetInvocations = 92'000;
        spec.nodeMemoryMb = 64.0 * 1024.0;
    } else if (name == "cluster_sharded") {
        spec.cluster = true;
        spec.fleetFunctions = 400;
        spec.minutes = 2;
        spec.targetInvocations = 62'000;
        spec.nodeMemoryMb = 8.0 * 1024.0;
        spec.nodes = 512;
        spec.shards = 4;
        // The four shards' rounds run inline on one thread. On a
        // shared 4-vCPU host every round handed to worker threads
        // waits on kernel wake-ups whose latency moves with the other
        // tenants' load: two workers took twice the wall of one, and
        // the median wall of a run swung by 30-70% between runs.
        spec.threads = 1;
        spec.nodeMtbfSeconds = 3600.0;
    } else {
        return false;
    }
    spec.targetInvocations = std::max<std::uint64_t>(
        1000, static_cast<std::uint64_t>(
                  static_cast<double>(spec.targetInvocations) * scale));
    if (spec.cluster && scale < 1.0) {
        spec.nodes = std::max<std::size_t>(
            8, static_cast<std::size_t>(static_cast<double>(spec.nodes) *
                                        scale));
    }
    return true;
}

/**
 * Seed of every workload's catalog and base trace. A workload fixes
 * which function plays which role (hot head, cron-like tail, bursty
 * band), as the paper replays one fixed Azure sample; with the roles
 * drawn per seed, one or two head functions' execution times would
 * swing the simulated outcomes by 2-3x from seed to seed. The --seed
 * argument draws the arrivals' phases (setUp) and seeds the
 * simulator's own randomness: execution times and node crashes.
 */
constexpr std::uint64_t kStructureSeed = 42;

/** Generated inputs of one workload (the program receives only these). */
struct Inputs
{
    workload::Catalog catalog;
    /** node_*: the expanded arrival vector. */
    std::vector<trace::Arrival> arrivals;
    /** cluster_sharded: the streaming source, rewound per repetition. */
    std::unique_ptr<trace::TraceSetArrivalSource> source;
    std::uint64_t arrivalCount = 0;
    double generateS = 0.0;
    double expandS = 0.0;
};

std::unique_ptr<Inputs>
setUp(const Spec& spec, std::uint64_t seed)
{
    auto in = std::make_unique<Inputs>();
    const auto start = Clock::now();
    in->catalog = spec.fleetFunctions == 0
        ? workload::Catalog::standard20()
        : workload::Catalog::syntheticFleet(spec.fleetFunctions,
                                            kStructureSeed);
    // The generator's target is approximate and undershoots on short
    // horizons; regenerate with a corrected target until the trace
    // reaches the workload's size (as bench_scale_fleet does).
    trace::WorkloadTraceConfig config;
    config.minutes = spec.minutes;
    config.targetInvocations = spec.targetInvocations;
    config.seed = kStructureSeed;
    auto set = trace::generateAzureLike(in->catalog, config);
    for (int pass = 0;
         pass < 3 && set.totalInvocations() < spec.targetInvocations;
         ++pass) {
        config.targetInvocations =
            static_cast<std::uint64_t>(
                static_cast<double>(config.targetInvocations) * 1.02 *
                (static_cast<double>(spec.targetInvocations) /
                 static_cast<double>(
                     std::max<std::uint64_t>(1, set.totalInvocations())))) +
            1;
        set = trace::generateAzureLike(in->catalog, config);
    }
    // The seed's realisation: every function's minute series starts
    // at its own seed-drawn phase (rotated, so rates, inter-arrival
    // times and bursts are kept and only their interleaving moves).
    sim::Rng rng(seed);
    trace::TraceSet shifted(set.durationMinutes());
    for (trace::FunctionTrace ft : set.traces()) {
        auto& perMinute = ft.perMinute;
        if (!perMinute.empty()) {
            const auto phase = rng.uniformInt(
                0, static_cast<std::int64_t>(perMinute.size()) - 1);
            std::rotate(perMinute.begin(), perMinute.begin() + phase,
                        perMinute.end());
        }
        shifted.add(std::move(ft));
    }
    set = std::move(shifted);
    in->generateS = secondsSince(start);
    const auto expand = Clock::now();
    if (spec.cluster) {
        in->source =
            std::make_unique<trace::TraceSetArrivalSource>(std::move(set));
        in->arrivalCount = in->source->total();
    } else {
        in->arrivals = trace::expandArrivals(set);
        in->arrivalCount = in->arrivals.size();
    }
    in->expandS = secondsSince(expand);
    return in;
}

// ---- one repetition ----------------------------------------------------

using InnerFactory = std::function<std::unique_ptr<policy::Policy>(
    const workload::Catalog&)>;

std::unique_ptr<policy::Policy>
rainbowCake(const workload::Catalog& catalog)
{
    return core::makeRainbowCake(catalog);
}

/** Simulated outcome of one run: deterministic for a seed. */
struct Outcome
{
    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t cold = 0;
    std::uint64_t unserved = 0; //!< failed + stranded + rejected + shed
    double meanStartupMs = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
    double wasteGbS = 0.0;
    std::uint64_t events = 0;
    std::uint64_t windows = 0;
    std::uint64_t digest = 0;
    std::string violation; //!< empty when every identity held
};

/** Host-side measurements of one repetition. */
struct Rep
{
    bool traced = false;
    double wallS = 0.0;
    double cpuS = 0.0;
    double sysS = 0.0;
    double summarizeS = 0.0;
    double peakRssBytes = 0.0;   //!< process peak after the repetition
    double rssGrowthBytes = 0.0; //!< peak growth over the repetition
    Outcome out;
    // traced only
    PolicyLedger policy;
    double policyWallNs = 0.0; //!< policy time in wall terms
    HookStat pulls;
    std::uint64_t engineRunNs = 0;
    std::uint64_t poolScanNs = 0;
    std::uint64_t poolScanCalls = 0;
    cluster::ClusterResult phases; //!< phase-timing fields only
};

struct RunOptions
{
    bool traced = false;
    std::size_t shards = 0;  //!< 0 keeps the spec's shard count
    std::size_t threads = 0; //!< 0 keeps the spec's worker threads
    /** cluster: record spans for exact e2e percentiles (untimed use) */
    bool spans = false;
    InnerFactory inner = rainbowCake;
};

/** Host clocks and the RSS peak around one repetition. */
struct RepTimer
{
    double rssBefore = peakRssBytes();
    Cpu cpu0 = cpuNow();
    Clock::time_point start = Clock::now();

    /** Fill @p rep's host fields; [ran, summarised) is the summary. */
    void
    finish(Rep& rep, Clock::time_point ran,
           Clock::time_point summarised) const
    {
        const auto done = Clock::now();
        const Cpu cpu1 = cpuNow();
        rep.wallS = std::chrono::duration<double>(done - start).count();
        rep.summarizeS =
            std::chrono::duration<double>(summarised - ran).count();
        rep.cpuS = (cpu1.user - cpu0.user) + (cpu1.sys - cpu0.sys);
        rep.sysS = cpu1.sys - cpu0.sys;
        rep.peakRssBytes = peakRssBytes();
        rep.rssGrowthBytes = std::max(0.0, rep.peakRssBytes - rssBefore);
    }
};

Rep
runNode(const Spec& spec, Inputs& in, std::uint64_t seed,
        const RunOptions& opt)
{
    platform::NodeConfig config;
    config.seed = seed;
    config.pool.memoryBudgetMb = spec.nodeMemoryMb;
    obs::ObserverConfig obsConfig;
    obsConfig.traceEnabled = false;
    obsConfig.profilingEnabled = true;
    obs::Observer observer(obsConfig);
    std::deque<PolicyLedger> ledgers;
    exp::PolicyFactory factory = [&] { return opt.inner(in.catalog); };
    if (opt.traced) {
        config.observer = &observer;
        factory = [&] {
            ledgers.emplace_back();
            return std::make_unique<simbench::TimedPolicy>(
                opt.inner(in.catalog), ledgers.back(), &observer);
        };
    }

    Rep rep;
    rep.traced = opt.traced;
    const RepTimer timer;
    std::vector<exp::RunResult> results;
    results.push_back(
        exp::runExperiment(in.catalog, factory, in.arrivals, config));
    const auto ran = Clock::now();
    // The program's own summary: the percentile cache and summary CSV.
    exp::RunResult& r = results.front();
    r.metrics.sortLatencyCache();
    std::ostringstream csv;
    exp::writeSummaryCsv(csv, results);
    timer.finish(rep, ran, Clock::now());

    // What only the benchmark needs, outside the timed run.
    stats::Percentile e2e;
    for (const auto& rec : r.metrics.records())
        e2e.add(sim::toSeconds(rec.endToEnd));
    Outcome& out = rep.out;
    out.digest = fnv1a(csv.str());
    out.admitted = in.arrivalCount;
    out.completed = r.metrics.total();
    out.cold = r.metrics.countOf(platform::StartupType::Cold);
    out.unserved = r.failedInvocations + r.strandedInvocations +
                   r.rejectedInvocations + r.shedDeadline + r.shedPressure;
    out.meanStartupMs = r.metrics.meanStartupSeconds() * 1000.0;
    out.p50 = e2e.median();
    out.p99 = r.metrics.p99EndToEndSeconds();
    out.wasteGbS = r.wasteGbSeconds();

    if (!cluster::conservation::nodeConservation(
            out.completed, r.failedInvocations, r.strandedInvocations,
            r.rejectedInvocations, r.shedDeadline, r.shedPressure,
            in.arrivalCount))
        out.violation = "node conservation: completed + failed + "
                        "stranded + rejected + shed != arrivals";

    if (opt.traced) {
        const auto& prof = observer.profileData();
        out.events = observer.counters().total(obs::Counter::EngineExecuted);
        rep.engineRunNs = prof.totalNs(obs::Scope::EngineRun);
        rep.poolScanNs = prof.totalNs(obs::Scope::PoolScan);
        rep.poolScanCalls = prof.calls(obs::Scope::PoolScan);
        rep.policy = simbench::mergeLedgers(ledgers);
        rep.policyWallNs = static_cast<double>(rep.policy.totalNs());
    }
    return rep;
}

/** The first conservation identity @p r breaks, or "" when none. */
std::string
fleetViolation(const cluster::ClusterResult& r, std::uint64_t arrivals)
{
    namespace cons = cluster::conservation;
    if (!cons::fleetConservation(r.invocations, r.failedInvocations,
                                 r.strandedInvocations,
                                 r.reroutedInvocations,
                                 r.rejectedInvocations, r.shedDeadline,
                                 r.shedPressure, r.cancelledInvocations,
                                 r.admittedInvocations))
        return "fleet conservation";
    if (!cons::admissionIdentity(r.admittedInvocations, arrivals,
                                 r.reroutedInvocations, r.hedgesLaunched,
                                 r.retriesFeedback))
        return "admission identity";
    if (!cons::hedgeIdentity(r.hedgesLaunched, r.hedgesWon,
                             r.hedgesCancelled, r.hedgesLost))
        return "hedge identity";
    if (!cons::recoveryIdentity(r.recoveredNodes, r.outageNodeEpisodes,
                                r.upgradeEpisodes, r.nodesDrained,
                                r.nodesKilled))
        return "recovery identity";
    if (!cons::prewarmIdentity(r.prewarmLayers, r.prewarmHit,
                               r.prewarmEvicted, r.prewarmWasted))
        return "prewarm identity";
    return "";
}

Rep
runClusterRep(const Spec& spec, Inputs& in, std::uint64_t seed,
              const RunOptions& opt)
{
    exp::ClusterRunConfig config;
    config.nodes = spec.nodes;
    config.node.seed = seed;
    config.node.pool.memoryBudgetMb = spec.nodeMemoryMb;
    config.node.fault.nodeMtbfSeconds = spec.nodeMtbfSeconds;
    config.node.fault.nodeDowntimeSeconds = 30.0;
    config.node.fault.maxRetries = 2;
    config.shards = opt.shards != 0 ? opt.shards : spec.shards;
    config.threads =
        std::min(config.shards, opt.threads != 0 ? opt.threads : spec.threads);
    config.phaseTimings = opt.traced;
    obs::ObserverConfig obsConfig;
    obsConfig.traceEnabled = false;
    obsConfig.profilingEnabled = false;
    obsConfig.spansEnabled = true;
    obs::Observer observer(obsConfig);
    if (opt.spans)
        config.node.observer = &observer;

    std::deque<PolicyLedger> ledgers;
    exp::PolicyFactory factory = [&] { return opt.inner(in.catalog); };
    if (opt.traced) {
        // The factory runs once per node on the constructing thread,
        // so growing the deque here races with nothing.
        factory = [&] {
            ledgers.emplace_back();
            return std::make_unique<simbench::TimedPolicy>(
                opt.inner(in.catalog), ledgers.back(), nullptr);
        };
    }
    in.source->reset();
    simbench::TimedSource timedSource(*in.source);
    trace::ArrivalSource& source =
        opt.traced ? static_cast<trace::ArrivalSource&>(timedSource)
                   : *in.source;

    Rep rep;
    rep.traced = opt.traced;
    const RepTimer timer;
    const cluster::ClusterResult r =
        exp::runCluster(in.catalog, factory, source, config);
    const auto ran = Clock::now();
    // The program's own summary: the cluster CSVs.
    std::ostringstream csv;
    exp::writeClusterSummaryCsv(csv, r);
    exp::writeClusterPerNodeCsv(csv, r);
    timer.finish(rep, ran, Clock::now());

    Outcome& out = rep.out;
    out.digest = fnv1a(csv.str());
    out.admitted = r.admittedInvocations;
    out.completed = r.invocations;
    out.cold = r.coldStarts;
    out.unserved = r.failedInvocations + r.strandedInvocations +
                   r.rejectedInvocations + r.shedDeadline + r.shedPressure;
    out.meanStartupMs = r.meanStartupSeconds * 1000.0;
    out.p50 = r.e2eP50Seconds;
    out.p99 = r.e2eP99Seconds;
    out.wasteGbS = r.totalWasteMbSeconds / 1024.0;
    out.events = r.engineEvents;
    out.windows = r.windows;
    out.violation = fleetViolation(r, in.arrivalCount);

    if (opt.spans) {
        // The result's percentiles come from sketches with 1% buckets;
        // the completed invocations' root spans ([arrival, completion]
        // on the node that ran them) give the exact ones.
        stats::Percentile e2e;
        for (const auto& span : observer.spans()) {
            if (span.stage == obs::SpanStage::Invocation &&
                span.info ==
                    static_cast<std::uint8_t>(obs::SpanOutcome::Completed))
                e2e.add(sim::toSeconds(span.end - span.start));
        }
        out.p50 = e2e.median();
        out.p99 = e2e.p99();
        if (out.violation.empty() &&
            (e2e.count() != r.invocations || observer.droppedSpans() != 0))
            out.violation = "completed root spans disagree with the fleet "
                            "total";
    }

    if (opt.traced) {
        rep.policy = simbench::mergeLedgers(ledgers);
        // An estimate: hooks run on the worker threads inside the
        // parallel phase, and their summed thread time divided by the
        // worker count assumes an even split across the workers.
        rep.policyWallNs = static_cast<double>(rep.policy.totalNs()) /
                           static_cast<double>(config.threads);
        rep.pulls = timedSource.pulls();
        rep.phases = r;
    }
    return rep;
}

Rep
runOnce(const Spec& spec, Inputs& in, std::uint64_t seed,
        const RunOptions& opt)
{
    return spec.cluster ? runClusterRep(spec, in, seed, opt)
                        : runNode(spec, in, seed, opt);
}

// ---- reporting ---------------------------------------------------------

struct Metric
{
    double value = 0.0;
    std::string unit;
};

using MetricMap = std::map<std::string, Metric>;

std::string
fmt(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const MetricMap& metrics)
{
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics) {
        if (!first)
            line += ", ";
        first = false;
        line += "\"" + name + "\": {\"value\": " + fmt(m.value) +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    line += "}}";
    std::cout << line << std::endl;
}

double
pct(std::uint64_t part, std::uint64_t whole)
{
    return whole == 0 ? 0.0
                      : 100.0 * static_cast<double>(part) /
                            static_cast<double>(whole);
}

double
medianOf(const std::vector<Rep>& reps,
         const std::function<double(const Rep&)>& f)
{
    std::vector<double> v;
    v.reserve(reps.size());
    for (const auto& rep : reps)
        v.push_back(f(rep));
    return median(std::move(v));
}

/**
 * @param hostFactor  median probe / kReferenceProbeS: how much slower
 *                    than the reference the host ran; host times are
 *                    divided by it.
 */
void
addEndToEnd(MetricMap& m, const Outcome& o, const Rep& warmUp,
            const std::vector<Rep>& reps, double setupS,
            std::uint64_t arrivals, double hostFactor)
{
    const double n = static_cast<double>(arrivals);
    const double wall =
        medianOf(reps, [](const Rep& r) { return r.wallS; }) / hostFactor;
    const double cpu =
        medianOf(reps, [](const Rep& r) { return r.cpuS; }) / hostFactor;
    m["inv_per_s"] = {n / wall, "inv/s"};
    m["cpu_us_per_inv"] = {cpu * 1e6 / n, "us/inv"};
    // The process peak after set-up and the warm-up run. Later
    // repetitions add only allocator-history noise.
    m["peak_rss_mb"] = {warmUp.peakRssBytes / (1024.0 * 1024.0), "MB"};
    m["setup_s"] = {setupS / hostFactor, "s"};
    m["cold_start_pct"] = {pct(o.cold, o.completed), "%"};
    m["mean_startup_ms"] = {o.meanStartupMs, "ms"};
    m["e2e_p50_s"] = {o.p50, "s"};
    m["e2e_p99_s"] = {o.p99, "s"};
    m["waste_gb_s"] = {o.wasteGbS, "GB.s"};
    m["served_pct"] = {100.0 - pct(o.unserved, o.admitted), "%"};
}

/** Exclusive host seconds of one traced repetition, by layer. */
struct SelfTimes
{
    double pull = 0.0;
    double engine = 0.0;
    double pool = 0.0;
    double policy = 0.0;
    double route = 0.0;
    double summary = 0.0;
    double drain = 0.0;
    double parallel = 0.0;
    double summarize = 0.0;
};

/**
 * Split a traced repetition into exclusive layer times (see NOTES.md):
 * eviction ranking and the coordinator's pulls are nested in the pool
 * scan and the route phase, and the policy hooks in the engine run or
 * the parallel phase, so each is subtracted from its parent.
 */
SelfTimes
selfTimes(const Rep& r, bool cluster)
{
    const auto secs = [](double ns) { return ns * 1e-9; };
    const auto u = [](std::uint64_t ns) { return static_cast<double>(ns); };
    SelfTimes t;
    t.pull = secs(u(r.pulls.ns));
    t.policy = secs(r.policyWallNs);
    t.summarize = r.summarizeS;
    if (cluster) {
        const auto& p = r.phases;
        t.route = secs(u(p.routeNs) - u(r.pulls.ns));
        t.summary = secs(u(p.summaryCaptureNs));
        t.drain = secs(u(p.coordinatorDrainNs) - u(p.routeNs) -
                       u(p.summaryCaptureNs));
        t.parallel = secs(u(p.parallelNs) - r.policyWallNs);
    } else {
        t.pool = secs(u(r.poolScanNs) -
                      u(r.policy.hooks[simbench::RankEvictionVictims].ns));
        t.engine = secs(u(r.engineRunNs)) - t.pool - t.policy;
    }
    return t;
}

void
addPerLayer(MetricMap& m, const Spec& spec, const Inputs& in,
            const Rep& warmUp, const std::vector<Rep>& plain,
            const std::vector<Rep>& traced)
{
    const Rep& t0 = traced.front();
    const Outcome& o = t0.out;
    const double arrivals = static_cast<double>(in.arrivalCount);
    const auto count = [](std::uint64_t n) {
        return Metric{static_cast<double>(n), "count"};
    };
    const auto seconds = [](double s) { return Metric{s, "s"}; };
    const auto tracedMedian = [&](const std::function<double(const Rep&)>& f) {
        return medianOf(traced, f);
    };
    const auto self = [&](double SelfTimes::*field) {
        return tracedMedian([&](const Rep& r) {
            return selfTimes(r, spec.cluster).*field;
        });
    };
    const double plainWall = medianOf(plain, [](const Rep& r) {
        return r.wallS;
    });
    const double tracedWall = tracedMedian([](const Rep& r) {
        return r.wallS;
    });

    m["trace.generate_s"] = seconds(in.generateS);
    m["trace.expand_s"] = seconds(in.expandS);
    m["trace.pull_calls"] = count(t0.pulls.calls);
    m["trace.pull_s"] = seconds(self(&SelfTimes::pull));

    m["sim.events"] = count(o.events);
    m["sim.engine_self_s"] = seconds(self(&SelfTimes::engine));
    m["sim.host_ns_per_event"] = {
        o.events == 0 ? 0.0
                      : plainWall * 1e9 / static_cast<double>(o.events),
        "ns/event"};

    m["platform.pool_scan_calls"] = count(t0.poolScanCalls);
    m["platform.pool_scan_s"] = seconds(self(&SelfTimes::pool));
    m["platform.rss_bytes_per_inv"] = {
        warmUp.rssGrowthBytes / arrivals, "B/inv"};
    const auto& startups = t0.policy.startups;
    std::uint64_t resolved = 0;
    for (const auto n : startups)
        resolved += n;
    const auto share = [&](platform::StartupType type) {
        return Metric{
            pct(startups[static_cast<std::size_t>(type)], resolved), "%"};
    };
    m["platform.startup_warm_pct"] = share(platform::StartupType::Load);
    m["platform.startup_user_pct"] = share(platform::StartupType::User);
    m["platform.startup_lang_pct"] = share(platform::StartupType::Lang);
    m["platform.startup_bare_pct"] = share(platform::StartupType::Bare);

    for (std::size_t h = 0; h < simbench::kHookCount; ++h) {
        const std::string stem =
            std::string("policy.") + simbench::kHookNames[h];
        m[stem + "_calls"] = count(t0.policy.hooks[h].calls);
        m[stem + "_s"] = seconds(tracedMedian([h](const Rep& r) {
            return static_cast<double>(r.policy.hooks[h].ns) * 1e-9;
        }));
    }
    m["policy.self_s"] = seconds(self(&SelfTimes::policy));

    const double windows = static_cast<double>(o.windows);
    const double plainCpu = medianOf(plain, [](const Rep& r) {
        return r.cpuS;
    });
    const double plainSys = medianOf(plain, [](const Rep& r) {
        return r.sysS;
    });
    m["cluster.windows"] = count(o.windows);
    m["cluster.inv_per_window"] = {
        windows == 0 ? 0.0 : arrivals / windows, "inv/window"};
    m["cluster.us_per_window"] = {
        windows == 0 ? 0.0 : plainWall * 1e6 / windows, "us/window"};
    m["cluster.coordinator_drain_s"] = seconds(self(&SelfTimes::drain));
    m["cluster.route_s"] = seconds(self(&SelfTimes::route));
    m["cluster.summary_capture_s"] = seconds(self(&SelfTimes::summary));
    m["cluster.parallel_s"] = seconds(self(&SelfTimes::parallel));
    m["cluster.cores_busy"] = {spec.cluster ? plainCpu / plainWall : 0.0,
                               "cores"};
    m["cluster.sys_share"] = {
        spec.cluster && plainCpu > 0 ? plainSys / plainCpu : 0.0, "ratio"};

    m["exp.summarize_s"] = seconds(self(&SelfTimes::summarize));

    double attributed = 0.0;
    for (const auto field :
         {&SelfTimes::pull, &SelfTimes::engine, &SelfTimes::pool,
          &SelfTimes::policy, &SelfTimes::route, &SelfTimes::summary,
          &SelfTimes::drain, &SelfTimes::parallel, &SelfTimes::summarize})
        attributed += self(field);
    m["unattributed_s"] = seconds(tracedWall - attributed);
    m["trace_overhead_pct"] = {100.0 * (tracedWall / plainWall - 1.0), "%"};
}

// ---- command line ------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    double scale = 1.0;
    bool selfTest = false;
};

void
usage()
{
    std::cerr << "usage: simbench --workload <node_dense|node_sparse_fleet|"
                 "cluster_sharded> --seed N --seconds S --trace <0|1> "
                 "[--scale F]\n       simbench --self-test\n";
}

bool
parseArgs(int argc, char** argv, Options& opt)
{
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--self-test") {
                opt.selfTest = true;
                continue;
            }
            if (i + 1 >= argc)
                return false;
            const std::string value = argv[++i];
            std::size_t used = 0;
            if (arg == "--workload") {
                opt.workload = value;
            } else if (arg == "--seed") {
                opt.seed = std::stoull(value, &used);
            } else if (arg == "--seconds") {
                opt.seconds = std::stod(value, &used);
            } else if (arg == "--trace") {
                if (value != "0" && value != "1")
                    return false;
                opt.trace = value == "1";
                used = value.size();
            } else if (arg == "--scale") {
                opt.scale = std::stod(value, &used);
            } else {
                return false;
            }
            if (arg != "--workload" && used != value.size())
                return false;
        }
    } catch (const std::exception&) {
        return false;
    }
    return opt.selfTest ||
           (!opt.workload.empty() && opt.seconds > 0 && opt.scale > 0);
}

/**
 * A run sets its inputs up at least kMinSetups times and keeps going
 * for kSetupSeconds (at most kMaxSetups times); setup_s is the median.
 * Timed repetitions continue until --seconds of wall were spent in
 * them.
 */
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 5000;
constexpr double kSetupSeconds = 2.0;
/** Minimum repetitions of each kind per run. */
constexpr std::size_t kMinReps = 3;

int
runBenchmark(const Options& opt)
{
    Spec spec;
    if (!makeSpec(opt.workload, opt.scale, spec)) {
        std::cerr << "unknown workload '" << opt.workload << "'\n";
        usage();
        return 2;
    }

    std::vector<Rep> plain;
    std::vector<Rep> traced;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t expected = 0;
    const auto check = [&](const Rep& rep) {
        ++attempted;
        std::fprintf(stderr,
                     "repetition %" PRIu64 " (%s): %.4f s wall, %.4f s cpu\n",
                     attempted, rep.traced ? "traced" : "untraced", rep.wallS,
                     rep.cpuS);
        std::string why = rep.out.violation;
        if (why.empty() && rep.out.digest != expected)
            why = rep.traced ? "traced digest differs from untraced"
                             : "digest differs between repetitions";
        if (why.empty())
            return;
        ++failed;
        std::cerr << "FAIL (" << (rep.traced ? "traced" : "untraced")
                  << " repetition): " << why << "\n";
    };

    // One set-up, then a warm-up repetition that faults the process's
    // memory in. It is checked and sets the reference digest, but is
    // not timed; the process peak after it (peak_rss_mb) has the same
    // allocator history in every run. The further set-ups only time
    // set-up; their inputs are dropped.
    std::vector<double> setups;
    auto setupStart = Clock::now();
    const std::unique_ptr<Inputs> in = setUp(spec, opt.seed);
    setups.push_back(secondsSince(setupStart));
    const Rep warmUp = runOnce(spec, *in, opt.seed, {});
    expected = warmUp.out.digest;
    check(warmUp);
    setupStart = Clock::now();
    while (setups.size() < kMinSetups ||
           (setups.size() < kMaxSetups &&
            secondsSince(setupStart) < kSetupSeconds)) {
        const auto start = Clock::now();
        setUp(spec, opt.seed);
        setups.push_back(secondsSince(start));
    }
    const double setupS = median(setups);

    const HostProbe probe;
    std::vector<double> probes;
    double measuredS = 0.0; // wall spent in timed repetitions
    while (plain.size() < kMinReps || (opt.trace && traced.size() < kMinReps) ||
           measuredS < opt.seconds) {
        probes.push_back(probe.run());
        plain.push_back(runOnce(spec, *in, opt.seed, {}));
        check(plain.back());
        measuredS += plain.back().wallS;
        if (opt.trace) {
            traced.push_back(runOnce(spec, *in, opt.seed, {.traced = true}));
            check(traced.back());
            measuredS += traced.back().wallS;
        }
    }

    // The simulated outcome is the same in every repetition (the
    // digests agree). On the cluster, one more untimed repetition
    // records spans for exact e2e percentiles.
    Outcome outcome = plain.front().out;
    if (spec.cluster && !opt.trace) {
        const Rep exact = runOnce(spec, *in, opt.seed, {.spans = true});
        check(exact);
        outcome = exact.out;
    }

    const double probeS = median(probes);
    const double hostFactor = probeS / kReferenceProbeS;
    MetricMap metrics;
    if (opt.trace)
        addPerLayer(metrics, spec, *in, warmUp, plain, traced);
    else
        addEndToEnd(metrics, outcome, warmUp, plain, setupS,
                    in->arrivalCount, hostFactor);

    // The stamp: host, build and workload shape, the host probe, and
    // the measured median walls and set-up (the per-layer self times
    // and unattributed_s add up to the traced wall).
    const auto wall = [](const Rep& r) { return r.wallS; };
    std::printf("{\"stamp\": {\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"nproc\": %zu, \"nodes\": %zu, \"shards\": %zu, "
                "\"worker_threads\": %zu, \"arrivals\": %" PRIu64
                ", \"build_type\": \"%s\", \"optimised\": %s, "
                "\"untraced_reps\": %zu, \"traced_reps\": %zu, "
                "\"probe_ms\": %s, \"host_factor\": %s, \"setup_s\": %s, "
                "\"untraced_wall_s\": %s, \"traced_wall_s\": %s, "
                "\"unserved\": %" PRIu64 ", \"digest\": \"%016" PRIx64
                "\"}}\n",
                spec.name.c_str(), opt.seed, hostCores(), spec.nodes,
                spec.shards, spec.threads, in->arrivalCount,
                SIMBENCH_BUILD_TYPE, kOptimised ? "true" : "false",
                plain.size(), traced.size(), fmt(probeS * 1e3).c_str(),
                fmt(hostFactor).c_str(), fmt(setupS).c_str(),
                fmt(medianOf(plain, wall)).c_str(),
                fmt(medianOf(traced, wall)).c_str(), outcome.unserved,
                expected);
    std::fflush(stdout);
    printResult(failed == 0, attempted, failed, metrics);
    return failed == 0 ? 0 : 1;
}

// ---- self-test ---------------------------------------------------------

int
selfTest()
{
    int failures = 0;
    const auto expect = [&failures](bool ok, const std::string& what) {
        std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
        if (!ok)
            ++failures;
    };

    // 1. The wrapper is transparent for every baseline: each one
    // overrides a different set of hooks. A 2 GB node makes every
    // policy rank eviction victims as well.
    Spec dense;
    makeSpec("node_dense", 0.02, dense);
    dense.minutes = 60;
    dense.nodeMemoryMb = 2.0 * 1024.0;
    auto denseIn = setUp(dense, 7);
    for (const auto& baseline : exp::standardBaselines(denseIn->catalog)) {
        RunOptions opt;
        opt.inner = [&baseline](const workload::Catalog&) {
            return baseline.make();
        };
        const Rep plain = runOnce(dense, *denseIn, 7, opt);
        opt.traced = true;
        const Rep traced = runOnce(dense, *denseIn, 7, opt);
        const auto& hooks = traced.policy.hooks;
        expect(plain.out.violation.empty() && traced.out.violation.empty() &&
                   plain.out.digest == traced.out.digest &&
                   hooks[simbench::OnArrival].calls == denseIn->arrivalCount &&
                   hooks[simbench::RankEvictionVictims].calls > 0,
               "wrapped == unwrapped digest: " + baseline.label);
    }

    // 2. Neither sharding nor worker threads change the cluster
    // outcome; the traced run's per-node ledgers are filled by
    // concurrent workers here.
    Spec fleet;
    makeSpec("cluster_sharded", 0.2, fleet);
    auto fleetIn = setUp(fleet, 7);
    const std::size_t workers = std::min<std::size_t>(4, hostCores());
    const Rep one = runOnce(fleet, *fleetIn, 7, {.shards = 1});
    const Rep four = runOnce(fleet, *fleetIn, 7, {.shards = 4});
    const Rep fourThreaded =
        runOnce(fleet, *fleetIn, 7, {.shards = 4, .threads = workers});
    const Rep fourTraced = runOnce(
        fleet, *fleetIn, 7, {.traced = true, .shards = 4, .threads = workers});
    expect(one.out.violation.empty() && four.out.violation.empty() &&
               one.out.digest == four.out.digest,
           "cluster_sharded digest at 1 shard == 4 shards");
    expect(fourThreaded.out.violation.empty() &&
               fourThreaded.out.digest == four.out.digest,
           "cluster_sharded digest on 1 thread == " +
               std::to_string(workers) + " threads");
    expect(fourTraced.out.digest == four.out.digest &&
               fourTraced.pulls.calls == fleetIn->arrivalCount,
           "cluster_sharded traced digest == untraced, one pull per arrival");

    // 3. The seed argument reaches the inputs.
    auto denseOther = setUp(dense, 8);
    auto fleetOther = setUp(fleet, 8);
    expect(runOnce(dense, *denseOther, 8, {}).out.digest !=
               runOnce(dense, *denseIn, 7, {}).out.digest,
           "node_dense digest changes with the seed");
    expect(runOnce(fleet, *fleetOther, 8, {}).out.digest != one.out.digest,
           "cluster_sharded digest changes with the seed");

    std::cout << (failures == 0 ? "self-test passed\n" : "self-test FAILED\n");
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        usage();
        return 2;
    }
    if (!kOptimised) {
        std::cerr << "simbench: refusing to measure a non-optimised build ("
                  << SIMBENCH_BUILD_TYPE << ")\n";
        return 2;
    }
    return opt.selfTest ? selfTest() : runBenchmark(opt);
}
