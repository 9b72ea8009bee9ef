/**
 * @file
 * Seed regression: pins the exact figure-style numbers of a fixed
 * (seed, trace, baseline) sweep — a miniature of the Fig. 6/7
 * comparison. Any change to Rng draw order (new streams must come
 * from Rng::stream, never from interleaved draws on existing
 * generators), trace generation, execution sampling, or the dispatch
 * ladder shows up here as an exact-count diff before it silently
 * shifts every figure in the evaluation.
 *
 * The goldens were captured from the current implementation; when a
 * change is *intended* to move them (a new knob default, a ladder
 * fix), re-capture and update them in the same commit with a note.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/ablations.hh"
#include "exp/cluster_run.hh"
#include "exp/experiment.hh"
#include "trace/arrival_source.hh"
#include "trace/generator.hh"
#include "trace/replay.hh"
#include "workload/catalog.hh"

namespace rc {
namespace {

using platform::StartupType;

struct Golden
{
    const char* policy;
    std::uint64_t cold;
    std::uint64_t bare;
    std::uint64_t lang;
    std::uint64_t user;
    std::uint64_t load;
    double totalStartupSeconds;
    double meanEndToEndSeconds;
};

// Captured from the 60-minute, seed-4242 Azure-like trace below.
constexpr Golden kGoldens[] = {
    {"OpenWhisk", 55u, 0u, 0u, 0u, 787u, 158.3580000000006,
     4.586525293349168},
    {"Histogram", 62u, 0u, 0u, 1u, 779u, 189.96299999999974,
     4.6241662315914471},
    {"FaaSCache", 23u, 0u, 0u, 0u, 819u, 78.629999999999313,
     4.4740489061757724},
    {"SEUSS", 17u, 0u, 47u, 0u, 778u, 121.19068100000156,
     4.5450349560570062},
    {"Pagurus", 28u, 0u, 0u, 34u, 780u, 123.92800000000121,
     4.5443838859857495},
    {"RainbowCake", 12u, 8u, 40u, 9u, 773u, 104.50900000000136,
     4.5205472790973884},
};

TEST(SeedRegression, BaselineFigureNumbersArePinned)
{
    const auto catalog = workload::Catalog::standard20();
    trace::WorkloadTraceConfig traceConfig;
    traceConfig.minutes = 60;
    traceConfig.targetInvocations = 5000;
    traceConfig.seed = 4242;
    const auto arrivals = trace::expandArrivals(
        trace::generateAzureLike(catalog, traceConfig));
    ASSERT_EQ(arrivals.size(), 842u);

    const auto baselines = exp::standardBaselines(catalog);
    ASSERT_EQ(baselines.size(), std::size(kGoldens));
    for (std::size_t i = 0; i < baselines.size(); ++i) {
        const Golden& golden = kGoldens[i];
        ASSERT_EQ(baselines[i].label, golden.policy);
        const auto result =
            exp::runExperiment(catalog, baselines[i].make, arrivals);
        const auto& m = result.metrics;
        EXPECT_EQ(m.total(), arrivals.size()) << golden.policy;
        EXPECT_EQ(m.countOf(StartupType::Cold), golden.cold)
            << golden.policy;
        EXPECT_EQ(m.countOf(StartupType::Bare), golden.bare)
            << golden.policy;
        EXPECT_EQ(m.countOf(StartupType::Lang), golden.lang)
            << golden.policy;
        EXPECT_EQ(m.countOf(StartupType::User), golden.user)
            << golden.policy;
        EXPECT_EQ(m.countOf(StartupType::Load), golden.load)
            << golden.policy;
        EXPECT_DOUBLE_EQ(m.totalStartupSeconds(),
                         golden.totalStartupSeconds)
            << golden.policy;
        EXPECT_DOUBLE_EQ(m.meanEndToEndSeconds(),
                         golden.meanEndToEndSeconds)
            << golden.policy;
    }
}

// ---- rc::admission regression ----------------------------------------

struct AdmissionGolden
{
    const char* label;
    std::uint64_t completed;
    std::uint64_t rejected;
    std::uint64_t shedDeadline;
    std::uint64_t shedPressure;
    std::uint64_t degradedKeepalives;
    std::size_t peakQueueDepth;
    double totalStartupSeconds;
    double meanEndToEndSeconds;
};

TEST(SeedRegression, AdmissionControlledNumbersArePinned)
{
    // RainbowCake on the same 60-minute seed-4242 trace, but squeezed
    // into a 384 MB node so the admission machinery actually acts.
    // Config 0 exercises the bounded queue + deadline shedding alone;
    // config 1 adds the closed-loop pressure controller. The exact
    // shed/reject/degrade counts pin the controller's arithmetic
    // (token buckets, deadline events, EWMA ladder) the same way the
    // baseline goldens pin the dispatch ladder.
    constexpr AdmissionGolden kAdmissionGoldens[] = {
        {"bounded-queue", 347u, 2u, 493u, 0u, 0u, 8u,
         961.70013400000289, 3.9153391123919294},
        {"pressure-control", 346u, 1u, 491u, 4u, 331u, 8u,
         935.13990100000285, 3.8492131560693625},
    };

    const auto catalog = workload::Catalog::standard20();
    trace::WorkloadTraceConfig traceConfig;
    traceConfig.minutes = 60;
    traceConfig.targetInvocations = 5000;
    traceConfig.seed = 4242;
    const auto arrivals = trace::expandArrivals(
        trace::generateAzureLike(catalog, traceConfig));
    ASSERT_EQ(arrivals.size(), 842u);

    for (std::size_t i = 0; i < std::size(kAdmissionGoldens); ++i) {
        const AdmissionGolden& golden = kAdmissionGoldens[i];
        platform::NodeConfig config;
        config.pool.memoryBudgetMb = 384.0;
        config.admission.maxQueueDepth = 8;
        config.admission.queueDeadlineSeconds = 30.0;
        if (i == 1) {
            config.admission.pressureControlEnabled = true;
            config.admission.controllerIntervalSeconds = 10.0;
            config.admission.pressureSmoothing = 0.5;
            config.admission.pressureWarn = 0.3;
            config.admission.pressureHigh = 0.5;
            config.admission.pressureCritical = 0.7;
        }
        const auto result = exp::runExperiment(
            catalog,
            [&catalog] { return core::makeRainbowCake(catalog); },
            arrivals, config);
        EXPECT_EQ(result.metrics.total(), golden.completed)
            << golden.label;
        EXPECT_EQ(result.rejectedInvocations, golden.rejected)
            << golden.label;
        EXPECT_EQ(result.shedDeadline, golden.shedDeadline)
            << golden.label;
        EXPECT_EQ(result.shedPressure, golden.shedPressure)
            << golden.label;
        EXPECT_EQ(result.degradedKeepalives, golden.degradedKeepalives)
            << golden.label;
        EXPECT_EQ(result.peakQueueDepth, golden.peakQueueDepth)
            << golden.label;
        EXPECT_DOUBLE_EQ(result.metrics.totalStartupSeconds(),
                         golden.totalStartupSeconds)
            << golden.label;
        EXPECT_DOUBLE_EQ(result.metrics.meanEndToEndSeconds(),
                         golden.meanEndToEndSeconds)
            << golden.label;
    }
}

// ---- sharded parallel cluster core regression ------------------------

TEST(SeedRegression, ShardedClusterNumbersArePinnedAtAnyShardCount)
{
    // RainbowCake on the same 60-minute seed-4242 trace, routed
    // across an 8-node cluster under a chaos plan (node crashes +
    // exec faults), replayed on the sharded parallel core at
    // shards = 1, 2, 8. The report CSV must be byte-identical at
    // every shard count — that is the core's central contract — and
    // must match the golden below exactly. Re-capture the golden in
    // the same commit when a change intentionally moves it.
    const auto catalog = workload::Catalog::standard20();
    trace::WorkloadTraceConfig traceConfig;
    traceConfig.minutes = 60;
    traceConfig.targetInvocations = 5000;
    traceConfig.seed = 4242;
    const auto arrivals = trace::expandArrivals(
        trace::generateAzureLike(catalog, traceConfig));
    ASSERT_EQ(arrivals.size(), 842u);

    std::string golden;
    for (const std::size_t shards : {1u, 2u, 8u}) {
        exp::ClusterRunConfig config;
        config.nodes = 8;
        config.shards = shards;
        config.threads = shards == 1 ? 1 : 0; // 0: auto thread count
        config.node.pool.memoryBudgetMb = 8192.0;
        config.node.fault.nodeMtbfSeconds = 600.0;
        config.node.fault.nodeDowntimeSeconds = 30.0;
        config.node.fault.execCrashProb = 0.01;
        config.node.fault.maxRetries = 2;
        const auto result = exp::runCluster(
            catalog,
            [&catalog] { return core::makeRainbowCake(catalog); },
            arrivals, config);

        EXPECT_EQ(result.invocations, 842u) << shards;
        EXPECT_EQ(result.coldStarts, 53u) << shards;
        EXPECT_EQ(result.nodeCrashes, 54u) << shards;
        EXPECT_EQ(result.reroutedInvocations, 5u) << shards;
        EXPECT_EQ(result.failedInvocations, 0u) << shards;
        EXPECT_EQ(result.strandedInvocations, 0u) << shards;
        EXPECT_EQ(result.windows, 3905u) << shards;
        EXPECT_EQ(result.admittedInvocations, 847u) << shards;
        EXPECT_EQ(result.engineEvents, 1957u) << shards;
        EXPECT_DOUBLE_EQ(result.totalStartupSeconds,
                         198.22020799999987)
            << shards;
        EXPECT_DOUBLE_EQ(result.totalWasteMbSeconds, 8113892.5099859992)
            << shards;
        EXPECT_DOUBLE_EQ(result.meanStartupSeconds,
                         0.23541592399049865)
            << shards;

        std::ostringstream csv;
        exp::writeClusterSummaryCsv(csv, result);
        exp::writeClusterPerNodeCsv(csv, result);
        if (shards == 1)
            golden = csv.str();
        else
            EXPECT_EQ(csv.str(), golden) << shards << " shards";
    }
}

// ---- gray-failure network model regression ---------------------------

TEST(SeedRegression, ZeroKnobNetworkPlanIsByteIdenticalToNoPlan)
{
    // A default-constructed NetworkPlan must be indistinguishable
    // from no plan at all: network.active() stays false, no ticketing
    // machinery is armed, no Rng stream is consumed, and the report
    // CSV is byte-identical. This pins the pay-for-what-you-use gate
    // against regressions (an unconditional draw or an active()
    // default flip would show up here).
    const auto catalog = workload::Catalog::standard20();
    trace::WorkloadTraceConfig traceConfig;
    traceConfig.minutes = 60;
    traceConfig.targetInvocations = 5000;
    traceConfig.seed = 4242;
    const auto arrivals = trace::expandArrivals(
        trace::generateAzureLike(catalog, traceConfig));

    const auto runWith = [&](bool assignNetwork) {
        exp::ClusterRunConfig config;
        config.nodes = 8;
        config.shards = 2;
        config.node.pool.memoryBudgetMb = 8192.0;
        config.node.fault.nodeMtbfSeconds = 600.0;
        config.node.fault.nodeDowntimeSeconds = 30.0;
        config.node.fault.execCrashProb = 0.01;
        config.node.fault.maxRetries = 2;
        if (assignNetwork)
            config.node.fault.network = fault::NetworkPlan{};
        const auto result = exp::runCluster(
            catalog,
            [&catalog] { return core::makeRainbowCake(catalog); },
            arrivals, config);
        std::ostringstream csv;
        exp::writeClusterSummaryCsv(csv, result);
        exp::writeClusterPerNodeCsv(csv, result);
        return csv.str();
    };
    EXPECT_EQ(runWith(true), runWith(false));
}

TEST(SeedRegression, GrayPlanNumbersArePinnedAtAnyShardCount)
{
    // The same 60-minute seed-4242 trace on an 8-node cluster, now
    // under an active gray plan: jittery heavy-tailed links, message
    // drops, degraded-node windows, scheduled partitions, hedged
    // dispatch, and latency quarantine all at once. The CSV must stay
    // byte-identical at shards = 1, 2, 8 and match the golden counts
    // exactly. Re-capture in the same commit when a change
    // intentionally moves them.
    const auto catalog = workload::Catalog::standard20();
    trace::WorkloadTraceConfig traceConfig;
    traceConfig.minutes = 60;
    traceConfig.targetInvocations = 5000;
    traceConfig.seed = 4242;
    const auto arrivals = trace::expandArrivals(
        trace::generateAzureLike(catalog, traceConfig));
    ASSERT_EQ(arrivals.size(), 842u);

    std::string golden;
    for (const std::size_t shards : {1u, 2u, 8u}) {
        exp::ClusterRunConfig config;
        config.nodes = 8;
        config.shards = shards;
        config.threads = shards == 1 ? 1 : 0; // 0: auto thread count
        config.node.pool.memoryBudgetMb = 8192.0;
        fault::NetworkPlan& net = config.node.fault.network;
        net.linkDelayMeanMs = 5.0;
        net.linkHeavyTailProb = 0.05;
        net.linkHeavyTailFactor = 40.0;
        net.msgDropProb = 0.02;
        net.degradedRatePerHour = 12.0;
        net.degradedDurationSeconds = 120.0;
        net.degradedExecSlowdown = 8.0;
        net.degradedInitSlowdown = 8.0;
        net.partitionRatePerHour = 4.0;
        net.partitionDurationSeconds = 20.0;
        net.hedgeEnabled = true;
        net.hedgeLatencyFactor = 1.0;
        net.hedgeMinSamples = 20;
        net.hedgeMinBudgetMs = 100.0;
        net.quarantineEnabled = true;
        net.quarantineMinSamples = 10;
        net.quarantineDrainSeconds = 30.0;
        net.quarantineProbeCount = 3;
        const auto result = exp::runCluster(
            catalog,
            [&catalog] { return core::makeRainbowCake(catalog); },
            arrivals, config);

        EXPECT_EQ(result.invocations, 842u) << shards;
        EXPECT_EQ(result.hedgesLaunched, 57u) << shards;
        EXPECT_EQ(result.hedgesWon, 28u) << shards;
        EXPECT_EQ(result.hedgesCancelled, 29u) << shards;
        EXPECT_EQ(result.hedgesLost, 0u) << shards;
        EXPECT_EQ(result.quarantines, 18u) << shards;
        EXPECT_EQ(result.partitions, 3u) << shards;
        EXPECT_EQ(result.msgsDelayed, 899u) << shards;
        EXPECT_EQ(result.msgsDropped, 15u) << shards;
        EXPECT_EQ(result.cancelledInvocations, 57u) << shards;
        EXPECT_EQ(result.quarantineViolations, 0u) << shards;
        EXPECT_EQ(result.hedgesLaunched,
                  result.hedgesWon + result.hedgesCancelled +
                      result.hedgesLost)
            << shards;
        EXPECT_EQ(result.admittedInvocations,
                  arrivals.size() + result.reroutedInvocations +
                      result.hedgesLaunched)
            << shards;

        std::ostringstream csv;
        exp::writeClusterSummaryCsv(csv, result);
        exp::writeClusterPerNodeCsv(csv, result);
        if (shards == 1)
            golden = csv.str();
        else
            EXPECT_EQ(csv.str(), golden) << shards << " shards";
    }
}

// ---- correlated-domain recovery regression ---------------------------

TEST(SeedRegression, ZeroKnobDomainPlanIsByteIdenticalToNoPlan)
{
    // A default-constructed DomainPlan must be indistinguishable from
    // no plan at all: active() stays false, no orchestrator is built,
    // no Rng stream is consumed, and the report CSV is byte-identical.
    // Pins the pay-for-what-you-use gate for the recovery subsystem.
    const auto catalog = workload::Catalog::standard20();
    trace::WorkloadTraceConfig traceConfig;
    traceConfig.minutes = 60;
    traceConfig.targetInvocations = 5000;
    traceConfig.seed = 4242;
    const auto arrivals = trace::expandArrivals(
        trace::generateAzureLike(catalog, traceConfig));

    const auto runWith = [&](bool assignDomain) {
        exp::ClusterRunConfig config;
        config.nodes = 8;
        config.shards = 2;
        config.node.pool.memoryBudgetMb = 8192.0;
        config.node.fault.nodeMtbfSeconds = 600.0;
        config.node.fault.nodeDowntimeSeconds = 30.0;
        config.node.fault.execCrashProb = 0.01;
        config.node.fault.maxRetries = 2;
        if (assignDomain)
            config.node.fault.domain = fault::DomainPlan{};
        const auto result = exp::runCluster(
            catalog,
            [&catalog] { return core::makeRainbowCake(catalog); },
            arrivals, config);
        std::ostringstream csv;
        exp::writeClusterSummaryCsv(csv, result);
        exp::writeClusterPerNodeCsv(csv, result);
        return csv.str();
    };
    EXPECT_EQ(runWith(true), runWith(false));
}

TEST(SeedRegression, DomainOutageNumbersArePinnedAtAnyShardCount)
{
    // The same 60-minute seed-4242 trace on an 8-node / 2-domain
    // cluster with a scripted correlated outage at 600 s and the full
    // recovery stack armed: staged rejoin, layer-census prewarm,
    // rolling upgrades, and client retry feedback. The CSV must stay
    // byte-identical at shards = 1, 2, 8 and match the golden counts
    // exactly. Re-capture in the same commit when a change
    // intentionally moves them.
    const auto catalog = workload::Catalog::standard20();
    trace::WorkloadTraceConfig traceConfig;
    traceConfig.minutes = 60;
    traceConfig.targetInvocations = 5000;
    traceConfig.seed = 4242;
    const auto arrivals = trace::expandArrivals(
        trace::generateAzureLike(catalog, traceConfig));
    ASSERT_EQ(arrivals.size(), 842u);

    std::string golden;
    for (const std::size_t shards : {1u, 2u, 8u}) {
        exp::ClusterRunConfig config;
        config.nodes = 8;
        config.shards = shards;
        config.threads = shards == 1 ? 1 : 0; // 0: auto thread count
        config.node.pool.memoryBudgetMb = 8192.0;
        fault::DomainPlan& plan = config.node.fault.domain;
        plan.domainCount = 2;
        plan.outages.push_back({600.0, 120.0, 0});
        plan.upgradeRatePerHour = 1.0;
        plan.upgradeDurationSeconds = 20.0;
        plan.upgradeStaggerSeconds = 10.0;
        plan.drainTimeoutSeconds = 30.0;
        plan.stagedRejoin = true;
        plan.rejoinTokensPerSecond = 0.5;
        plan.prewarmEnabled = true;
        plan.prewarmMaxLayers = 32;
        plan.warmupTimeoutSeconds = 15.0;
        plan.retryFeedbackEnabled = true;
        plan.retryBackoffSeconds = 2.0;
        plan.retryMaxAttempts = 2;
        const auto result = exp::runCluster(
            catalog,
            [&catalog] { return core::makeRainbowCake(catalog); },
            arrivals, config);

        EXPECT_EQ(result.domainOutages, 1u) << shards;
        EXPECT_EQ(result.outageNodeEpisodes, 4u) << shards;
        EXPECT_EQ(result.recoveredNodes,
                  result.outageNodeEpisodes + result.upgradeEpisodes)
            << shards;
        EXPECT_EQ(result.nodesDrained + result.nodesKilled,
                  result.upgradeEpisodes)
            << shards;
        EXPECT_EQ(result.prewarmLayers,
                  result.prewarmHit + result.prewarmEvicted +
                      result.prewarmWasted)
            << shards;
        EXPECT_EQ(result.admittedInvocations,
                  arrivals.size() + result.reroutedInvocations +
                      result.hedgesLaunched + result.retriesFeedback)
            << shards;

        std::ostringstream csv;
        exp::writeClusterSummaryCsv(csv, result);
        exp::writeClusterPerNodeCsv(csv, result);
        if (shards == 1)
            golden = csv.str();
        else
            EXPECT_EQ(csv.str(), golden) << shards << " shards";
    }
}

// ---- streaming-tier regression ---------------------------------------

TEST(SeedRegression, StreamingTierNumbersArePinnedAtAnyShardCount)
{
    // A miniature of the bench mega tier: a 64-node fleet fed by the
    // pull-based TraceSetArrivalSource (arrivals never materialized),
    // rare chaos crashes, phase timings enabled — so the delta
    // summary capture, active-shard skipping, and pre-binning paths
    // all run with real crash traffic. The CSV must stay
    // byte-identical at shards = 1, 2, 8, match the pinned counts,
    // and match a materialized expandArrivals run of the same trace.
    const auto catalog = workload::Catalog::standard20();
    trace::WorkloadTraceConfig traceConfig;
    traceConfig.minutes = 60;
    traceConfig.targetInvocations = 5000;
    traceConfig.seed = 4242;
    const auto traceSet =
        trace::generateAzureLike(catalog, traceConfig);

    const auto configure = [](std::size_t shards) {
        exp::ClusterRunConfig config;
        config.nodes = 64;
        config.shards = shards;
        config.threads = shards == 1 ? 1 : 0; // 0: auto thread count
        config.phaseTimings = true;
        config.node.pool.memoryBudgetMb = 4096.0;
        config.node.fault.nodeMtbfSeconds = 7200.0;
        config.node.fault.nodeDowntimeSeconds = 30.0;
        config.node.fault.maxRetries = 2;
        return config;
    };

    std::string golden;
    for (const std::size_t shards : {1u, 2u, 8u}) {
        trace::TraceSetArrivalSource source(traceSet);
        const auto result = exp::runCluster(
            catalog,
            [&catalog] { return core::makeRainbowCake(catalog); },
            source, configure(shards));

        EXPECT_EQ(result.invocations, 842u) << shards;
        EXPECT_EQ(result.coldStarts, 19u) << shards;
        EXPECT_EQ(result.nodeCrashes, 26u) << shards;
        EXPECT_EQ(result.engineEvents, 1958u) << shards;
        // Timings populate but never touch the pinned bytes.
        EXPECT_GT(result.coordinatorDrainNs, 0u) << shards;
        EXPECT_GT(result.parallelNs, 0u) << shards;

        std::ostringstream csv;
        exp::writeClusterSummaryCsv(csv, result);
        exp::writeClusterPerNodeCsv(csv, result);
        if (shards == 1)
            golden = csv.str();
        else
            EXPECT_EQ(csv.str(), golden) << shards << " shards";
    }

    // The materialized-vector overload yields the same bytes.
    const auto arrivals = trace::expandArrivals(traceSet);
    const auto result = exp::runCluster(
        catalog, [&catalog] { return core::makeRainbowCake(catalog); },
        arrivals, configure(2));
    std::ostringstream csv;
    exp::writeClusterSummaryCsv(csv, result);
    exp::writeClusterPerNodeCsv(csv, result);
    EXPECT_EQ(csv.str(), golden) << "materialized";
}

} // namespace
} // namespace rc
