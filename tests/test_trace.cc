/**
 * @file
 * Unit tests for trace synthesis and replay: bucket semantics, the
 * §7.2 expansion rules, pattern generators, and CV-targeted sampling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "stats/accumulator.hh"
#include "trace/generator.hh"
#include "trace/replay.hh"
#include "trace/sampler.hh"
#include "trace/trace_set.hh"
#include "workload/catalog.hh"

namespace rc::trace {
namespace {

using rc::sim::kMinute;
using rc::sim::kSecond;

TEST(TraceSet, PadsAndTruncatesToHorizon)
{
    TraceSet set(5);
    FunctionTrace t;
    t.function = 0;
    t.perMinute = {1, 2}; // shorter than horizon
    set.add(t);
    FunctionTrace longTrace;
    longTrace.function = 1;
    longTrace.perMinute = {1, 1, 1, 1, 1, 1, 1, 1}; // longer
    set.add(longTrace);
    EXPECT_EQ(set.traces()[0].perMinute.size(), 5u);
    EXPECT_EQ(set.traces()[1].perMinute.size(), 5u);
    EXPECT_EQ(set.totalInvocations(), 3u + 5u);
    EXPECT_THROW(TraceSet(0), std::invalid_argument);
}

TEST(TraceSet, ArrivalsPerMinuteSumsFunctions)
{
    TraceSet set(3);
    FunctionTrace a{0, {1, 0, 2}};
    FunctionTrace b{1, {0, 3, 1}};
    set.add(a);
    set.add(b);
    const auto totals = set.arrivalsPerMinute();
    EXPECT_EQ(totals, (std::vector<std::uint64_t>{1, 3, 3}));
}

TEST(FunctionTrace, ActiveMinutesAndTotals)
{
    FunctionTrace t{7, {0, 4, 0, 1}};
    EXPECT_EQ(t.totalInvocations(), 5u);
    EXPECT_EQ(t.activeMinutes(), 2u);
}

TEST(Replay, SingleInvocationAtMinuteStart)
{
    TraceSet set(3);
    set.add(FunctionTrace{0, {0, 1, 0}});
    const auto arrivals = expandArrivals(set);
    ASSERT_EQ(arrivals.size(), 1u);
    EXPECT_EQ(arrivals[0].time, kMinute);
    EXPECT_EQ(arrivals[0].function, 0u);
}

TEST(Replay, MultipleInvocationsSpreadEvenly)
{
    TraceSet set(1);
    set.add(FunctionTrace{0, {4}});
    const auto arrivals = expandArrivals(set);
    ASSERT_EQ(arrivals.size(), 4u);
    EXPECT_EQ(arrivals[0].time, 0);
    EXPECT_EQ(arrivals[1].time, 15 * kSecond);
    EXPECT_EQ(arrivals[2].time, 30 * kSecond);
    EXPECT_EQ(arrivals[3].time, 45 * kSecond);
}

TEST(Replay, MergedStreamIsSorted)
{
    TraceSet set(3);
    set.add(FunctionTrace{0, {2, 0, 1}});
    set.add(FunctionTrace{1, {1, 3, 0}});
    const auto arrivals = expandArrivals(set);
    EXPECT_EQ(arrivals.size(), 7u);
    for (std::size_t i = 1; i < arrivals.size(); ++i)
        EXPECT_LE(arrivals[i - 1].time, arrivals[i].time);
}

TEST(Replay, PerMinuteSortEqualsOneGlobalSort)
{
    // expandArrivals sorts minute by minute; that must give exactly the
    // order of one global sort over the expanded stream, ties included.
    workload::Catalog catalog = workload::Catalog::standard20();
    WorkloadTraceConfig config;
    config.minutes = 90;
    config.targetInvocations = 20000;
    config.seed = 11;
    const TraceSet set = generateAzureLike(catalog, config);

    std::vector<Arrival> expected;
    for (const auto& trace : set.traces()) {
        for (std::size_t minute = 0; minute < trace.perMinute.size();
             ++minute) {
            const std::uint32_t count = trace.perMinute[minute];
            for (std::uint32_t i = 0; i < count; ++i) {
                expected.push_back(Arrival{
                    static_cast<sim::Tick>(minute) * sim::kMinute +
                        static_cast<sim::Tick>(i) *
                            (sim::kMinute / static_cast<sim::Tick>(count)),
                    trace.function});
            }
        }
    }
    std::sort(expected.begin(), expected.end());

    const auto arrivals = expandArrivals(set);
    ASSERT_EQ(arrivals.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(arrivals[i].time, expected[i].time) << "at " << i;
        ASSERT_EQ(arrivals[i].function, expected[i].function) << "at " << i;
    }
}

TEST(Replay, IatStatsOfRegularStream)
{
    TraceSet set(2);
    set.add(FunctionTrace{0, {6, 6}});
    const auto arrivals = expandArrivals(set);
    EXPECT_EQ(meanIat(arrivals), 10 * kSecond);
    EXPECT_NEAR(iatCv(arrivals), 0.0, 1e-9);
}

TEST(Replay, IatCvNeedsThreeArrivals)
{
    std::vector<Arrival> two{{0, 0}, {kSecond, 0}};
    EXPECT_DOUBLE_EQ(iatCv(two), 0.0);
    EXPECT_EQ(meanIat({}), 0);
}

// ---- Pattern generators ------------------------------------------------

TEST(Generator, SteadyRateMatchesMean)
{
    sim::Rng rng(3);
    PatternConfig pc;
    pc.pattern = Pattern::Steady;
    pc.ratePerMinute = 4.0;
    const auto t = generateFunctionTrace(0, 2000, pc, rng);
    const double mean =
        static_cast<double>(t.totalInvocations()) / 2000.0;
    EXPECT_NEAR(mean, 4.0, 0.25);
}

TEST(Generator, SteadyDeterministicCounts)
{
    sim::Rng rng(3);
    PatternConfig pc;
    pc.pattern = Pattern::Steady;
    pc.ratePerMinute = 3.0;
    pc.poissonCounts = false;
    const auto t = generateFunctionTrace(0, 50, pc, rng);
    for (const auto count : t.perMinute)
        EXPECT_EQ(count, 3u);
}

TEST(Generator, DiurnalOscillates)
{
    sim::Rng rng(3);
    PatternConfig pc;
    pc.pattern = Pattern::Diurnal;
    pc.ratePerMinute = 10.0;
    pc.diurnalAmplitude = 0.8;
    pc.poissonCounts = false;
    const auto t = generateFunctionTrace(0, 480, pc, rng);
    std::uint32_t lo = 1000, hi = 0;
    for (const auto count : t.perMinute) {
        lo = std::min(lo, count);
        hi = std::max(hi, count);
    }
    EXPECT_LT(lo, 6u);
    EXPECT_GT(hi, 14u);
}

TEST(Generator, PeriodicHasExactPeriod)
{
    sim::Rng rng(3);
    PatternConfig pc;
    pc.pattern = Pattern::Periodic;
    pc.periodMinutes = 10;
    const auto t = generateFunctionTrace(0, 100, pc, rng);
    EXPECT_EQ(t.totalInvocations(), 10u);
    // Active minutes must be exactly one period apart.
    int last = -1;
    for (std::size_t m = 0; m < t.perMinute.size(); ++m) {
        if (t.perMinute[m] == 0)
            continue;
        if (last >= 0) {
            EXPECT_EQ(static_cast<int>(m) - last, 10);
        }
        last = static_cast<int>(m);
    }
}

TEST(Generator, BurstyHasQuietAndActivePhases)
{
    sim::Rng rng(3);
    PatternConfig pc;
    pc.pattern = Pattern::Bursty;
    pc.ratePerMinute = 2.0;
    pc.burstStayOn = 0.6;
    pc.burstStayOff = 0.95;
    const auto t = generateFunctionTrace(0, 2000, pc, rng);
    EXPECT_GT(t.totalInvocations(), 0u);
    // Most minutes must be silent for an ON/OFF process.
    EXPECT_LT(t.activeMinutes(), 800u);
}

TEST(Generator, SparseRespectsMeanIat)
{
    sim::Rng rng(3);
    PatternConfig pc;
    pc.pattern = Pattern::Sparse;
    pc.sparseMeanIatMinutes = 10.0;
    pc.sparseIatCv = 0.3;
    const auto t = generateFunctionTrace(0, 2000, pc, rng);
    EXPECT_NEAR(static_cast<double>(t.totalInvocations()), 200.0, 30.0);
}

TEST(Generator, SpikyIsMostlySilent)
{
    sim::Rng rng(3);
    PatternConfig pc;
    pc.pattern = Pattern::Spiky;
    pc.spikeProbability = 0.01;
    pc.spikeMagnitude = 20.0;
    const auto t = generateFunctionTrace(0, 2000, pc, rng);
    EXPECT_LT(t.activeMinutes(), 60u);
    EXPECT_GT(t.totalInvocations(), 100u);
}

TEST(Generator, RejectsBadArguments)
{
    sim::Rng rng(3);
    PatternConfig pc;
    EXPECT_THROW(generateFunctionTrace(0, 0, pc, rng),
                 std::invalid_argument);
    pc.ratePerMinute = -1.0;
    EXPECT_THROW(generateFunctionTrace(0, 10, pc, rng),
                 std::invalid_argument);
}

TEST(Generator, AzureLikeCoversAllFunctions)
{
    const auto catalog = workload::Catalog::standard20();
    WorkloadTraceConfig config;
    config.minutes = 120;
    config.targetInvocations = 2000;
    const auto set = generateAzureLike(catalog, config);
    EXPECT_EQ(set.functionCount(), catalog.size());
    EXPECT_EQ(set.durationMinutes(), 120u);
    EXPECT_GT(set.totalInvocations(), 200u);
}

TEST(Generator, AzureLikeIsSeedDeterministic)
{
    const auto catalog = workload::Catalog::standard20();
    WorkloadTraceConfig config;
    config.minutes = 60;
    config.seed = 77;
    const auto a = generateAzureLike(catalog, config);
    const auto b = generateAzureLike(catalog, config);
    for (std::size_t i = 0; i < a.traces().size(); ++i)
        EXPECT_EQ(a.traces()[i].perMinute, b.traces()[i].perMinute);
    config.seed = 78;
    const auto c = generateAzureLike(catalog, config);
    EXPECT_NE(a.totalInvocations(), c.totalInvocations());
}

// ---- CV-targeted sampling ----------------------------------------------

TEST(Sampler, IatSampleMatchesMeanLowCv)
{
    sim::Rng rng(9);
    double total = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        total += sampleIatSeconds(2.0, 0.4, rng);
    EXPECT_NEAR(total / n, 2.0, 0.05);
}

TEST(Sampler, IatSampleMatchesMeanHighCv)
{
    sim::Rng rng(9);
    rc::stats::Accumulator acc;
    for (int i = 0; i < 200000; ++i)
        acc.add(sampleIatSeconds(2.0, 3.0, rng));
    EXPECT_NEAR(acc.mean(), 2.0, 0.1);
    EXPECT_NEAR(acc.cv(), 3.0, 0.3);
}

TEST(Sampler, IatSampleZeroCvIsConstant)
{
    sim::Rng rng(9);
    EXPECT_DOUBLE_EQ(sampleIatSeconds(5.0, 0.0, rng), 5.0);
    EXPECT_THROW(sampleIatSeconds(0.0, 1.0, rng), std::invalid_argument);
    EXPECT_THROW(sampleIatSeconds(1.0, -1.0, rng), std::invalid_argument);
}

TEST(Sampler, TraceSetHasExactInvocationCount)
{
    const auto catalog = workload::Catalog::standard20();
    CvSampleConfig config;
    config.minutes = 60;
    config.invocations = 3600;
    config.targetCv = 1.0;
    const auto set = sampleWithTargetCv(catalog, config);
    EXPECT_EQ(set.totalInvocations(), 3600u);
    EXPECT_EQ(set.durationMinutes(), 60u);
}

TEST(Sampler, AggregateBurstinessTracksTargetOrdering)
{
    const auto catalog = workload::Catalog::standard20();
    auto measure = [&catalog](double target) {
        CvSampleConfig config;
        config.targetCv = target;
        config.invocations = 3600;
        return perMinuteCountCv(sampleWithTargetCv(catalog, config));
    };
    const double low = measure(0.2);
    const double mid = measure(1.0);
    const double high = measure(4.0);
    // Per-function CV drives the aggregate per-minute burstiness of
    // Fig. 12(a): the ordering across target levels must survive.
    EXPECT_LT(low, mid);
    EXPECT_LT(mid, high);
}

} // namespace
} // namespace rc::trace
