/**
 * @file
 * Synthetic Azure-like trace generation.
 *
 * The paper samples real Azure Functions traces; those files are not
 * available here, so we synthesize per-minute bucket traces with the
 * invocation-pattern mix the Azure characterization paper (Shahrad et
 * al.) reports: a few hot steady functions, diurnal services, bursty
 * on/off event handlers, cron-style periodic triggers, and rare
 * spiky functions. Every generator draws from a seeded Rng, so trace
 * sets are reproducible.
 */

#ifndef RC_TRACE_GENERATOR_HH_
#define RC_TRACE_GENERATOR_HH_

#include <cstddef>

#include "sim/rng.hh"
#include "trace/trace_set.hh"
#include "workload/catalog.hh"

namespace rc::trace {

/** Invocation pattern archetypes seen in the Azure workload. */
enum class Pattern
{
    Steady,   //!< near-constant Poisson rate
    Diurnal,  //!< sinusoidally modulated rate
    Bursty,   //!< ON/OFF Markov-modulated rate
    Periodic, //!< cron-like: one invocation every k minutes
    Spiky,    //!< mostly idle with rare large spikes
    Sparse,   //!< renewal process with lognormal IATs (minutes apart)
};

/** Knobs of per-function trace synthesis. */
struct PatternConfig
{
    Pattern pattern = Pattern::Steady;
    /** Mean invocations per minute while "active". */
    double ratePerMinute = 1.0;
    /** Diurnal: relative amplitude in [0,1]; period fixed to 240 min. */
    double diurnalAmplitude = 0.6;
    /** Bursty: probability of staying ON (per minute). */
    double burstStayOn = 0.7;
    /** Bursty: probability of staying OFF (per minute). */
    double burstStayOff = 0.9;
    /** Periodic: invoke every this many minutes. */
    std::size_t periodMinutes = 10;
    /** Spiky: per-minute spike probability. */
    double spikeProbability = 0.01;
    /** Spiky: mean invocations within a spike minute. */
    double spikeMagnitude = 40.0;
    /** Sparse: mean inter-arrival time in minutes. */
    double sparseMeanIatMinutes = 15.0;
    /** Sparse: IAT coefficient of variation (irregularity). */
    double sparseIatCv = 1.2;
    /**
     * Steady/Diurnal: whether per-minute counts are Poisson draws
     * (true) or deterministic rounded rates (false). Hot production
     * services aggregate to near-deterministic per-minute counts;
     * the Poisson noise of a low simulated rate would overstate
     * their burstiness.
     */
    bool poissonCounts = true;
};

/** Generate one function's minute trace with the given pattern. */
FunctionTrace generateFunctionTrace(workload::FunctionId function,
                                    std::size_t minutes,
                                    const PatternConfig& config,
                                    sim::Rng& rng);

/** Knobs of whole-workload synthesis. */
struct WorkloadTraceConfig
{
    std::size_t minutes = 480;
    /**
     * Volume knob, not a total: targetInvocations / minutes is split
     * by Zipf weight, but only the two warm-head functions take their
     * share as a rate. Every tail function's rate is fixed by its
     * archetype pattern, so the realized count is not the target
     * (Table 1 catalog, rainbow_sim's default seed, 120 minutes: a
     * target of 50,646 yields 12,901 invocations, 2,000 yields 687).
     */
    std::uint64_t targetInvocations = 25000;
    /**
     * Zipf skew of per-function popularity. The Azure workload's
     * per-function rates are closer to uniform-sparse than to a
     * heavy head once the platform-wide hottest functions are
     * excluded, so the default skew is mild.
     */
    double popularitySkew = 0.5;
    std::uint64_t seed = 42;
};

/**
 * Generate an Azure-like trace set for every function of @p catalog:
 * popularity ranks are Zipf-distributed and each function gets a
 * pattern archetype in round-robin over the archetype mix.
 */
TraceSet generateAzureLike(const workload::Catalog& catalog,
                           const WorkloadTraceConfig& config);

} // namespace rc::trace

#endif // RC_TRACE_GENERATOR_HH_
