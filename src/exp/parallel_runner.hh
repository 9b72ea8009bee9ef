/**
 * @file
 * Fixed thread-pool fan-out for independent experiment runs.
 *
 * Every figure of the evaluation replays a (policy x trace x config)
 * sweep where each run owns a fresh Engine + Node and shares only
 * immutable inputs (catalog, expanded arrivals). Runs are therefore
 * embarrassingly parallel, and because no state crosses run
 * boundaries the results are bit-identical whether a sweep executes
 * on one thread or many — only wall-clock changes. The runner is
 * deliberately work-stealing-free: workers pull the next job index
 * from a single atomic counter and write into a pre-sized results
 * vector, so output order is always submission order.
 */

#ifndef RC_EXP_PARALLEL_RUNNER_HH_
#define RC_EXP_PARALLEL_RUNNER_HH_

#include <cstddef>
#include <functional>
#include <vector>

#include "exp/experiment.hh"

namespace rc::exp {

/**
 * One experiment job; the pointed-to inputs must outlive run().
 *
 * Instrumented sweeps attach a *distinct* obs::Observer per spec via
 * config.observer — an Observer is single-run state (no atomics), so
 * sharing one across concurrently executing specs is undefined. The
 * runner stamps runId into the observer before the run so every
 * artifact the run produces carries the tag.
 */
struct RunSpec
{
    const workload::Catalog* catalog = nullptr;
    PolicyFactory make;
    const std::vector<trace::Arrival>* arrivals = nullptr;
    platform::NodeConfig config = {};
    /** Artifact tag for this run (e.g. a policy slug); may be empty. */
    std::string runId = {};
};

class ParallelRunner
{
  public:
    /**
     * @param threads  Worker count; 0 means defaultThreadCount().
     */
    explicit ParallelRunner(std::size_t threads = 0);

    std::size_t threadCount() const { return _threads; }

    /**
     * Run every spec and return the results in submission order.
     * Deterministic: identical output for any thread count. The first
     * exception thrown by a job is rethrown after all workers join.
     */
    std::vector<RunResult> run(const std::vector<RunSpec>& specs) const;

    /**
     * Invoke @p fn(i) for every i in [0, count) across the pool.
     * Generic escape hatch for jobs that need more than a RunSpec
     * (per-job timing, custom result types). @p fn must be safe to
     * call concurrently for distinct indices.
     */
    void forEach(std::size_t count,
                 const std::function<void(std::size_t)>& fn) const;

    /**
     * Worker count used when none is requested: the `RC_THREADS`
     * environment variable if set and positive, else
     * hardware_concurrency (at least 1).
     */
    static std::size_t defaultThreadCount();

  private:
    std::size_t _threads;
};

/** Build specs for one trace over a list of named policies. */
std::vector<RunSpec>
specsForPolicies(const workload::Catalog& catalog,
                 const std::vector<NamedPolicy>& policies,
                 const std::vector<trace::Arrival>& arrivals,
                 platform::NodeConfig config = {});

} // namespace rc::exp

#endif // RC_EXP_PARALLEL_RUNNER_HH_
