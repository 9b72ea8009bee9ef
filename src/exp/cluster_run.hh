/**
 * @file
 * Cluster-mode experiment harness: one entry point onto the sharded
 * cluster core, plus the CSV writers the determinism suite diffs
 * byte-for-byte.
 */

#ifndef RC_EXP_CLUSTER_RUN_HH_
#define RC_EXP_CLUSTER_RUN_HH_

#include <iosfwd>

#include "cluster/sharded_cluster.hh"
#include "exp/experiment.hh"

namespace rc::exp {

/** A cluster run is configured by the cluster core's own config. */
using ClusterRunConfig = cluster::ClusterConfig;

/**
 * Run @p factory's policy over arrivals pulled from @p source on a
 * cluster. Arrival memory stays O(window) regardless of trace length
 * (per-invocation metrics still grow with it).
 */
cluster::ClusterResult
runCluster(const workload::Catalog& catalog, const PolicyFactory& factory,
           trace::ArrivalSource& source, const ClusterRunConfig& config);

/**
 * Materialized variant: replays @p arrivals through a
 * trace::VectorArrivalSource, so results are bit-identical to the
 * streaming overload for the same arrival sequence.
 */
cluster::ClusterResult
runCluster(const workload::Catalog& catalog, const PolicyFactory& factory,
           const std::vector<trace::Arrival>& arrivals,
           const ClusterRunConfig& config);

/**
 * One header + one row, every ClusterResult aggregate:
 * scheduling,nodes,windows,invocations,cold,mean_startup_s,
 * total_startup_s,waste_gbs,stranded,crashes,rerouted,failed,
 * rejected,shed_deadline,shed_pressure,breaker_opens,admitted,
 * engine_events,cancelled,hedges_launched,hedges_won,
 * hedges_cancelled,hedges_lost,duplicates,wasted_exec_s,quarantines,
 * probes,partitions,msgs_delayed,msgs_dropped,domain_outages,
 * outage_episodes,upgrade_episodes,nodes_drained,nodes_killed,
 * recovered_nodes,rejoin_wait_s,prewarm_layers,prewarm_hit,
 * prewarm_evicted,prewarm_wasted,prewarm_wasted_mb,retries_feedback,
 * time_to_goodput_s,recovery_p99_s,recovery_p999_s
 *
 * All sums are accumulated in node order regardless of shard count,
 * so the bytes written here are the determinism pin.
 */
void writeClusterSummaryCsv(std::ostream& out,
                            const cluster::ClusterResult& result);

/** One row per node: node,invocations (load-balance view). */
void writeClusterPerNodeCsv(std::ostream& out,
                            const cluster::ClusterResult& result);

} // namespace rc::exp

#endif // RC_EXP_CLUSTER_RUN_HH_
