#include "exp/cluster_run.hh"

#include <ostream>

namespace rc::exp {

cluster::ClusterResult
runCluster(const workload::Catalog& catalog, const PolicyFactory& factory,
           trace::ArrivalSource& source, const ClusterRunConfig& config)
{
    cluster::ShardedCluster cluster(catalog, factory, config);
    return cluster.run(source);
}

cluster::ClusterResult
runCluster(const workload::Catalog& catalog, const PolicyFactory& factory,
           const std::vector<trace::Arrival>& arrivals,
           const ClusterRunConfig& config)
{
    trace::VectorArrivalSource source(arrivals);
    return runCluster(catalog, factory, source, config);
}

void
writeClusterSummaryCsv(std::ostream& out,
                       const cluster::ClusterResult& result)
{
    out << "scheduling,nodes,windows,invocations,cold,mean_startup_s,"
           "total_startup_s,waste_gbs,stranded,crashes,rerouted,failed,"
           "rejected,shed_deadline,shed_pressure,breaker_opens,admitted,"
           "engine_events,cancelled,hedges_launched,hedges_won,"
           "hedges_cancelled,hedges_lost,duplicates,wasted_exec_s,"
           "quarantines,probes,partitions,msgs_delayed,msgs_dropped,"
           "domain_outages,outage_episodes,upgrade_episodes,"
           "nodes_drained,nodes_killed,recovered_nodes,rejoin_wait_s,"
           "prewarm_layers,prewarm_hit,prewarm_evicted,prewarm_wasted,"
           "prewarm_wasted_mb,retries_feedback,time_to_goodput_s,"
           "recovery_p99_s,recovery_p999_s\n";
    out << result.schedulingName << ','
        << result.perNodeInvocations.size() << ',' << result.windows
        << ',' << result.invocations << ',' << result.coldStarts << ','
        << result.meanStartupSeconds << ','
        << result.totalStartupSeconds << ','
        << result.totalWasteMbSeconds / 1024.0 << ','
        << result.strandedInvocations << ',' << result.nodeCrashes << ','
        << result.reroutedInvocations << ',' << result.failedInvocations
        << ',' << result.rejectedInvocations << ','
        << result.shedDeadline << ',' << result.shedPressure << ','
        << result.breakerOpens << ',' << result.admittedInvocations
        << ',' << result.engineEvents << ','
        << result.cancelledInvocations << ',' << result.hedgesLaunched
        << ',' << result.hedgesWon << ',' << result.hedgesCancelled
        << ',' << result.hedgesLost << ',' << result.duplicateCompletions
        << ',' << result.wastedExecSeconds << ',' << result.quarantines
        << ',' << result.probes << ',' << result.partitions << ','
        << result.msgsDelayed << ',' << result.msgsDropped << ','
        << result.domainOutages << ',' << result.outageNodeEpisodes
        << ',' << result.upgradeEpisodes << ',' << result.nodesDrained
        << ',' << result.nodesKilled << ',' << result.recoveredNodes
        << ',' << result.rejoinWaitSeconds << ','
        << result.prewarmLayers << ',' << result.prewarmHit << ','
        << result.prewarmEvicted << ',' << result.prewarmWasted << ','
        << result.prewarmWastedMb << ',' << result.retriesFeedback
        << ',' << result.timeToGoodputSeconds << ','
        << result.recoveryP99Seconds << ','
        << result.recoveryP999Seconds << '\n';
}

void
writeClusterPerNodeCsv(std::ostream& out,
                       const cluster::ClusterResult& result)
{
    out << "node,invocations\n";
    for (std::size_t i = 0; i < result.perNodeInvocations.size(); ++i)
        out << i << ',' << result.perNodeInvocations[i] << '\n';
}

} // namespace rc::exp
