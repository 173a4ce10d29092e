/**
 * @file
 * Tests for the cluster-layer fault model: crash/restart semantics,
 * removal bookkeeping, client retry/failover, and whole-simulation
 * determinism under a fixed fault seed.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster_sim.hh"
#include "cluster/distributed_cache.hh"

namespace
{

using namespace mercury;
using namespace mercury::cluster;

kvstore::StoreParams
nodeParams()
{
    kvstore::StoreParams p;
    p.memLimit = 4 * miB;
    return p;
}

// --- Ring failover order --------------------------------------------

TEST(ConsistentHashRing, NodesForStartsAtOwnerAndIsDistinct)
{
    ConsistentHashRing ring;
    for (int i = 0; i < 8; ++i)
        ring.addNode("node" + std::to_string(i));

    for (int i = 0; i < 200; ++i) {
        const std::string key = "k" + std::to_string(i);
        const auto order = ring.nodesFor(key, 3);
        ASSERT_EQ(order.size(), 3u);
        EXPECT_EQ(order[0], ring.nodeFor(key));
        // The index form names the same owner (nodes were added in
        // index order).
        EXPECT_EQ("node" + std::to_string(ring.nodeIndexFor(key)),
                  ring.nodeFor(key));
        EXPECT_NE(order[0], order[1]);
        EXPECT_NE(order[1], order[2]);
        EXPECT_NE(order[0], order[2]);
    }
}

TEST(ConsistentHashRing, NodesForCapsAtClusterSize)
{
    ConsistentHashRing ring;
    ring.addNode("a");
    ring.addNode("b");
    const auto order = ring.nodesFor("key", 10);
    EXPECT_EQ(order.size(), 2u);
}

TEST(ConsistentHashRing, RemapFractionNearOneOverN)
{
    // The consistent-hashing selling point: removing one of N nodes
    // remaps ~1/N of the keyspace. Property-checked over several N.
    for (unsigned n : {4u, 8u, 16u}) {
        ConsistentHashRing ring(100);
        for (unsigned i = 0; i < n; ++i)
            ring.addNode("node" + std::to_string(i));
        const double expected = 1.0 / n;
        const double got =
            ring.remapFractionOnRemoval("node1", 4000);
        EXPECT_GT(got, 0.4 * expected) << n;
        EXPECT_LT(got, 2.5 * expected) << n;
    }
}

// --- DistributedCache crash/restart ---------------------------------

TEST(DistributedCache, CrashMakesOwnedKeysUnavailable)
{
    DistributedCache cache(4, nodeParams());
    for (int i = 0; i < 400; ++i)
        cache.set("k" + std::to_string(i), "v");

    ASSERT_TRUE(cache.crashNode("node1"));
    EXPECT_FALSE(cache.isUp("node1"));
    EXPECT_TRUE(cache.isUp("node0"));
    // Crashing again or crashing garbage fails.
    EXPECT_FALSE(cache.crashNode("node1"));
    EXPECT_FALSE(cache.crashNode("nonesuch"));

    int hits = 0;
    for (int i = 0; i < 400; ++i)
        hits += cache.get("k" + std::to_string(i)).hit ? 1 : 0;
    // Its arc answers nothing; the other nodes are untouched.
    EXPECT_LT(hits, 400);
    EXPECT_GT(hits, 200);
    EXPECT_GT(cache.topologyStats().downOps, 0u);

    // Writes against the dead owner fail too.
    EXPECT_EQ(cache.numNodes(), 4u);
}

TEST(DistributedCache, RestartComesBackCold)
{
    DistributedCache cache(4, nodeParams());
    for (int i = 0; i < 400; ++i)
        cache.set("k" + std::to_string(i), "v");
    const std::size_t before = cache.storeOf("node2").itemCount();
    ASSERT_GT(before, 0u);

    ASSERT_TRUE(cache.crashNode("node2"));
    EXPECT_FALSE(cache.restartNode("node0"));  // not down
    ASSERT_TRUE(cache.restartNode("node2"));
    EXPECT_TRUE(cache.isUp("node2"));

    // The restarted process lost its store; clients can re-fill.
    EXPECT_EQ(cache.storeOf("node2").itemCount(), 0u);
    int refilled = 0;
    for (int i = 0; i < 400; ++i) {
        const std::string key = "k" + std::to_string(i);
        if (!cache.get(key).hit &&
            cache.set(key, "v") == kvstore::StoreStatus::Stored) {
            ++refilled;
        }
    }
    EXPECT_GT(refilled, 0);
    EXPECT_EQ(cache.storeOf("node2").itemCount(),
              static_cast<std::size_t>(refilled));
}

TEST(DistributedCache, RemoveNodeRecordsLossAndRemapFraction)
{
    DistributedCache cache(8, nodeParams());
    for (int i = 0; i < 2000; ++i)
        cache.set("k" + std::to_string(i), "v");
    const std::size_t doomed = cache.storeOf("node3").itemCount();

    ASSERT_TRUE(cache.removeNode("node3"));
    const TopologyStats &stats = cache.topologyStats();
    EXPECT_EQ(stats.removedNodes, 1u);
    EXPECT_EQ(stats.lostItems, doomed);
    // Consistent hashing: ~1/8 of the arcs move.
    EXPECT_GT(stats.lastRemapFraction, 0.4 / 8);
    EXPECT_LT(stats.lastRemapFraction, 2.5 / 8);
}

// --- ClusterSim under faults ----------------------------------------

ClusterSimParams
faultyCluster(double loss, double crashes_per_sec)
{
    ClusterSimParams p;
    p.node.core = cpu::cortexA7Params();
    p.node.withL2 = false;
    p.node.storeMemLimit = 32 * miB;
    p.nodes = 4;
    p.numKeys = 800;
    p.zipfTheta = 0.9;
    p.requests = 500;
    p.warmup = 50;

    p.faults.enabled = true;
    p.faults.packetLossProbability = loss;
    p.faults.nodeCrashesPerSecond = crashes_per_sec;
    p.faults.nodeDowntime = 3 * tickMs;
    p.faults.requestTimeout = 500 * tickUs;
    p.faults.maxRetries = 2;
    p.faults.backoffBase = 100 * tickUs;
    p.faults.seed = 0xfa17;
    return p;
}

TEST(ClusterSimFaults, SameSeedReproducesEverything)
{
    const ClusterSimParams params = faultyCluster(0.02, 300.0);
    ClusterSim a(params), b(params);
    const double offered = 0.3 * a.aggregateCapacity();
    const ClusterSimResult ra = a.run(offered);
    const ClusterSimResult rb = b.run(offered);

    EXPECT_EQ(ra.faultTimelineDigest, rb.faultTimelineDigest);
    EXPECT_EQ(ra.crashes, rb.crashes);
    EXPECT_EQ(ra.restarts, rb.restarts);
    EXPECT_EQ(ra.timeouts, rb.timeouts);
    EXPECT_EQ(ra.attemptTimeouts, rb.attemptTimeouts);
    EXPECT_EQ(ra.retries, rb.retries);
    EXPECT_EQ(ra.failedRequests, rb.failedRequests);
    EXPECT_EQ(ra.shed, rb.shed);
    EXPECT_EQ(ra.ok, rb.ok);
    EXPECT_EQ(ra.netDrops, rb.netDrops);
    EXPECT_EQ(ra.netRetransmits, rb.netRetransmits);
    EXPECT_EQ(ra.availability, rb.availability);
    EXPECT_EQ(ra.avgLatencyUs, rb.avgLatencyUs);
    EXPECT_EQ(ra.p99LatencyUs, rb.p99LatencyUs);
    EXPECT_EQ(ra.p999LatencyUs, rb.p999LatencyUs);
    EXPECT_EQ(ra.hitRate, rb.hitRate);
    EXPECT_EQ(ra.postRestartHitRate, rb.postRestartHitRate);

    // The timelines really are populated (faults fired).
    EXPECT_GT(a.injector().faultCount(), 0u);
}

TEST(ClusterSimFaults, ZeroRatesBehaveLikeACleanRun)
{
    ClusterSim sim(faultyCluster(0.0, 0.0));
    const ClusterSimResult r = sim.run(0.3 * sim.aggregateCapacity());
    EXPECT_EQ(r.availability, 1.0);
    EXPECT_EQ(r.ok, r.requests);
    EXPECT_EQ(r.timeouts, 0u);
    EXPECT_EQ(r.attemptTimeouts, 0u);
    EXPECT_EQ(r.retries, 0u);
    EXPECT_EQ(r.failedRequests, 0u);
    EXPECT_EQ(r.shed, 0u);
    EXPECT_EQ(r.crashes, 0u);
    EXPECT_EQ(r.netDrops, 0u);
    EXPECT_EQ(sim.injector().faultCount(), 0u);
}

TEST(ClusterSimFaults, QuietFaultModeMatchesFaultsOff)
{
    // Fault mode with nothing injected walks the same client path as
    // a fault-off run, so every modeled outcome agrees exactly; only
    // the fault-mode diagnostic maxOutstanding differs.
    ClusterSimParams off_params = faultyCluster(0.0, 0.0);
    off_params.faults.enabled = false;
    ClusterSim quiet(faultyCluster(0.0, 0.0));
    ClusterSim off(off_params);
    const double offered = 0.3 * quiet.aggregateCapacity();
    const ClusterSimResult rq = quiet.run(offered);
    const ClusterSimResult ro = off.run(offered);

    EXPECT_EQ(rq.avgLatencyUs, ro.avgLatencyUs);
    EXPECT_EQ(rq.p99LatencyUs, ro.p99LatencyUs);
    EXPECT_EQ(rq.p999LatencyUs, ro.p999LatencyUs);
    EXPECT_EQ(rq.subMsFraction, ro.subMsFraction);
    EXPECT_EQ(rq.hottestNodeShare, ro.hottestNodeShare);
    EXPECT_EQ(rq.hotNodeTailAmplification,
              ro.hotNodeTailAmplification);
    EXPECT_EQ(rq.hitRate, ro.hitRate);
    EXPECT_EQ(rq.ok, ro.ok);
    EXPECT_EQ(rq.requests, ro.requests);
    EXPECT_GT(rq.maxOutstanding, 0u);
    EXPECT_EQ(ro.maxOutstanding, 0u);
}

TEST(ClusterSimFaults, PacketLossRaisesTailAndRetransmits)
{
    ClusterSim clean(faultyCluster(0.0, 0.0));
    ClusterSim lossy(faultyCluster(0.05, 0.0));
    const double offered = 0.3 * clean.aggregateCapacity();
    const ClusterSimResult rc = clean.run(offered);
    const ClusterSimResult rl = lossy.run(offered);

    EXPECT_GT(rl.netRetransmits, 0u);
    EXPECT_GT(rl.p99LatencyUs, rc.p99LatencyUs);
    EXPECT_GE(rl.p999LatencyUs, rl.p99LatencyUs);
}

TEST(ClusterSimFaults, CrashesCostTimeoutsAndHitRate)
{
    ClusterSim sim(faultyCluster(0.0, 400.0));
    const ClusterSimResult r = sim.run(0.3 * sim.aggregateCapacity());
    EXPECT_GT(r.crashes, 0u);
    EXPECT_GT(r.attemptTimeouts, 0u);
    // Cold restarts and failovers lose cached keys.
    EXPECT_LT(r.hitRate, 1.0);
    EXPECT_LE(r.availability, 1.0);
}

TEST(ClusterSimFaults, ScheduledCrashPlanFires)
{
    ClusterSimParams params = faultyCluster(0.0, 0.0);
    params.warmup = 0;  // the whole downtime window is measured
    ClusterSim sim(params);
    // Due before the first arrival: the victim dies immediately and
    // restarts after the configured downtime.
    sim.injector().schedule(1, fault::FaultKind::NodeCrash, "node0");
    const ClusterSimResult r = sim.run(0.3 * sim.aggregateCapacity());
    EXPECT_EQ(r.crashes, 1u);
    EXPECT_GE(r.restarts, 1u);
    EXPECT_GT(r.attemptTimeouts, 0u);
    bool saw_crash = false;
    for (const auto &record : sim.injector().timeline()) {
        if (record.kind == fault::FaultKind::NodeCrash &&
            record.target == "node0") {
            saw_crash = true;
        }
    }
    EXPECT_TRUE(saw_crash);
}

} // anonymous namespace
