/**
 * @file
 * Seeded fuzz of ConsistentHashRing against the std::map reference
 * ring: identical add/remove/re-add sequences must give identical
 * owners, failover and replica orders (rack spreading on and off)
 * and arc shares, at 1, 2 and 64 virtual nodes per node.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/ring.hh"
#include "reference_ring.hh"
#include "sim/random.hh"

namespace
{

using namespace mercury;
using namespace mercury::cluster;

class RingReferenceFuzz : public ::testing::TestWithParam<unsigned>
{};

/** @p prefix followed by @p n in decimal. (Appending, rather than
 * `prefix + std::to_string(n)`, sidesteps a gcc 12 -Wrestrict false
 * positive in optimized builds.) */
std::string
numbered(const char *prefix, std::uint64_t n)
{
    std::string s = prefix;
    s += std::to_string(n);
    return s;
}

/** Every query the ring answers, for a batch of random keys. */
void
expectSameAnswers(const ConsistentHashRing &ring,
                  const ReferenceRing &ref, Rng &rng, int step)
{
    ASSERT_EQ(ring.numNodes(), ref.numNodes()) << "step " << step;
    if (ref.numNodes() == 0)
        return;
    ASSERT_EQ(ring.arcShare(), ref.arcShare()) << "step " << step;

    std::vector<std::size_t> indices;
    for (int k = 0; k < 24; ++k) {
        const std::string key = numbered("k", rng.next());
        ASSERT_EQ(ring.nodeIndexFor(key), ref.nodeIndexFor(key))
            << "step " << step << " key " << key;
        ASSERT_EQ(ring.nodeFor(key), ref.nodeFor(key));

        const std::size_t count = 1 + rng.nextInt(ref.numNodes() + 1);
        ASSERT_EQ(ring.nodesFor(key, count), ref.nodesFor(key, count))
            << "step " << step << " count " << count;
        for (const bool racks : {false, true}) {
            const auto names = ref.replicasFor(key, count, racks);
            ASSERT_EQ(ring.replicasFor(key, count, racks), names)
                << "step " << step << " count " << count
                << " racks " << racks;
            ring.nodeIndicesFor(key, count, racks, indices);
            ASSERT_EQ(indices.size(), names.size());
            for (std::size_t i = 0; i < names.size(); ++i)
                ASSERT_EQ(ref.nodes()[indices[i]], names[i]);
        }
    }
}

TEST_P(RingReferenceFuzz, MatchesReferenceModel)
{
    const unsigned virtual_nodes = GetParam();
    ConsistentHashRing ring(virtual_nodes);
    ReferenceRing ref(virtual_nodes);
    Rng rng(virtual_nodes * 977 + 5);

    // A fixed name pool, so removed nodes come back (re-add) and
    // collide with live names (rejected add).
    constexpr unsigned pool = 24;
    unsigned removed_last = 0;
    unsigned removed_middle = 0;
    for (int step = 0; step < 400; ++step) {
        const std::uint64_t pick = rng.nextInt(100);
        if (pick < 55 || ref.numNodes() == 0) {
            const std::string name = numbered("n", rng.nextInt(pool));
            const auto rack = static_cast<unsigned>(rng.nextInt(4));
            ASSERT_EQ(ring.addNode(name, rack), ref.addNode(name, rack))
                << "add " << name;
        } else if (pick < 95) {
            // Remove by position: the last node (no relabel) or
            // any other (the last node's points take its index).
            const std::size_t at = rng.nextInt(ref.numNodes());
            const std::string name = ref.nodes()[at];
            removed_last += at + 1 == ref.numNodes();
            removed_middle += at + 1 < ref.numNodes();
            ASSERT_TRUE(ring.removeNode(name));
            ASSERT_TRUE(ref.removeNode(name));
        } else {
            const std::string name = numbered("absent", step);
            ASSERT_EQ(ring.removeNode(name), ref.removeNode(name));
        }
        expectSameAnswers(ring, ref, rng, step);
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(removed_last, 5u);
    EXPECT_GT(removed_middle, 20u);
}

INSTANTIATE_TEST_SUITE_P(VirtualNodes, RingReferenceFuzz,
                         ::testing::Values(1u, 2u, 64u));

} // anonymous namespace
