/**
 * @file
 * Consistent-hash ring with virtual nodes (Sec. 3.8).
 *
 * Keys map onto a point on a circle; each node owns the arcs ending
 * at its (virtual) points. More physical nodes -- the Mercury and
 * Iridium argument -- or more virtual nodes per physical node shrink
 * the arcs and flatten the load distribution, reducing resource
 * contention in the DHT.
 */

#ifndef MERCURY_CLUSTER_RING_HH
#define MERCURY_CLUSTER_RING_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace mercury::cluster
{

/** Load summary over the ring's nodes. */
struct LoadStats
{
    double mean = 0.0;
    double max = 0.0;
    double min = 0.0;
    /** max / mean; 1.0 is a perfectly even split. */
    double imbalance = 0.0;
    /** Coefficient of variation across nodes. */
    double cv = 0.0;
};

class ConsistentHashRing
{
  public:
    /** @param virtual_nodes ring points per physical node */
    explicit ConsistentHashRing(unsigned virtual_nodes = 40);

    /** Add a node. @return false if the name already exists.
     * @param rack failure-domain label (rack-aware replica
     * placement); nodes default to rack 0. */
    bool addNode(const std::string &name, unsigned rack = 0);

    /** Remove a node and its ring points. @return false if absent. */
    bool removeNode(const std::string &name);

    /** Node responsible for a key.
     * @pre at least one node present. */
    const std::string &nodeFor(std::string_view key) const;

    /** Index form of nodeFor(): the owner's position in insertion
     * order (stable while no node is removed). Skips the name
     * lookup a caller holding per-node state by index would pay.
     * @pre at least one node present. */
    std::size_t nodeIndexFor(std::string_view key) const;

    /**
     * Up to @p count distinct nodes in ring order starting at the
     * key's owner -- the failover order a memcached client walks
     * when the primary does not answer.
     * @pre at least one node present.
     */
    std::vector<std::string> nodesFor(std::string_view key,
                                      std::size_t count) const;

    /**
     * Replica set for a key: the first @p count distinct nodes in
     * ring order, optionally spread across failure domains. With
     * @p distinct_racks, after the primary each successive replica
     * prefers the next ring successor whose rack has not been used
     * yet (falling back to plain ring order once every rack is
     * represented), so a rack-correlated crash cannot take out a
     * whole replica set while other racks hold spares.
     * @pre at least one node present.
     */
    std::vector<std::string> replicasFor(std::string_view key,
                                         std::size_t count,
                                         bool distinct_racks) const;

    /** Rack label of a node; 0 for unknown names. */
    unsigned rackOf(const std::string &name) const;

    std::size_t numNodes() const { return nodes_.size(); }

    unsigned virtualNodes() const { return virtualNodes_; }

    /** Fraction of the ring owned by each node. */
    std::map<std::string, double> arcShare() const;

    /** Distribute @p samples uniform-random keys and summarize the
     * per-node request counts. */
    LoadStats sampleLoad(std::size_t samples,
                         std::uint64_t seed = 1) const;

    /** Keys (of @p samples drawn) that change owner if @p node is
     * removed -- the consistent-hashing selling point. */
    double remapFractionOnRemoval(const std::string &node,
                                  std::size_t samples,
                                  std::uint64_t seed = 2) const;

  private:
    unsigned virtualNodes_;
    std::vector<std::string> nodes_;
    /** Rack label per node, parallel to nodes_. */
    std::vector<unsigned> racks_;
    /** hash point -> node index. */
    std::map<std::uint64_t, std::size_t> ring_;
};

} // namespace mercury::cluster

#endif // MERCURY_CLUSTER_RING_HH
