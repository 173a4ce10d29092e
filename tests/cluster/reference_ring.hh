/**
 * @file
 * Reference consistent-hash ring: the std::map model that
 * cluster::ConsistentHashRing replaced with sorted point arrays and
 * a bucket index.
 *
 * Each ring point is a map entry from hash point to owner index, a
 * lookup is map::lower_bound plus the wrap to begin(), and a removal
 * relabels the last node's points by walking the whole map -- the
 * obvious code, kept as the executable specification. The ring fuzz
 * test drives it and the production ring with identical add/remove
 * sequences and demands identical owners, orders and arc shares.
 *
 * Test-only; nothing under src/ includes it.
 */

#ifndef MERCURY_TESTS_CLUSTER_REFERENCE_RING_HH
#define MERCURY_TESTS_CLUSTER_REFERENCE_RING_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "kvstore/hash.hh"

namespace mercury::cluster
{

class ReferenceRing
{
  public:
    explicit ReferenceRing(unsigned virtual_nodes)
        : virtualNodes_(virtual_nodes)
    {}

    bool
    addNode(const std::string &name, unsigned rack)
    {
        if (std::find(nodes_.begin(), nodes_.end(), name) !=
            nodes_.end())
            return false;
        const std::size_t index = nodes_.size();
        nodes_.push_back(name);
        racks_.push_back(rack);
        for (unsigned v = 0; v < virtualNodes_; ++v)
            ring_[kvstore::hashKey(name, v + 1)] = index;
        return true;
    }

    bool
    removeNode(const std::string &name)
    {
        auto it = std::find(nodes_.begin(), nodes_.end(), name);
        if (it == nodes_.end())
            return false;
        const auto index = static_cast<std::size_t>(it - nodes_.begin());
        for (unsigned v = 0; v < virtualNodes_; ++v)
            ring_.erase(kvstore::hashKey(name, v + 1));
        const std::size_t last = nodes_.size() - 1;
        if (index != last) {
            nodes_[index] = std::move(nodes_[last]);
            racks_[index] = racks_[last];
            for (auto &[point, owner] : ring_) {
                if (owner == last)
                    owner = index;
            }
        }
        nodes_.pop_back();
        racks_.pop_back();
        return true;
    }

    std::size_t
    nodeIndexFor(std::string_view key) const
    {
        auto it = ring_.lower_bound(kvstore::hashKey(key));
        if (it == ring_.end())
            it = ring_.begin();
        return it->second;
    }

    const std::string &
    nodeFor(std::string_view key) const
    {
        return nodes_[nodeIndexFor(key)];
    }

    std::vector<std::string>
    nodesFor(std::string_view key, std::size_t count) const
    {
        std::vector<std::string> order;
        auto it = ring_.lower_bound(kvstore::hashKey(key));
        for (std::size_t steps = 0;
             steps < ring_.size() && order.size() < count; ++steps) {
            if (it == ring_.end())
                it = ring_.begin();
            const std::string &owner = nodes_[it->second];
            if (std::find(order.begin(), order.end(), owner) ==
                order.end())
                order.push_back(owner);
            ++it;
        }
        return order;
    }

    std::vector<std::string>
    replicasFor(std::string_view key, std::size_t count,
                bool distinct_racks) const
    {
        if (!distinct_racks)
            return nodesFor(key, count);
        std::vector<std::string> order = nodesFor(key, nodes_.size());
        if (order.size() <= count)
            return order;

        std::vector<std::string> picked;
        std::vector<bool> used(order.size(), false);
        std::vector<unsigned> racks_seen;
        picked.push_back(order[0]);
        used[0] = true;
        racks_seen.push_back(rackOf(order[0]));
        while (picked.size() < count) {
            std::size_t chosen = order.size();
            for (std::size_t i = 1; i < order.size(); ++i) {
                if (!used[i] &&
                    std::find(racks_seen.begin(), racks_seen.end(),
                              rackOf(order[i])) == racks_seen.end()) {
                    chosen = i;
                    break;
                }
            }
            if (chosen == order.size()) {
                for (std::size_t i = 1; i < order.size(); ++i) {
                    if (!used[i]) {
                        chosen = i;
                        break;
                    }
                }
            }
            if (chosen == order.size())
                break;
            used[chosen] = true;
            picked.push_back(order[chosen]);
            racks_seen.push_back(rackOf(order[chosen]));
        }
        return picked;
    }

    unsigned
    rackOf(const std::string &name) const
    {
        auto it = std::find(nodes_.begin(), nodes_.end(), name);
        if (it == nodes_.end())
            return 0;
        return racks_[static_cast<std::size_t>(it - nodes_.begin())];
    }

    std::map<std::string, double>
    arcShare() const
    {
        std::map<std::string, double> share;
        if (ring_.empty())
            return share;
        const double full = std::pow(2.0, 64.0);
        std::uint64_t prev = std::prev(ring_.end())->first;
        bool first = true;
        for (const auto &[point, owner] : ring_) {
            const std::uint64_t arc =
                first ? point + (~prev + 1) : point - prev;
            share[nodes_[owner]] += static_cast<double>(arc) / full;
            prev = point;
            first = false;
        }
        return share;
    }

    std::size_t numNodes() const { return nodes_.size(); }

    const std::vector<std::string> &nodes() const { return nodes_; }

  private:
    unsigned virtualNodes_;
    std::vector<std::string> nodes_;
    std::vector<unsigned> racks_;
    std::map<std::uint64_t, std::size_t> ring_;
};

} // namespace mercury::cluster

#endif // MERCURY_TESTS_CLUSTER_REFERENCE_RING_HH
