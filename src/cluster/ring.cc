#include "cluster/ring.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "kvstore/hash.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace mercury::cluster
{

ConsistentHashRing::ConsistentHashRing(unsigned virtual_nodes)
    : virtualNodes_(virtual_nodes)
{
    mercury_assert(virtualNodes_ >= 1,
                   "need at least one virtual node per node");
}

bool
ConsistentHashRing::addNode(const std::string &name, unsigned rack)
{
    if (std::find(nodes_.begin(), nodes_.end(), name) != nodes_.end())
        return false;

    const auto index = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(name);
    racks_.push_back(rack);

    // Merge the node's points into the sorted ring in one pass. A
    // point equal to one already present takes the new owner, as a
    // map assignment would: the stable merge puts the new point
    // last among its equals and the dedupe keeps the last.
    using Point = std::pair<std::uint64_t, std::uint32_t>;
    std::vector<Point> merged;
    merged.reserve(points_.size() + virtualNodes_);
    for (std::size_t i = 0; i < points_.size(); ++i)
        merged.emplace_back(points_[i], owners_[i]);
    const auto first_new = static_cast<std::ptrdiff_t>(merged.size());
    for (unsigned v = 0; v < virtualNodes_; ++v)
        merged.emplace_back(kvstore::hashKey(name, v + 1), index);
    auto by_point = [](const Point &a, const Point &b) {
        return a.first < b.first;
    };
    // The new points share one owner, so their own order among
    // equals does not matter.
    std::sort(merged.begin() + first_new, merged.end(), by_point);
    std::inplace_merge(merged.begin(), merged.begin() + first_new,
                       merged.end(), by_point);

    points_.clear();
    owners_.clear();
    for (std::size_t i = 0; i < merged.size(); ++i) {
        if (i + 1 < merged.size() &&
            merged[i + 1].first == merged[i].first)
            continue;  // a later equal point wins
        points_.push_back(merged[i].first);
        owners_.push_back(merged[i].second);
    }
    rebuildBuckets();
    return true;
}

bool
ConsistentHashRing::removeNode(const std::string &name)
{
    auto it = std::find(nodes_.begin(), nodes_.end(), name);
    if (it == nodes_.end())
        return false;
    const auto index =
        static_cast<std::uint32_t>(it - nodes_.begin());

    // Erase the node's points whatever their owner now is (a
    // colliding point may have passed to a later node).
    std::vector<std::uint64_t> gone;
    gone.reserve(virtualNodes_);
    for (unsigned v = 0; v < virtualNodes_; ++v)
        gone.push_back(kvstore::hashKey(name, v + 1));
    std::sort(gone.begin(), gone.end());

    // Keep indices of the other nodes stable: swap the last node's
    // points onto the vacated slot.
    const auto last = static_cast<std::uint32_t>(nodes_.size() - 1);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < points_.size(); ++i) {
        if (std::binary_search(gone.begin(), gone.end(), points_[i]))
            continue;
        points_[kept] = points_[i];
        owners_[kept] = owners_[i] == last ? index : owners_[i];
        ++kept;
    }
    points_.resize(kept);
    owners_.resize(kept);
    if (index != last) {
        nodes_[index] = std::move(nodes_[last]);
        racks_[index] = racks_[last];
    }
    nodes_.pop_back();
    racks_.pop_back();
    rebuildBuckets();
    return true;
}

void
ConsistentHashRing::rebuildBuckets()
{
    buckets_.clear();
    if (points_.empty())
        return;
    const auto bits = static_cast<unsigned>(std::bit_width(points_.size()));
    bucketShift_ = 64 - bits;
    buckets_.resize(std::size_t{1} << bits);
    std::size_t i = 0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
        const std::uint64_t start = static_cast<std::uint64_t>(b)
                                   << bucketShift_;
        while (i < points_.size() && points_[i] < start)
            ++i;
        buckets_[b] = static_cast<std::uint32_t>(i);
    }
}

const std::string &
ConsistentHashRing::nodeFor(std::string_view key) const
{
    return nodes_[nodeIndexFor(key)];
}

std::size_t
ConsistentHashRing::nodeIndexFor(std::string_view key) const
{
    mercury_assert(!points_.empty(), "ring has no nodes");
    return owners_[pointIndexFor(kvstore::hashKey(key))];
}

void
ConsistentHashRing::nodeIndicesFor(std::string_view key,
                                   std::size_t count,
                                   bool distinct_racks,
                                   std::vector<std::size_t> &out) const
{
    mercury_assert(!points_.empty(), "ring has no nodes");
    // Rack spreading picks from the full distinct-owner ring order.
    const std::size_t wanted = distinct_racks ? nodes_.size() : count;
    out.clear();

    // Walk the circle once, collecting each distinct owner in the
    // order its next virtual point appears.
    std::size_t i = pointIndexFor(kvstore::hashKey(key));
    for (std::size_t steps = 0;
         steps < points_.size() && out.size() < wanted; ++steps) {
        const std::size_t owner = owners_[i];
        if (std::find(out.begin(), out.end(), owner) == out.end())
            out.push_back(owner);
        if (++i == points_.size())
            i = 0;
    }
    if (!distinct_racks || out.size() <= count)
        return;

    // Greedy rack spreading: keep the primary, prefer successors
    // from unused racks, and fall back to plain ring order once
    // every rack is represented.
    std::vector<std::size_t> picked;
    std::vector<bool> used(out.size(), false);
    std::vector<unsigned> racks_seen;
    picked.reserve(count);
    picked.push_back(out[0]);
    used[0] = true;
    racks_seen.push_back(racks_[out[0]]);

    while (picked.size() < count) {
        std::size_t chosen = out.size();
        for (std::size_t k = 1; k < out.size(); ++k) {
            if (used[k])
                continue;
            if (std::find(racks_seen.begin(), racks_seen.end(),
                          racks_[out[k]]) == racks_seen.end()) {
                chosen = k;
                break;
            }
        }
        if (chosen == out.size()) {
            for (std::size_t k = 1; k < out.size(); ++k) {
                if (!used[k]) {
                    chosen = k;
                    break;
                }
            }
        }
        if (chosen == out.size())
            break;
        used[chosen] = true;
        picked.push_back(out[chosen]);
        racks_seen.push_back(racks_[out[chosen]]);
    }
    out.swap(picked);
}

std::vector<std::string>
ConsistentHashRing::nodesFor(std::string_view key,
                             std::size_t count) const
{
    return replicasFor(key, count, false);
}

std::vector<std::string>
ConsistentHashRing::replicasFor(std::string_view key,
                                std::size_t count,
                                bool distinct_racks) const
{
    std::vector<std::size_t> indices;
    nodeIndicesFor(key, count, distinct_racks, indices);
    std::vector<std::string> names;
    names.reserve(indices.size());
    for (const std::size_t index : indices)
        names.push_back(nodes_[index]);
    return names;
}

unsigned
ConsistentHashRing::rackOf(const std::string &name) const
{
    auto it = std::find(nodes_.begin(), nodes_.end(), name);
    if (it == nodes_.end())
        return 0;
    return racks_[static_cast<std::size_t>(it - nodes_.begin())];
}

std::map<std::string, double>
ConsistentHashRing::arcShare() const
{
    std::map<std::string, double> share;
    if (points_.empty())
        return share;

    const double full = std::pow(2.0, 64.0);
    std::uint64_t prev = points_.back();
    for (std::size_t i = 0; i < points_.size(); ++i) {
        // Arc from the previous point (exclusive) to this point
        // belongs to this point's owner.
        const std::uint64_t point = points_[i];
        const std::uint64_t arc =
            i == 0 ? point + (~prev + 1) : point - prev;
        share[nodes_[owners_[i]]] += static_cast<double>(arc) / full;
        prev = point;
    }
    return share;
}

LoadStats
ConsistentHashRing::sampleLoad(std::size_t samples,
                               std::uint64_t seed) const
{
    mercury_assert(!nodes_.empty(), "ring has no nodes");
    Rng rng(seed);
    std::map<std::string, std::size_t> counts;
    for (const auto &node : nodes_)
        counts[node] = 0;

    for (std::size_t i = 0; i < samples; ++i) {
        const std::string key = "k" + std::to_string(rng.next());
        ++counts[nodeFor(key)];
    }

    LoadStats stats;
    stats.mean = static_cast<double>(samples) /
                 static_cast<double>(nodes_.size());
    stats.min = static_cast<double>(samples);
    double variance = 0.0;
    for (const auto &[node, count] : counts) {
        const auto c = static_cast<double>(count);
        stats.max = std::max(stats.max, c);
        stats.min = std::min(stats.min, c);
        variance += (c - stats.mean) * (c - stats.mean);
    }
    variance /= static_cast<double>(nodes_.size());
    stats.imbalance = stats.mean > 0.0 ? stats.max / stats.mean : 0.0;
    stats.cv = stats.mean > 0.0 ? std::sqrt(variance) / stats.mean
                                : 0.0;
    return stats;
}

double
ConsistentHashRing::remapFractionOnRemoval(const std::string &node,
                                           std::size_t samples,
                                           std::uint64_t seed) const
{
    ConsistentHashRing without(virtualNodes_);
    for (const auto &name : nodes_) {
        if (name != node)
            without.addNode(name);
    }
    mercury_assert(without.numNodes() + 1 == numNodes(),
                   "node to remove must be on the ring");

    Rng rng(seed);
    std::size_t moved = 0;
    for (std::size_t i = 0; i < samples; ++i) {
        const std::string key = "k" + std::to_string(rng.next());
        if (nodeFor(key) != without.nodeFor(key))
            ++moved;
    }
    return static_cast<double>(moved) /
           static_cast<double>(samples);
}

} // namespace mercury::cluster
