/**
 * @file
 * Reference NIC GET cache: the std::list + std::map model that
 * net::NicGetCache replaced with a slot pool, intrusive recency
 * links and an open-addressed index.
 *
 * Recency order is a std::list of entries (front = most recent)
 * and the key index an ordered std::map of list iterators -- the
 * obvious code, kept as the executable specification. The cache
 * fuzz test drives it and the production cache with identical
 * operation streams and demands identical answers and counters.
 *
 * Test-only; nothing under src/ includes it.
 */

#ifndef MERCURY_TESTS_NET_REFERENCE_NIC_CACHE_HH
#define MERCURY_TESTS_NET_REFERENCE_NIC_CACHE_HH

#include <cstdint>
#include <iterator>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "net/datapath.hh"

namespace mercury::net
{

class ReferenceNicCache
{
  public:
    explicit ReferenceNicCache(const DatapathParams &params)
        : params_(params)
    {}

    std::optional<std::string_view>
    lookup(std::string_view key, std::uint64_t logical_clock)
    {
        const auto idx = index_.find(key);
        if (idx == index_.end()) {
            ++misses;
            return std::nullopt;
        }
        const LruList::iterator it = idx->second;
        if (it->expiry != 0 && it->expiry <= logical_clock) {
            ++invalidations;
            ++misses;
            erase(it);
            return std::nullopt;
        }
        lru_.splice(lru_.begin(), lru_, it);
        ++hits;
        return std::string_view(it->value);
    }

    void
    fill(std::string_view key, std::string_view value,
         std::uint64_t expiry)
    {
        if (value.size() > params_.nicCacheMaxValueBytes)
            return;
        const auto idx = index_.find(key);
        if (idx != index_.end()) {
            const LruList::iterator it = idx->second;
            it->value.assign(value);
            it->expiry = expiry;
            lru_.splice(lru_.begin(), lru_, it);
            ++fills;
            return;
        }
        lru_.push_front(
            Entry{std::string(key), std::string(value), expiry});
        index_.emplace(lru_.front().key, lru_.begin());
        ++fills;
        while (index_.size() > params_.nicCacheEntries) {
            ++evictions;
            erase(std::prev(lru_.end()));
        }
    }

    void
    invalidate(std::string_view key)
    {
        const auto idx = index_.find(key);
        if (idx == index_.end())
            return;
        ++invalidations;
        erase(idx->second);
    }

    void
    clear()
    {
        invalidations += index_.size();
        index_.clear();
        lru_.clear();
    }

    std::size_t size() const { return index_.size(); }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t fills = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;

  private:
    struct Entry
    {
        std::string key;
        std::string value;
        std::uint64_t expiry = 0;
    };

    using LruList = std::list<Entry>;

    void
    erase(LruList::iterator it)
    {
        index_.erase(it->key);
        lru_.erase(it);
    }

    DatapathParams params_;
    LruList lru_;
    std::map<std::string, LruList::iterator, std::less<>> index_;
};

} // namespace mercury::net

#endif // MERCURY_TESTS_NET_REFERENCE_NIC_CACHE_HH
