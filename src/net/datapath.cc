#include "net/datapath.hh"

#include <algorithm>
#include <bit>

#include "sim/contract.hh"

namespace mercury::net
{

std::uint64_t
flowHash(std::string_view key)
{
    // FNV-1a, the same construction the fault/timeline digests use.
    std::uint64_t h = 14695981039346656037ull;
    for (const char c : key) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

unsigned
rssQueueFor(std::uint64_t flow_hash, unsigned queues)
{
    MERCURY_EXPECTS(queues > 0, "RSS needs at least one queue");
    // Fold the high bits in so consecutive hashes spread even when
    // the queue count is a power of two.
    return static_cast<unsigned>((flow_hash ^ (flow_hash >> 32)) %
                                 queues);
}

NicGetCache::NicGetCache(const DatapathParams &params,
                         stats::StatGroup *parent,
                         const std::string &name)
    : params_(params),
      group_(name, parent),
      hits_(&group_, "hits", "GETs answered from the NIC cache"),
      misses_(&group_, "misses", "GET lookups that went to the core"),
      fills_(&group_, "fills", "entries inserted or refreshed"),
      evictions_(&group_, "evictions", "LRU evictions"),
      invalidations_(&group_, "invalidations",
                     "entries dropped by SET/DELETE or expiry"),
      hitRate_(&group_, "hitRate", "NIC-cache hit fraction",
               [this] {
                   const std::uint64_t total =
                       hits_.value() + misses_.value();
                   return total ? static_cast<double>(hits_.value()) /
                                      static_cast<double>(total)
                                : 0.0;
               })
{
    MERCURY_EXPECTS(params_.nicCacheEntries > 0,
                    "NicGetCache needs a non-zero capacity");
    MERCURY_EXPECTS(params_.nicCacheEntries < none,
                    "NicGetCache slot numbers are 32-bit");
    slots_.resize(std::size_t{params_.nicCacheEntries} + 1);
    index_.assign(std::bit_ceil(2 * slots_.size()), none);
    indexMask_ = index_.size() - 1;
    clear();
}

void
NicGetCache::unlink(std::uint32_t slot)
{
    Slot &s = slots_[slot];
    (s.prev == none ? mru_ : slots_[s.prev].next) = s.next;
    (s.next == none ? lru_ : slots_[s.next].prev) = s.prev;
}

void
NicGetCache::pushFront(std::uint32_t slot)
{
    Slot &s = slots_[slot];
    s.prev = none;
    s.next = mru_;
    (mru_ == none ? lru_ : slots_[mru_].prev) = slot;
    mru_ = slot;
}

std::size_t
NicGetCache::findCell(std::string_view key, std::uint64_t hash) const
{
    std::size_t cell = hash & indexMask_;
    for (;;) {
        const std::uint32_t slot = index_[cell];
        if (slot == none ||
            (slots_[slot].hash == hash && slots_[slot].key == key))
            return cell;
        cell = (cell + 1) & indexMask_;
    }
}

void
NicGetCache::erase(std::size_t cell)
{
    const std::uint32_t slot = index_[cell];
    unlink(slot);
    slots_[slot].next = freeHead_;
    freeHead_ = slot;
    --live_;
    ++free_;

    // Backward-shift deletion: pull each later entry of the probe
    // run into the hole unless that would move it before its home
    // cell.
    std::size_t hole = cell;
    for (std::size_t next = (hole + 1) & indexMask_;
         index_[next] != none; next = (next + 1) & indexMask_) {
        const std::size_t home = slots_[index_[next]].hash & indexMask_;
        if (((next - home) & indexMask_) >=
            ((next - hole) & indexMask_)) {
            index_[hole] = index_[next];
            hole = next;
        }
    }
    index_[hole] = none;
}

std::optional<std::string_view>
NicGetCache::lookup(std::string_view key, std::uint64_t logical_clock)
{
    const std::size_t cell = findCell(key, flowHash(key));
    const std::uint32_t slot = index_[cell];
    if (slot == none) {
        ++misses_;
        return std::nullopt;
    }
    if (slots_[slot].expiry != 0 &&
        slots_[slot].expiry <= logical_clock) {
        // The store's copy is gone; serving it would be stale.
        ++invalidations_;
        ++misses_;
        erase(cell);
        return std::nullopt;
    }
    if (slot != mru_) {
        unlink(slot);
        pushFront(slot);
    }
    ++hits_;
    return std::string_view(slots_[slot].value);
}

void
NicGetCache::fill(std::string_view key, std::string_view value,
                  std::uint64_t expiry)
{
    if (value.size() > params_.nicCacheMaxValueBytes)
        return;

    const std::uint64_t hash = flowHash(key);
    const std::size_t cell = findCell(key, hash);
    std::uint32_t slot = index_[cell];
    if (slot != none) {
        unlink(slot);
    } else {
        // The pool holds one slot beyond capacity, so a free slot
        // exists until the eviction below.
        slot = freeHead_;
        freeHead_ = slots_[slot].next;
        --free_;
        ++live_;
        slots_[slot].key.assign(key);
        slots_[slot].hash = hash;
        index_[cell] = slot;
    }
    slots_[slot].value.assign(value);
    slots_[slot].expiry = expiry;
    pushFront(slot);
    ++fills_;

    while (live_ > params_.nicCacheEntries) {
        ++evictions_;
        erase(findCell(slots_[lru_].key, slots_[lru_].hash));
    }
    MERCURY_ENSURES(free_ + live_ == slots_.size(),
                    "NIC cache slots leaked from the pool");
}

void
NicGetCache::invalidate(std::string_view key)
{
    const std::size_t cell = findCell(key, flowHash(key));
    if (index_[cell] == none)
        return;
    ++invalidations_;
    erase(cell);
}

void
NicGetCache::clear()
{
    invalidations_ += live_;
    std::fill(index_.begin(), index_.end(), none);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        slots_[i].next = i + 1 < slots_.size()
                             ? static_cast<std::uint32_t>(i + 1)
                             : none;
    }
    freeHead_ = 0;
    mru_ = none;
    lru_ = none;
    live_ = 0;
    free_ = slots_.size();
}

} // namespace mercury::net
