/**
 * @file
 * Datapath model: which request path the server walks (kernel TCP,
 * kernel UDP GETs, or a kernel-bypass poll-mode UDP fast path with
 * RX/TX descriptor batching), RSS flow steering, and a LaKe-style
 * on-NIC GET cache.
 *
 * The paper's Fig. 4 charges 87-97 % of a small GET to the Linux
 * network stack. This module models the standard ways that time is
 * bought back:
 *
 *  - DatapathKind::KernelUdp serves GETs over kernel UDP: no
 *    connection state, lighter per-packet work (udp* fields of
 *    server::Calibration). PUTs stay on kernel TCP.
 *
 *  - DatapathKind::Bypass swaps the per-packet kernel path for a
 *    user-level poll-mode driver (DPDK-style): no syscalls, no
 *    socket state, per-*batch* descriptor-ring and doorbell costs
 *    amortized over rxBatch/txBatch packets. The CPU-side costs
 *    live in server::Calibration (bypass* fields); this header only
 *    carries the knobs.
 *
 *  - rss steers flows to per-core NIC RX queues (Toeplitz-style
 *    hash over the flow identity), so the multi-core stack walk
 *    models n independent queues instead of one shared softirq
 *    path. rssQueueFor() is the steering function; it must be a
 *    pure function of (flow hash, queue count) so runs stay
 *    deterministic.
 *
 *  - NicGetCache is a small NIC-resident LRU that answers hot GETs
 *    at wire latency without waking a core (LaKe, PAPERS.md). SETs
 *    and DELETEs invalidate; entries carry the item's absolute
 *    expiry time so a cached TTL item can never outlive the store's
 *    copy. The cache is a *value* cache: a hit returns exactly the
 *    bytes a store read would, which tests/property pins.
 *
 * Every knob defaults off; a default DatapathParams reproduces the
 * kernel path byte-for-byte.
 */

#ifndef MERCURY_NET_DATAPATH_HH
#define MERCURY_NET_DATAPATH_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace mercury::net
{

/** Which request path the server's CPU model walks. */
enum class DatapathKind : std::uint8_t
{
    Kernel,    ///< Linux TCP path, as calibrated for Fig. 4
    KernelUdp, ///< Linux UDP GETs (Facebook-style); PUTs stay on TCP
    Bypass,    ///< user-level poll-mode driver, batched descriptors
};

/** Static configuration of a node's datapath. All defaults off. */
struct DatapathParams
{
    DatapathKind kind = DatapathKind::Kernel;

    /** RX descriptors fetched per doorbell/ring refill (bypass).
     * Per-batch costs in the calibration are divided by this. */
    unsigned rxBatch = 1;

    /** TX descriptors published per doorbell (bypass). */
    unsigned txBatch = 1;

    /** Steer flows to per-core NIC RX queues in StackSimulation
     * instead of sharing one softirq path. */
    bool rss = false;

    /** On-NIC GET cache capacity in entries; 0 disables the cache
     * entirely (no lookup, no stats, no timing change). */
    unsigned nicCacheEntries = 0;

    /** Largest value the NIC cache will hold; bigger responses
     * always go to the core (LaKe caches small hot items). */
    std::uint32_t nicCacheMaxValueBytes = 1024;

    /** Nominal SRAM cost of one cache slot (key + value + tag),
     * used to convert a physical-model MB budget into entries. */
    std::uint32_t nicCacheEntryBytes = 128;

    /** Hardware lookup + response-build latency of a cache hit,
     * charged instead of any CPU phase. */
    Tick nicCacheLookupLatency = 300 * tickNs;

    bool
    bypass() const
    {
        return kind == DatapathKind::Bypass;
    }

    bool
    nicCacheEnabled() const
    {
        return nicCacheEntries > 0;
    }

    /** Cache entries an SRAM budget of @p mb holds, before the
     * truncation to nicCacheEntries (callers check that it fits). */
    double
    nicCacheEntriesFor(double mb) const
    {
        return mb * static_cast<double>(miB) /
               static_cast<double>(nicCacheEntryBytes);
    }
};

/** FNV-1a flow/key hash used for RSS steering. */
std::uint64_t flowHash(std::string_view key);

/** RSS indirection: which RX queue a flow lands on. Pure function
 * of the hash and queue count (deterministic across runs). */
unsigned rssQueueFor(std::uint64_t flow_hash, unsigned queues);

/**
 * Deterministic NIC-resident GET cache: LRU over (key -> value)
 * with SET/DELETE invalidation and absolute-expiry awareness.
 *
 * Storage: a pool of nicCacheEntries + 1 slots allocated once (fill
 * links the new entry before it evicts), threaded into a recency
 * list by 32-bit prev/next links, and an open-addressed index of
 * slot numbers probed linearly from the key's flowHash. Deletion
 * shifts later probe runs back, so there are no tombstones. A slot
 * keeps its strings' capacity when it is reused, so a steady-state
 * fill allocates nothing.
 *
 * Determinism contract: eviction order is the recency list's, and
 * the index is a pure function of the key bytes (no pointer keys,
 * no seeded hashing), so every outcome is a pure function of the
 * operation sequence.
 */
class NicGetCache
{
  public:
    /**
     * @param params sizing knobs (nicCacheEntries must be > 0)
     * @param parent stats parent; nullptr keeps the group detached
     * @param name stat group name under @p parent
     */
    explicit NicGetCache(const DatapathParams &params,
                         stats::StatGroup *parent = nullptr,
                         const std::string &name = "nicCache");

    /**
     * Look up @p key at @p logical_clock (same clock as the expiry
     * passed to fill; 0 works when nothing ever has a TTL). A hit
     * promotes the entry and returns a view of the cached value; a
     * present-but-expired entry is dropped and counts as a miss.
     */
    std::optional<std::string_view>
    lookup(std::string_view key, std::uint64_t logical_clock = 0);

    /**
     * Insert/refresh @p key after a store read returned @p value.
     * @p expiry is the item's absolute expiry time (0 = never) on
     * the same clock lookup uses. Values over the configured size
     * cap are not cached.
     */
    void fill(std::string_view key, std::string_view value,
              std::uint64_t expiry = 0);

    /** Drop @p key (SET/DELETE seen by the NIC). */
    void invalidate(std::string_view key);

    /** Drop everything (flush_all). */
    void clear();

    std::size_t size() const { return live_; }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t fills() const { return fills_.value(); }
    std::uint64_t evictions() const { return evictions_.value(); }
    std::uint64_t invalidations() const
    {
        return invalidations_.value();
    }

  private:
    /** End of a recency list or free list; an empty index cell. */
    static constexpr std::uint32_t none = ~std::uint32_t{0};

    struct Slot
    {
        std::string key;
        std::string value;
        std::uint64_t expiry = 0;
        std::uint64_t hash = 0;
        /** Recency neighbours while live (prev is toward the most
         * recent end); next chains the free list while free. */
        std::uint32_t prev = none;
        std::uint32_t next = none;
    };

    /** Index cell holding @p key's slot, or the empty cell where
     * its probe run ends. */
    std::size_t findCell(std::string_view key, std::uint64_t hash) const;

    /** Unlink the slot in index cell @p cell and free it. */
    void erase(std::size_t cell);

    /** Unlink @p slot from the recency list. */
    void unlink(std::uint32_t slot);

    /** Link @p slot at the most recent end. */
    void pushFront(std::uint32_t slot);

    DatapathParams params_;

    std::vector<Slot> slots_;
    /** Power-of-two table of slot numbers (none = empty cell), at
     * least twice the slot count. */
    std::vector<std::uint32_t> index_;
    std::size_t indexMask_ = 0;
    std::uint32_t mru_ = none;
    std::uint32_t lru_ = none;
    std::uint32_t freeHead_ = none;
    std::size_t live_ = 0;
    std::size_t free_ = 0;

    stats::StatGroup group_;
    stats::Counter hits_;
    stats::Counter misses_;
    stats::Counter fills_;
    stats::Counter evictions_;
    stats::Counter invalidations_;
    stats::Formula hitRate_;
};

} // namespace mercury::net

#endif // MERCURY_NET_DATAPATH_HH
