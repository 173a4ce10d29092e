/**
 * @file
 * Set-associative cache model and a two/three-level hierarchy.
 *
 * The hierarchy is the one the paper sweeps: split 32 KiB L1I/L1D per
 * core, with an optional unified 2 MB L2. Mercury configurations drop
 * the L2 entirely (Sec. 4.1.3) while Iridium requires it to hold the
 * instruction footprint in front of flash (Sec. 4.2.1).
 */

#ifndef MERCURY_MEM_CACHE_HH
#define MERCURY_MEM_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mem/mem_device.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace mercury::mem
{

/** Static configuration of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * kiB;
    unsigned assoc = 4;
    unsigned lineBytes = 64;
    /** Lookup/hit latency of this level. */
    Tick hitLatency = 1 * tickNs;
};

/** A line evicted to make room for a fill. */
struct Victim
{
    Addr lineAddr;
    bool dirty;
};

/**
 * A single set-associative cache array with true-LRU replacement.
 *
 * Tag state only; the simulator never stores data in caches (the
 * functional key-value store holds real data natively). Line size
 * and set count are powers of two, so line, set and tag come from
 * shifts and a mask.
 */
class SetAssocCache
{
  public:
    /**
     * Outcome of one tag scan. On a hit, @c way holds the line; on a
     * miss it is the way a fill would replace: the first invalid way,
     * else the true-LRU way.
     */
    struct Probe
    {
        bool hit;
        unsigned way;
    };

    explicit SetAssocCache(const CacheParams &params);

    /**
     * Probe for a line. On a hit updates LRU and, when @p dirty,
     * marks the line dirty. On a miss the same scan picks the victim
     * way, which fill() installs into without scanning again.
     */
    Probe
    probe(Addr addr, bool dirty)
    {
        const Probe p = scan(addr);
        if (p.hit) {
            Line &line = setWays(addr)[p.way];
            line.lruStamp = nextStamp_++;
            line.dirty = line.dirty || dirty;
        }
        return p;
    }

    /**
     * Install the line containing @p addr into the way a missing
     * probe() returned. Valid only while the set is unchanged since
     * that probe.
     *
     * @return the displaced line, if a valid line was evicted.
     */
    std::optional<Victim> fill(Addr addr, unsigned way, bool dirty);

    /**
     * Install the line containing addr; a present line is refreshed
     * in place.
     *
     * @return the displaced line, if a valid line was evicted.
     */
    std::optional<Victim> insert(Addr addr, bool dirty);

    /** Drop all lines. */
    void flush();

    const CacheParams &params() const { return params_; }

    unsigned numSets() const { return numSets_; }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lruStamp = 0;
        bool valid = false;
        bool dirty = false;
    };

    std::uint64_t lineAddr(Addr addr) const { return addr >> lineShift_; }
    std::uint64_t setIndex(Addr addr) const
    {
        return lineAddr(addr) & setMask_;
    }
    std::uint64_t tagOf(Addr addr) const
    {
        return lineAddr(addr) >> setShift_;
    }
    Line *
    setWays(Addr addr)
    {
        return &lines_[setIndex(addr) * params_.assoc];
    }
    const Line *
    setWays(Addr addr) const
    {
        return &lines_[setIndex(addr) * params_.assoc];
    }

    /** The one tag scan: the hit way, or the victim way on a miss.
     * Touches no replacement state. */
    Probe
    scan(Addr addr) const
    {
        const std::uint64_t tag = tagOf(addr);
        const Line *ways = setWays(addr);
        unsigned invalid = params_.assoc;
        unsigned lru = 0;
        for (unsigned way = 0; way < params_.assoc; ++way) {
            if (!ways[way].valid) {
                if (invalid == params_.assoc)
                    invalid = way;
            } else if (ways[way].tag == tag) {
                return {true, way};
            } else if (ways[way].lruStamp < ways[lru].lruStamp) {
                lru = way;
            }
        }
        // Valid lines carry distinct stamps, so the LRU way is unique.
        // lru starts at way 0 even if way 0 is invalid, but then an
        // invalid way exists and wins.
        return {false, invalid != params_.assoc ? invalid : lru};
    }

    CacheParams params_;
    unsigned numSets_;
    /** log2(lineBytes), log2(numSets) and numSets - 1. */
    unsigned lineShift_;
    unsigned setShift_;
    std::uint64_t setMask_;
    std::uint64_t nextStamp_ = 1;
    std::vector<Line> lines_;
};

/** Kind of access issued by a core. */
enum class CpuAccessKind { IFetch, Load, Store };

/** Where in the hierarchy an access was serviced. */
enum class ServicedBy { L1, L2, Memory };

/** Timing outcome of one hierarchy access. */
struct AccessResult
{
    /** Absolute completion tick. */
    Tick completion;
    ServicedBy source;
};

/** Configuration of a core's cache hierarchy. */
struct HierarchyParams
{
    std::string name = "caches";
    CacheParams l1i{"l1i", 32 * kiB, 2, 64, 1 * tickNs};
    CacheParams l1d{"l1d", 32 * kiB, 4, 64, 1 * tickNs};
    /** Present only when hasL2 is true. */
    bool hasL2 = false;
    CacheParams l2{"l2", 2 * miB, 8, 64, 20 * tickNs};

    /**
     * Write-through stores: every store is also forwarded to the
     * backing device synchronously and lines are never dirty. Used
     * for the Iridium stack, where there is no DRAM to hold dirty
     * state and every persistent write must program flash.
     */
    bool writeThroughStores = false;
};

/**
 * Per-core cache hierarchy in front of a shared memory device.
 *
 * Write-back, write-allocate. Dirty victims are written to the next
 * level off the critical path (the writeback occupies the memory
 * device but does not extend the triggering access).
 */
class CacheHierarchy : public SimObject
{
  public:
    CacheHierarchy(const HierarchyParams &params, MemDevice *memory,
                   stats::StatGroup *parent = nullptr);

    /** Issue one access at absolute tick @p now. Defined below, so
     * the core's per-line walk can inline the L1 hit path. */
    AccessResult access(CpuAccessKind kind, Addr addr, Tick now);

    /** Drop all cached state (e.g. between measurement phases). */
    void flushAll();

    bool hasL2() const { return params_.hasL2; }

    const HierarchyParams &params() const { return params_; }

    double l1iMissRate() const;
    double l1dMissRate() const;
    double l2MissRate() const;

    Counter memoryAccesses() const
    {
        return static_cast<Counter>(memAccesses_.value());
    }

    void reset() override;

  private:
    /**
     * Service an L1 miss from the level below and install the line
     * into way @p way of @p l1, the victim way its probe picked.
     */
    AccessResult fillFromBelow(SetAssocCache &l1, unsigned way,
                               Addr line_addr, bool store, Tick now);

    /** A write-through store: forwarded to the device, no allocate. */
    AccessResult writeThrough(Addr addr, Tick now);

    HierarchyParams params_;
    MemDevice *memory_;

    SetAssocCache l1i_;
    SetAssocCache l1d_;
    std::optional<SetAssocCache> l2_;

    stats::StatGroup statGroup_;
    stats::Scalar l1iHits_;
    stats::Scalar l1iMisses_;
    stats::Scalar l1dHits_;
    stats::Scalar l1dMisses_;
    stats::Scalar l2Hits_;
    stats::Scalar l2Misses_;
    stats::Scalar writebacks_;
    stats::Scalar memAccesses_;
};

inline AccessResult
CacheHierarchy::access(CpuAccessKind kind, Addr addr, Tick now)
{
    const bool ifetch = kind == CpuAccessKind::IFetch;
    SetAssocCache &l1 = ifetch ? l1i_ : l1d_;
    const bool store = kind == CpuAccessKind::Store;
    const bool write_through = store && params_.writeThroughStores;
    const Tick after_l1 = now + l1.params().hitLatency;

    const SetAssocCache::Probe l1_probe =
        l1.probe(addr, store && !write_through);
    if (l1_probe.hit) {
        ++(ifetch ? l1iHits_ : l1dHits_);
        return write_through ? writeThrough(addr, after_l1)
                             : AccessResult{after_l1, ServicedBy::L1};
    }

    ++(ifetch ? l1iMisses_ : l1dMisses_);
    // No write-allocate in write-through mode: the store goes
    // straight to the device.
    if (write_through)
        return writeThrough(addr, after_l1);
    return fillFromBelow(l1, l1_probe.way, addr, store, after_l1);
}

} // namespace mercury::mem

#endif // MERCURY_MEM_CACHE_HH
