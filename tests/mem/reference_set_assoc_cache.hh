/**
 * @file
 * Reference set-associative cache: the plain division-based model
 * that mem::SetAssocCache replaced with shift/mask indexing.
 *
 * Line, set and tag come from `/` and `%` by the runtime geometry,
 * and a store hit is a lookup followed by a separate markDirty scan
 * -- the obvious code, kept as the executable specification. The
 * cache fuzz test drives it and the production cache with identical
 * operation streams and demands identical hits and victims.
 *
 * Test-only; nothing under src/ includes it.
 */

#ifndef MERCURY_TESTS_MEM_REFERENCE_SET_ASSOC_CACHE_HH
#define MERCURY_TESTS_MEM_REFERENCE_SET_ASSOC_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/cache.hh"

namespace mercury::mem
{

class ReferenceSetAssocCache
{
  public:
    explicit ReferenceSetAssocCache(const CacheParams &params)
        : params_(params),
          numSets_(params.sizeBytes / (params.lineBytes * params.assoc)),
          lines_(numSets_ * params.assoc)
    {}

    bool
    lookup(Addr addr)
    {
        Line *line = findLine(addr);
        if (!line)
            return false;
        line->lruStamp = nextStamp_++;
        return true;
    }

    bool
    touch(Addr addr, bool dirty)
    {
        if (!lookup(addr))
            return false;
        if (dirty)
            markDirty(addr);
        return true;
    }

    std::optional<Victim>
    insert(Addr addr, bool dirty)
    {
        Line *set = &lines_[setIndex(addr) * params_.assoc];
        const std::uint64_t tag = tagOf(addr);

        for (unsigned way = 0; way < params_.assoc; ++way) {
            if (set[way].valid && set[way].tag == tag) {
                set[way].lruStamp = nextStamp_++;
                set[way].dirty = set[way].dirty || dirty;
                return std::nullopt;
            }
        }

        Line *victim_line = &set[0];
        for (unsigned way = 0; way < params_.assoc; ++way) {
            if (!set[way].valid) {
                victim_line = &set[way];
                break;
            }
            if (set[way].lruStamp < victim_line->lruStamp)
                victim_line = &set[way];
        }

        std::optional<Victim> victim;
        if (victim_line->valid) {
            const std::uint64_t victim_line_number =
                victim_line->tag * numSets_ + setIndex(addr);
            victim = Victim{victim_line_number * params_.lineBytes,
                            victim_line->dirty};
        }

        victim_line->valid = true;
        victim_line->dirty = dirty;
        victim_line->tag = tag;
        victim_line->lruStamp = nextStamp_++;
        return victim;
    }

    bool
    markDirty(Addr addr)
    {
        Line *line = findLine(addr);
        if (!line)
            return false;
        line->dirty = true;
        return true;
    }

    void
    flush()
    {
        for (auto &line : lines_)
            line.valid = false;
    }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lruStamp = 0;
        bool valid = false;
        bool dirty = false;
    };

    std::uint64_t lineAddr(Addr addr) const
    {
        return addr / params_.lineBytes;
    }
    std::uint64_t setIndex(Addr addr) const
    {
        return lineAddr(addr) % numSets_;
    }
    std::uint64_t tagOf(Addr addr) const
    {
        return lineAddr(addr) / numSets_;
    }

    Line *
    findLine(Addr addr)
    {
        const std::uint64_t tag = tagOf(addr);
        Line *set = &lines_[setIndex(addr) * params_.assoc];
        for (unsigned way = 0; way < params_.assoc; ++way) {
            if (set[way].valid && set[way].tag == tag)
                return &set[way];
        }
        return nullptr;
    }

    CacheParams params_;
    std::uint64_t numSets_;
    std::uint64_t nextStamp_ = 1;
    std::vector<Line> lines_;
};

} // namespace mercury::mem

#endif // MERCURY_TESTS_MEM_REFERENCE_SET_ASSOC_CACHE_HH
