#include "mem/cache.hh"

#include <bit>

#include "sim/logging.hh"

namespace mercury::mem
{

SetAssocCache::SetAssocCache(const CacheParams &params)
    : params_(params)
{
    mercury_assert(params_.lineBytes > 0 &&
                   std::has_single_bit(params_.lineBytes),
                   "cache line size must be a power of two");
    mercury_assert(params_.assoc > 0, "cache needs associativity >= 1");
    mercury_assert(params_.sizeBytes %
                   (params_.lineBytes * params_.assoc) == 0,
                   "cache size must be a whole number of sets");

    numSets_ = static_cast<unsigned>(
        params_.sizeBytes / (params_.lineBytes * params_.assoc));
    mercury_assert(numSets_ > 0, "cache must have at least one set");
    mercury_assert(std::has_single_bit(numSets_),
                   "cache set count must be a power of two");
    lineShift_ = static_cast<unsigned>(
        std::countr_zero(params_.lineBytes));
    setShift_ = static_cast<unsigned>(std::countr_zero(numSets_));
    setMask_ = numSets_ - 1;
    lines_.resize(static_cast<std::size_t>(numSets_) * params_.assoc);
}

std::optional<Victim>
SetAssocCache::fill(Addr addr, unsigned way, bool dirty)
{
    Line &line = setWays(addr)[way];
    std::optional<Victim> victim;
    if (line.valid) {
        const std::uint64_t victim_line_number =
            (line.tag << setShift_) | setIndex(addr);
        victim = Victim{victim_line_number << lineShift_, line.dirty};
    }

    line.valid = true;
    line.dirty = dirty;
    line.tag = tagOf(addr);
    line.lruStamp = nextStamp_++;
    return victim;
}

std::optional<Victim>
SetAssocCache::insert(Addr addr, bool dirty)
{
    // Already present: probe has refreshed it.
    const Probe p = probe(addr, dirty);
    if (p.hit)
        return std::nullopt;
    return fill(addr, p.way, dirty);
}

void
SetAssocCache::flush()
{
    for (auto &line : lines_)
        line.valid = false;
}

CacheHierarchy::CacheHierarchy(const HierarchyParams &params,
                               MemDevice *memory,
                               stats::StatGroup *parent)
    : SimObject(params.name), params_(params), memory_(memory),
      l1i_(params.l1i), l1d_(params.l1d),
      statGroup_(params.name, parent),
      l1iHits_(&statGroup_, "l1iHits", "L1I hits"),
      l1iMisses_(&statGroup_, "l1iMisses", "L1I misses"),
      l1dHits_(&statGroup_, "l1dHits", "L1D hits"),
      l1dMisses_(&statGroup_, "l1dMisses", "L1D misses"),
      l2Hits_(&statGroup_, "l2Hits", "L2 hits"),
      l2Misses_(&statGroup_, "l2Misses", "L2 misses"),
      writebacks_(&statGroup_, "writebacks", "dirty lines written back"),
      memAccesses_(&statGroup_, "memAccesses",
                   "demand accesses reaching memory")
{
    mercury_assert(memory_ != nullptr, "hierarchy needs a memory device");
    if (params_.hasL2)
        l2_.emplace(params_.l2);
}

AccessResult
CacheHierarchy::fillFromBelow(SetAssocCache &l1, unsigned way,
                              Addr line_addr, bool store, Tick now)
{
    const unsigned line_bytes = params_.l1d.lineBytes;

    AccessResult below;
    if (l2_) {
        const Tick after_l2 = now + params_.l2.hitLatency;
        const SetAssocCache::Probe l2_probe = l2_->probe(line_addr, store);
        if (l2_probe.hit) {
            ++l2Hits_;
            below = {after_l2, ServicedBy::L2};
        } else {
            ++l2Misses_;
            ++memAccesses_;
            const Tick mem_done = memory_->access(
                AccessType::Read, line_addr, line_bytes, after_l2);
            auto victim = l2_->fill(line_addr, l2_probe.way, store);
            if (victim && victim->dirty) {
                ++writebacks_;
                // Off the critical path: occupies the device after
                // the demand fill completes.
                memory_->access(AccessType::Write, victim->lineAddr,
                                line_bytes, mem_done);
            }
            below = {mem_done, ServicedBy::Memory};
        }
    } else {
        ++memAccesses_;
        const Tick mem_done = memory_->access(AccessType::Read, line_addr,
                                              line_bytes, now);
        below = {mem_done, ServicedBy::Memory};
    }

    auto victim = l1.fill(line_addr, way, store);
    if (victim && victim->dirty) {
        ++writebacks_;
        // Checked insert: the victim may already be in L2.
        if (l2_) {
            l2_->insert(victim->lineAddr, true);
        } else {
            memory_->access(AccessType::Write, victim->lineAddr,
                            l1.params().lineBytes, below.completion);
        }
    }
    return below;
}

AccessResult
CacheHierarchy::writeThrough(Addr addr, Tick now)
{
    ++memAccesses_;
    const Tick done = memory_->access(AccessType::Write, addr,
                                      params_.l1d.lineBytes, now);
    return {done, ServicedBy::Memory};
}

void
CacheHierarchy::flushAll()
{
    l1i_.flush();
    l1d_.flush();
    if (l2_)
        l2_->flush();
}

double
CacheHierarchy::l1iMissRate() const
{
    const double total = l1iHits_.value() + l1iMisses_.value();
    return total > 0.0 ? l1iMisses_.value() / total : 0.0;
}

double
CacheHierarchy::l1dMissRate() const
{
    const double total = l1dHits_.value() + l1dMisses_.value();
    return total > 0.0 ? l1dMisses_.value() / total : 0.0;
}

double
CacheHierarchy::l2MissRate() const
{
    const double total = l2Hits_.value() + l2Misses_.value();
    return total > 0.0 ? l2Misses_.value() / total : 0.0;
}

void
CacheHierarchy::reset()
{
    statGroup_.resetStats();
}

} // namespace mercury::mem
